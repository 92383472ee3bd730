"""Timing wrappers around the program's public layer calls.

The traced run installs these from the benchmark's own files; the
program's ambient tracer (``repro.obs``) stays off, and no figure
comes from a clock inside the program. Each :class:`Target` names one
public function or method by import path. :meth:`LayerTrace.install`
replaces it with a wrapper that times the call on the benchmark's
clock and feeds the layer's counters; :meth:`LayerTrace.uninstall`
puts the original back.

Nesting is tracked with one stack (the benchmark drives the program
from one thread), so every layer has an inclusive time and a self
time (inclusive minus the timed calls made inside it), and the
outermost calls sum to the time the layers cover, which the closure
share compares with the pass wall.

A target that no longer exists (renamed or deleted) is reported once
on stderr and its metrics are left out; the run itself carries on.
Calls made in forked shard processes pass straight through: their
times cannot reach this process.
"""

from __future__ import annotations

import importlib
import os
import pickle
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

import reducers


@dataclass(frozen=True)
class Target:
    """One timed call: ``attr`` (``"func"`` or ``"Class.method"``) of
    ``module``, timed into layer ``layer``; ``hook`` (optional) feeds
    counters from the call's arguments and result."""

    layer: str
    module: str
    attr: str
    hook: Callable[["LayerTrace", tuple, Any, float], None] | None = None


def _count_slots(trace, args, result, started):
    trace.counts["fleet.slots"] += len(result[0])


def _count_trials(trace, args, result, started):
    # ambient_batch(self, value, rngs): one call per batch chunk.
    trace.counts["pipeline.trials"] += len(args[2])
    trace.counts["pipeline.chunks"] += 1


def _count_cycle(trace, args, result, started):
    # push_block(self, block): one call per kernel cycle; the interval
    # to the same ring's previous push is the service time of a cycle.
    trace.counts["kernel.cycles"] += 1
    ring = id(args[0])
    previous = trace.last_push.get(ring)
    if previous is not None:
        trace.cycle_ms.append(1000.0 * (started - previous))
    trace.last_push[ring] = started


def _end_group(trace, args, result, started):
    # Ring ids may be reused by the next group's ring.
    trace.last_push.clear()


def _count_segment(trace, args, result, started):
    trace.counts["features.segments"] += 1


def _count_recognitions(trace, args, result, started):
    trace.counts["recognizer.utterances"] += len(result)
    trace.counts["recognizer.accepted"] += sum(
        1 for recognition in result if recognition.accepted
    )


def _count_tasks(trace, args, result, started):
    trace.counts["shard.task_bytes"] += sum(
        len(pickle.dumps(task)) for task in result
    )


def _count_shard_result(trace, args, result, started):
    # ShardAccumulator.add(self, shard_result), on the coordinator.
    trace.counts["shard.result_bytes"] += len(pickle.dumps(args[1]))
    trace.arrivals.append(started - trace.pass_started)


#: Every timed call, grouped by layer. Two targets may feed one layer
#: (ingest is the ring push plus the frame-energy read).
TARGETS = (
    Target("defense.build_dataset", "repro.experiments.s1_streaming",
           "build_dataset"),
    Target("defense.fit", "repro.defense.detector",
           "InaudibleVoiceDetector.fit"),
    Target("fleet.synthesize", "repro.stream.fleet",
           "synthesize_utterances", _count_slots),
    Target("pipeline.context", "repro.sim.pipeline",
           "TrialPipeline.context"),
    Target("pipeline.ambient", "repro.acoustics.channel",
           "AcousticChannel.ambient_batch", _count_trials),
    Target("pipeline.microphone", "repro.hardware.microphone",
           "Microphone.record_analog_batch"),
    Target("pipeline.adc", "repro.hardware.microphone",
           "Microphone.digitize_batch"),
    Target("pipeline.recognize", "repro.speech.recognizer",
           "KeywordRecognizer.recognize_batch"),
    Target("kernel", "repro.stream.kernel", "drive_stream_group",
           _end_group),
    Target("fleet.assemble", "repro.stream.kernel", "assemble_timeline"),
    Target("chunker.ingest", "repro.stream.chunker",
           "ChunkedStreamBatch.push_block", _count_cycle),
    Target("chunker.ingest", "repro.stream.chunker",
           "ChunkedStreamBatch.pending_frame_energies"),
    Target("segmenter.segment", "repro.stream.segmenter",
           "OnlineSegmenterBatch.process_block"),
    Target("features.welch", "repro.stream.kernel", "welch_segment_psd"),
    Target("features.welch", "repro.stream.features",
           "WelchAccumulator.fold", _count_segment),
    Target("recognizer.recognize_many", "repro.speech.recognizer",
           "KeywordRecognizer.recognize_many", _count_recognitions),
    Target("detect.analyses", "repro.stream.kernel", "analyses_from_psd"),
    Target("detect.classify", "repro.defense.detector",
           "InaudibleVoiceDetector.classify_features"),
    Target("shard.plan", "repro.stream.shard", "plan_shards", _count_tasks),
    Target("shard.fold", "repro.stream.shard", "ShardAccumulator.add",
           _count_shard_result),
    Target("shard.merge", "repro.stream.shard", "ShardAccumulator.report"),
)

#: Counters each layer feeds; they go missing with their layer.
LAYER_COUNTS = {
    "fleet.synthesize": ("fleet.slots",),
    "pipeline.ambient": ("pipeline.trials", "pipeline.chunks"),
    "chunker.ingest": ("kernel.cycles", "kernel.cycle_ms_p50",
                       "kernel.cycle_ms_p99"),
    "features.welch": ("features.segments",),
    "recognizer.recognize_many": ("recognizer.utterances",
                                  "recognizer.accepted_share"),
    "shard.plan": ("shard.task_bytes",),
    "shard.fold": ("shard.result_bytes", "shard.first_result_s",
                   "shard.last_result_s", "shard.skew"),
}


def _resolve(target: Target) -> tuple[Any, str, Any]:
    """``(owner, name, original)`` for a target, or raise
    ``LookupError`` when it no longer exists."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError as exc:
        raise LookupError(str(exc)) from exc
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{target.module}.{target.attr}")
    # A class's own dict holds the plain function, not a bound method.
    namespace = vars(owner)
    if name not in namespace or not callable(namespace[name]):
        raise LookupError(f"{target.module}.{target.attr}")
    return owner, name, namespace[name]


class LayerTrace:
    """Per-layer times and counts from the installed wrappers."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.missing_layers: set[str] = set()
        self._installed: list[tuple[Any, str, Any]] = []
        self._pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        """Forget every time and count (the installed wrappers stay)."""
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.top_level_s = 0.0
        self.cycle_ms: list[float] = []
        self.last_push: dict[int, float] = {}
        self.arrivals: list[float] = []
        self.pass_started = time.perf_counter()
        self._stack: list[float] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; warn once for each missing."""
        if self._installed:
            raise RuntimeError("layer wrappers are already installed")
        for target in self.targets:
            try:
                owner, name, original = _resolve(target)
            except LookupError as exc:
                if target.layer not in self.missing_layers:
                    print(
                        f"warning: layer {target.layer}: timed call "
                        f"{target.module}.{target.attr} not found "
                        f"({exc}); its metrics are missing",
                        file=sys.stderr,
                    )
                self.missing_layers.add(target.layer)
                continue
            setattr(owner, name, self._wrapper(target, original))
            self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def _wrapper(self, target: Target, original: Callable) -> Callable:
        layer, hook = target.layer, target.hook

        def timed(*args, **kwargs):
            if os.getpid() != self._pid:
                return original(*args, **kwargs)
            self._stack.append(0.0)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                nested = self._stack.pop()
                self.inclusive[layer] += elapsed
                self.self_time[layer] += elapsed - nested
                if self._stack:
                    self._stack[-1] += elapsed
                else:
                    self.top_level_s += elapsed
            if hook is not None:
                hook(self, args, result, started)
            return result

        timed.__wrapped__ = original
        return timed

    # -- reduction --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every available per-layer figure of the traced interval:
        ``<layer>_s`` (inclusive; the kernel's is its self time) and
        the layer's counts. Unexercised layers read 0."""
        utterances = self.counts["recognizer.utterances"]
        cycles = self.cycle_ms or [0.0]
        first = min(self.arrivals, default=0.0)
        last = max(self.arrivals, default=0.0)
        derived = {
            "recognizer.accepted_share": (
                self.counts["recognizer.accepted"] / utterances
                if utterances else 0.0
            ),
            "kernel.cycle_ms_p50": reducers.percentile(cycles, 50.0),
            "kernel.cycle_ms_p99": reducers.percentile(cycles, 99.0),
            "shard.first_result_s": first,
            "shard.last_result_s": last,
            "shard.skew": last / first if first > 0.0 else 0.0,
        }
        out: dict[str, float] = {}
        for layer in {target.layer for target in self.targets}:
            if layer in self.missing_layers:
                continue
            if layer == "kernel":
                out["kernel.self_s"] = self.self_time[layer]
            else:
                out[f"{layer}_s"] = self.inclusive[layer]
            for name in LAYER_COUNTS.get(layer, ()):
                out[name] = (
                    derived[name] if name in derived
                    else self.counts[name]
                )
        return out
