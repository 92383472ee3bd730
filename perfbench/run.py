"""The repository's benchmark: guard fleets and attack trials, timed from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-idle --seed 1 --seconds 20 --trace 0

Workloads (all ``free_field``, ``ok_google``, attack fraction 0.5,
50 ms chunks, ``FleetConfig.seed = seed + 3``, one worker thread):

* ``fleet-idle`` -- 120 device streams, one utterance each, 0.5 s
  lead-in and 10 s gaps, one process: the always-on duty cycle and the
  single-thread baseline, where ambient assembly and chunk ingest
  weigh most.
* ``fleet-busy`` -- 64 streams, two utterances each, 1 s gaps, one
  process: dense with utterances, so synthesis, DTW recognition and
  trace detection dominate.
* ``fleet-sharded`` -- the idle shape at 120 streams per shard over 2
  process shards (``ShardedFleetSimulator``): fan-out, task pickling,
  per-shard emission builds (paid inside every pass, as on every
  ``--shards`` run) and the merge.
* ``trials-split-array`` -- the T2 cell, a 32-speaker split array
  against a phone at 3 m, 50 trials through
  ``ExperimentEngine.run_trial_groups`` with ``keep_recordings=False``:
  the offline layer, with the multi-source transmit precompute and
  batched recognition.

Every pass is timed with this file's own clock around the public
entry point (``FleetSimulator.run``, ``ShardedFleetSimulator.run``,
``ExperimentEngine.run_trial_groups``); no figure comes from a clock
inside the program. ``--trace 0`` sets up several times, makes one
checked warm-up pass (single-process workloads), then untraced passes
for the rest of ``--seconds``; it reports the end-to-end metrics, the
throughputs as medians over those passes.
``--trace 1`` installs the timing wrappers of ``layers.py`` for set-up
and for one extra pass after the untraced ones, and reports the
per-layer metrics plus the tracing overhead and the share of the pass
no layer covers. Metric names and units come from ``BENCHMARK.json``.

End-to-end metrics, defined on every workload:

* ``setup_s`` -- importing the program plus the median of three
  set-ups: detector training and, in one process, the fleet voice's
  emission builds; for trials, the array emission build and one
  recorded trial.
* ``audio_rtf`` -- audio seconds per pass wall second: the streams'
  audio for fleets, trials times the device recording's length for
  trials.
* ``trials_per_s`` -- pipeline trials per pass wall second: utterance
  slots synthesised and decided for fleets, attack trials for trials.
* ``peak_rss_mb`` -- the largest resident set of this process or of
  any shard process.

Printed on every run but not bounded, because they are fixed by the
seed: ``detect_latency_p50_ms`` and ``detect_latency_p90_ms`` (stream
time from an utterance's end to its verdict, in 10 ms steps),
``defense_error_share`` (a handful of errors per pass) and
``failed_share`` (the result line's ``failed / attempted``; parity
probe cases count as operations).

Output checks, any of which makes the run exit 1: every pass produces
the same digest (fleet digest, or the trials' ``(success, distance)``
outcomes); on seed 0 that digest equals the reference recorded from
the program; S1's chunked-vs-offline parity probes stay bitwise. A
pass that raises or fails its check counts its operations as failed.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it show
each metric's median, quartiles and sample count, and the machine.

Exit codes: 0 ok, 1 an output check failed, 2 bad arguments or the
program cannot be imported (no result line then).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import layers
import reducers

ROOT = Path(__file__).resolve().parent.parent

SCENARIO = "free_field"
COMMAND = "ok_google"

#: Set-up repeats in an untraced run; ``setup_s`` is the import time
#: plus the median repeat.
SETUP_REPEATS = 3

#: Sampled passes made even when they outlast ``--seconds``. In one
#: process a warm-up pass precedes them: the first pass runs slow
#: while the allocator and lazily built state settle.
MIN_PASSES = 2

#: Chunk sizes of the S1 parity probes, as in ``bench_stream``.
PARITY_CHUNK_MS = (10, 50, 250)

#: Digests on seed 0, recorded from the program when this benchmark
#: was written; a pass on seed 0 that differs fails its check.
REFERENCE_DIGESTS = {
    "fleet-idle":
        "46dc312e04c3f94d273660eedffbe3b97480e85ba1aea1b2a76ffd3f5083b03f",
    "fleet-busy":
        "f23fdbddceadedf90981cc25eda767264b72d5cac804bc52468210bce4f36ad6",
    "fleet-sharded":
        "ad49d643df8b0f0d444b17b67b74906eda44ebba98da63106289218336143b52",
    "trials-split-array":
        "311324b2c8b02684df021b9c53769de13bd0ff082ba617ceb5c026080f59886d",
}


#: Per-layer metrics a workload kind does not exercise; they read 0.
UNUSED = {
    "fleet": {"shard.per_core_rtf", "shard.scaling_efficiency"},
    "sharded": set(),
    "trials": {
        "shard.per_core_rtf", "shard.scaling_efficiency",
        "detect_latency_p50_ms", "detect_latency_p90_ms",
        "detect_latency_samples", "defense_error_share",
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "fleet", "sharded" or "trials"
    streams: int = 0
    utterances: int = 1
    gap_s: float = 10.0
    shards: int = 1
    trials: int = 0

    def describe(self) -> str:
        if self.kind == "trials":
            return (
                f"{self.trials} trials, 32-speaker split array vs "
                "phone at 3 m"
            )
        return (
            f"{self.streams} streams x {self.utterances} utterance(s), "
            f"{self.gap_s:g} s gaps, {self.shards} process(es)"
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fleet-idle", "fleet", streams=120),
        Workload("fleet-busy", "fleet", streams=64, utterances=2,
                 gap_s=1.0),
        Workload("fleet-sharded", "sharded", streams=240, shards=2),
        Workload("trials-split-array", "trials", trials=50),
    )
}


@dataclass
class PassResult:
    wall_s: float
    ops: int
    audio_s: float
    digest: str
    output: object  # the FleetReport, or the list of TrialOutcomes


#: The program modules the benchmark calls; importing them is part of
#: ``setup_s``.
PROGRAM_MODULES = (
    "repro",
    "repro.experiments._emissions",
    "repro.experiments.s1_streaming",
    "repro.sim.engine",
    "repro.sim.scenario",
    "repro.sim.spec",
    "repro.stream.fleet",
    "repro.stream.shard",
)


def import_program() -> None:
    """Import the program from this checkout's ``src``, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        for module in PROGRAM_MODULES:
            importlib.import_module(module)
    except ImportError as exc:
        print(f"error: cannot import the program from {src}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    origin = Path(sys.modules["repro"].__file__).resolve()
    if src.resolve() not in origin.parents:
        print(f"error: imported repro from {origin}, not from {src}",
              file=sys.stderr)
        sys.exit(2)


def peak_rss_mb(include_children: bool) -> float:
    """Largest resident set of this process (and, when asked, of any
    shard process it has waited for), in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(
            peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
    return peak / 1024.0


def defense_errors(report) -> int:
    """Attack slots executed plus genuine slots not executed.

    Utterances pair with their stream's slots in order; a stream whose
    segmenter found a different number of utterances than it was given
    counts every slot as an error.
    """
    errors = 0
    for stream in report.streams:
        if len(stream.utterances) != len(stream.is_attack):
            errors += len(stream.is_attack)
            continue
        for attack, utterance in zip(stream.is_attack, stream.utterances):
            executed = utterance.executed_command is not None
            errors += executed if attack else not executed
    return errors


class FleetRunner:
    """``FleetSimulator.run`` or ``ShardedFleetSimulator.run`` passes."""

    def __init__(self, workload: Workload, seed: int) -> None:
        from repro.stream.fleet import FleetConfig

        self.workload = workload
        self.seed = seed
        self.config = FleetConfig(
            scenario=SCENARIO,
            command=COMMAND,
            n_streams=workload.streams,
            utterances_per_stream=workload.utterances,
            attack_fraction=0.5,
            lead_in_s=0.5,
            gap_s=workload.gap_s,
            chunk_s=0.05,
            seed=seed + 3,
            workers=1,
            shards=workload.shards,
        )
        self.ops = workload.streams * workload.utterances
        self.detector = None

    def warm_emissions(self) -> None:
        """Build the fleet voice's attack and genuine emissions into
        this process's cache."""
        from repro.sim.engine import EmissionSpec
        from repro.stream.fleet import (
            attack_fleet_emission,
            genuine_fleet_emission,
        )

        for builder in (attack_fleet_emission, genuine_fleet_emission):
            EmissionSpec(builder, (COMMAND, self.config.seed)).emission()

    def prepare(self) -> None:
        """Train the detector; warm the emission cache unless the
        shards build their own inside every pass."""
        from repro.experiments.s1_streaming import train_detector

        self.detector = train_detector(SCENARIO, self.seed, n_trials=2)
        if self.workload.kind == "fleet":
            self.warm_emissions()

    def run_pass(self) -> PassResult:
        if self.workload.kind == "sharded":
            from repro.stream.shard import ShardedFleetSimulator as Sim
        else:
            from repro.stream.fleet import FleetSimulator as Sim
        simulator = Sim(self.detector, self.config)
        started = time.perf_counter()
        report = simulator.run()
        wall = time.perf_counter() - started
        return PassResult(
            wall, self.ops, report.audio_seconds, report.digest_hex(),
            report,
        )

    def baseline_rtf(self) -> float:
        """``audio_rtf`` of one shard's worth of streams in this one
        process, warm: the single-thread figure per-core throughput is
        compared against. Run after every sharded pass, because it
        warms the cache the shard processes would inherit."""
        from dataclasses import replace

        from repro.stream.fleet import FleetSimulator

        config = replace(
            self.config,
            n_streams=self.workload.streams // self.workload.shards,
            shards=1,
        )
        self.warm_emissions()
        gc.collect()
        started = time.perf_counter()
        report = FleetSimulator(self.detector, config).run()
        return report.audio_seconds / (time.perf_counter() - started)


class TrialRunner:
    """``ExperimentEngine.run_trial_groups`` passes over the T2 cell."""

    def __init__(self, workload: Workload, seed: int) -> None:
        from repro.experiments._emissions import array_split
        from repro.sim.engine import (
            EmissionSpec,
            ExperimentEngine,
            TrialGroup,
        )
        from repro.sim.scenario import VictimDevice
        from repro.sim.spec import get_scenario

        spec = get_scenario(SCENARIO)
        scenario = spec.build(COMMAND, distance_m=spec.max_distance_m(3.0))
        emission = EmissionSpec(array_split, (COMMAND, seed, 32))
        device = VictimDevice.phone(seed=seed + 1)
        self.workload = workload
        self.seed = seed
        self.engine = ExperimentEngine(jobs=1)
        self.group = TrialGroup(scenario, device, emission, workload.trials)
        self.probe = TrialGroup(scenario, device, emission, 1)
        self.ops = workload.trials
        self.recording_s = 0.0
        self.detector = None

    def prepare(self) -> None:
        """Build the array emission and run one recorded trial, which
        also gives the device recording's length."""
        import numpy as np

        (outcome,) = self.engine.run_trial_groups(
            [self.probe], np.random.default_rng(self.seed)
        )[0]
        self.recording_s = outcome.recording.duration

    def run_pass(self) -> PassResult:
        import numpy as np

        rng = np.random.default_rng(self.seed)
        started = time.perf_counter()
        (outcomes,) = self.engine.run_trial_groups(
            [self.group], rng, keep_recordings=False
        )
        wall = time.perf_counter() - started
        key = repr([(bool(o.success), float(o.distance).hex())
                    for o in outcomes])
        return PassResult(
            wall, len(outcomes), len(outcomes) * self.recording_s,
            hashlib.sha256(key.encode()).hexdigest(), outcomes,
        )


def parity_failures(runner, seed: int) -> tuple[int, int]:
    """``(cases, non-bitwise cases)`` of S1's chunked-vs-offline
    parity probes, with the runner's detector (trained here if the
    workload has none)."""
    from repro.experiments.s1_streaming import (
        chunked_parity_probes,
        train_detector,
    )

    detector = runner.detector
    if detector is None:
        detector = train_detector(SCENARIO, seed, n_trials=2)
    cases = chunked_parity_probes(SCENARIO, seed, PARITY_CHUNK_MS, detector)
    return len(cases), sum(1 for case in cases if not case[3])


def fleet_outcome_metrics(report) -> dict[str, float]:
    """Verdict figures of one fleet pass (deterministic per seed)."""
    latencies_ms = [1000.0 * s for s in report.latencies_s()]
    out = {
        "detect_latency_samples": float(len(latencies_ms)),
        "defense_error_share": (
            defense_errors(report) / max(1, sum(
                len(s.is_attack) for s in report.streams))
        ),
    }
    if latencies_ms:
        out["detect_latency_p50_ms"] = reducers.percentile(
            latencies_ms, 50.0
        )
        tail = reducers.tail_percentile(len(latencies_ms))
        if tail is not None and tail >= 90.0:
            out["detect_latency_p90_ms"] = reducers.percentile(
                latencies_ms, 90.0
            )
        else:
            print(
                f"warning: {len(latencies_ms)} latency samples leave "
                f"fewer than {reducers.MIN_BEYOND} beyond p90; "
                "detect_latency_p90_ms is missing",
                file=sys.stderr,
            )
    return out


#: The user-facing figures printed on every run, whether or not the
#: workload has them and whether or not ``BENCHMARK.json`` bounds them.
SUMMARY_METRICS = (
    ("setup_s", "s"),
    ("audio_rtf", "s/s"),
    ("trials_per_s", "1/s"),
    ("detect_latency_p50_ms", "ms"),
    ("detect_latency_p90_ms", "ms"),
    ("defense_error_share", "share"),
    ("failed_share", "share"),
    ("peak_rss_mb", "MiB"),
)


def print_summary(workload, seed, trace, samples, metrics, notes) -> None:
    """Human-readable lines before the result line."""
    print(f"workload {workload.name}: {workload.describe()}, seed {seed}, "
          f"trace {trace}")
    try:
        from repro.sim.bench import machine_metadata
    except ImportError:
        print("machine: repro.sim.bench.machine_metadata unavailable")
    else:
        # Stop git at this checkout: outside a repository the sha is
        # simply absent.
        os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))
        print("machine: " + json.dumps(machine_metadata(), sort_keys=True))
    print(f"{'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'n':>3s}")
    for name, values in samples.items():
        s = reducers.summarize(values)
        print(f"{name:34s} {s['median']:14.6g} {s['q1']:14.6g} "
              f"{s['q3']:14.6g} {s['n']:3d}")
    for name, unit in SUMMARY_METRICS:
        value = metrics.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:34s} {shown:>14s} {unit}")
    for note in notes:
        print(note)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.perf_counter()
    import_program()
    import_s = time.perf_counter() - started

    from repro.sim.engine import process_cache

    workload = WORKLOADS[args.workload]
    runner = (TrialRunner if workload.kind == "trials" else FleetRunner)(
        workload, args.seed
    )
    trace = layers.LayerTrace() if args.trace else None
    samples: dict[str, list[float]] = {}
    notes: list[str] = []
    metrics: dict[str, float] = {}

    # -- set-up ----------------------------------------------------------
    repeats = 1 if trace else SETUP_REPEATS
    setup_times = []
    if trace:
        trace.install()
    try:
        for _ in range(repeats):
            process_cache().clear()
            started = time.perf_counter()
            runner.prepare()
            setup_times.append(import_s + time.perf_counter() - started)
    finally:
        if trace:
            trace.uninstall()
    samples["setup_s"] = setup_times
    metrics["setup_s"] = statistics.median(setup_times)
    setup_layers = {}
    if trace:
        setup_layers = {
            name: value for name, value in trace.metrics().items()
            if name.startswith("defense.")
        }
        trace.reset()

    # -- untraced passes ---------------------------------------------------
    attempted = failed = 0
    digests: set[str] = set()
    passes: list[PassResult] = []
    warmup: PassResult | None = None
    # Shard processes are forked afresh on every pass, so only the
    # single-process workloads have a warm-up to make.
    warming = workload.kind != "sharded"
    measure_started = time.perf_counter()
    # A warm-up pass (checked, not sampled), then passes until the
    # next one would end past --seconds.
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - measure_started
        + statistics.median(p.wall_s for p in passes) <= args.seconds
    ):
        gc.collect()
        attempted += runner.ops
        try:
            result = runner.run_pass()
        except Exception:
            traceback.print_exc()
            failed += runner.ops
            break
        digests.add(result.digest)
        if warming:
            warmup, warming = result, False
        else:
            passes.append(result)

    # -- traced pass ---------------------------------------------------------
    traced = None
    if trace and passes:
        gc.collect()
        cache_before = (process_cache().stats.hits,
                        process_cache().stats.misses)
        attempted += runner.ops
        trace.install()
        try:
            trace.reset()
            traced = runner.run_pass()
        except Exception:
            traceback.print_exc()
            failed += runner.ops
        finally:
            trace.uninstall()
        if traced is not None:
            digests.add(traced.digest)
            metrics.update(trace.metrics())
            metrics.update(setup_layers)
            metrics["engine.emission_hits"] = (
                process_cache().stats.hits - cache_before[0])
            metrics["engine.emission_misses"] = (
                process_cache().stats.misses - cache_before[1])
            metrics["trace.unaccounted_share"] = reducers.unaccounted_share(
                traced.wall_s, trace.top_level_s)
            metrics["trace.overhead_share"] = reducers.overhead_share(
                traced.wall_s, [p.wall_s for p in passes])
            notes.append(f"traced pass wall {traced.wall_s:.6f} s")

    metrics["peak_rss_mb"] = peak_rss_mb(workload.kind == "sharded")

    # -- output checks -------------------------------------------------------
    correct = failed == 0 and bool(passes)
    if len(digests) > 1:
        print(f"FAIL: digests differ across passes: {sorted(digests)}",
              file=sys.stderr)
        correct = False
        failed = attempted
    reference = REFERENCE_DIGESTS[workload.name]
    if args.seed == 0 and digests and digests != {reference}:
        print(f"FAIL: seed-0 digest {sorted(digests)} differs from the "
              f"reference {reference}", file=sys.stderr)
        correct = False
        failed = attempted
    cases, broken = parity_failures(runner, args.seed)
    attempted += cases
    failed += broken
    if broken:
        print(f"FAIL: {broken} of {cases} S1 parity probes are not "
              "bitwise", file=sys.stderr)
        correct = False
    notes.append(f"digest {sorted(digests)}; S1 parity probes "
                 f"{cases - broken}/{cases} bitwise; {failed} of "
                 f"{attempted} operations failed")

    # -- metrics ---------------------------------------------------------------
    if passes:
        samples["audio_rtf"] = [p.audio_s / p.wall_s for p in passes]
        samples["trials_per_s"] = [p.ops / p.wall_s for p in passes]
        samples["pass_wall_s"] = [p.wall_s for p in passes]
        notes.append(
            "pass walls (s): "
            + (f"warm-up {warmup.wall_s:.6f}; " if warmup else "")
            + ", ".join(f"{p.wall_s:.6f}" for p in passes))
        for name in ("audio_rtf", "trials_per_s"):
            metrics[name] = statistics.median(samples[name])
        if workload.kind != "trials":
            outcome = fleet_outcome_metrics(passes[0].output)
            metrics.update(outcome)
            notes.append(
                "detect latency percentiles over "
                f"{outcome['detect_latency_samples']:.0f} utterances")
        if workload.kind == "sharded":
            cores = min(workload.shards, os.cpu_count() or 1)
            per_core = metrics["audio_rtf"] / cores
            note = f"per-core audio_rtf {per_core:.6g} on {cores} cores"
            if trace:
                baseline = runner.baseline_rtf()
                metrics["shard.per_core_rtf"] = per_core
                metrics["shard.scaling_efficiency"] = per_core / baseline
                note += (
                    f" vs {baseline:.6g} for "
                    f"{workload.streams // workload.shards} streams in "
                    "one process (the fleet-idle shape)")
            notes.append(note)
    metrics["failed_share"] = failed / attempted

    kind = "per_layer" if trace else "end_to_end"
    out = {}
    for entry in spec[kind]:
        name = entry["name"]
        if name in metrics:
            out[name] = {"value": float(metrics[name]),
                         "unit": entry["unit"]}
        elif kind == "per_layer":
            # Layers a workload does not exercise read 0; a name still
            # absent lost its timed call or its samples.
            if name in UNUSED[workload.kind]:
                out[name] = {"value": 0.0, "unit": entry["unit"]}
            else:
                print(f"warning: per-layer metric {name} is missing",
                      file=sys.stderr)
        else:
            print(f"FAIL: end-to-end metric {name} was not measured",
                  file=sys.stderr)
            correct = False
    print_summary(workload, args.seed, args.trace, samples, metrics, notes)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
