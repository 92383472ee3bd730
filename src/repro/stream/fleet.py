"""Concurrent device-fleet simulation over the streaming guard.

The ROADMAP's north star is a service in front of *millions* of
devices; the per-request fast path must therefore be independent and
conflict-free (the Harmonia lesson: near-linear scaling comes from
state that multiplexes without coordination). The streaming guard has
exactly that shape — all per-stream state lives in the stream's own
row of the kernel's ring, segmenter and Welch accumulators; the
recogniser and detector are immutable after enrollment/fit and shared
read-only.

:class:`FleetSimulator` exercises it: ``n_streams`` simulated devices,
each an independent audio timeline (ambient lead-in, utterances,
ambient gaps) pushed chunk-by-chunk through the structure-of-arrays
guard kernel (:mod:`repro.stream.kernel`), ``batch_streams`` devices
per lockstep group. The utterance recordings are synthesised through
the *batched* :class:`~repro.sim.pipeline.TrialPipeline` — one
transmission per class, every stream's per-utterance variation riding
the stacked per-trial stages — with per-stream generators spawned
from one :class:`numpy.random.SeedSequence`, so the whole fleet is a
pure function of its config:

* verdicts, boundaries and stream-time latencies are bitwise
  identical for every ``workers`` and ``batch_streams`` value
  (threads and grouping change wall clock, never results — the
  determinism and kernel suites pin this);
* wall-clock throughput is reported separately
  (:attr:`FleetReport.wall_seconds`), which is what
  ``benchmarks/bench_stream.py`` records in ``BENCH_stream.json``.

Within one simulator, kernel groups are processed by a thread pool.
To scale *across* cores, :mod:`repro.stream.shard` partitions the
fleet into per-process shards, each running this module's stream
dispatcher over its own partition — which is why the dispatcher
(:func:`drive_streams`), the per-class synthesis
(:func:`synthesize_utterances`, emission-cached per process through
:mod:`repro.sim.engine`) and the result containers here are all
module-level and picklable.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.attack.attacker import SingleSpeakerAttacker
from repro.attack.baselines import AudiblePlaybackAttacker
from repro.defense.dataset import GENUINE_REFERENCE_SPL
from repro.defense.detector import InaudibleVoiceDetector
from repro.dsp.signals import Signal
from repro.errors import StreamError
from repro.hardware.devices import horn_tweeter
from repro.obs.metrics import LatencyRecorder, current_metrics
from repro.obs.trace import current_tracer, maybe_span
from repro.sim.cache import stable_key
from repro.sim.engine import EmissionSpec, cached_voice
from repro.sim.pipeline import build_pipeline, level_stage
from repro.sim.spec import RIG_POSITION, get_scenario
from repro.speech.recognizer import KeywordRecognizer
from repro.stream.segmenter import SegmenterConfig

if TYPE_CHECKING:
    from repro.stream.kernel import UtteranceOutcome


@dataclass(frozen=True)
class FleetConfig:
    """Recipe for one fleet run (a pure function of this config).

    Attributes
    ----------
    scenario:
        Registered environment the devices record in.
    n_streams:
        Concurrent simulated devices.
    utterances_per_stream:
        Utterances on each device's timeline.
    attack_fraction:
        Probability that an utterance is an inaudible-command attack
        (drawn deterministically from the master seed).
    command:
        Corpus command every utterance carries.
    distance_m:
        Source-to-device distance; ``None`` takes the scenario's
        default.
    chunk_s:
        Push granularity — the simulated driver's buffer size.
    lead_in_s, gap_s:
        Ambient-only audio before the first utterance and after each
        one. The lead-in seeds the segmenter's noise floor; the gap
        must exceed its close horizon or utterances merge.
    background_ratio:
        Inter-utterance background RMS as a fraction of the stream's
        mean utterance RMS. The default approximates the recordings'
        own ambient/self-noise floor (roughly 20 dB below
        conversational speech), which matters beyond realism: the
        recogniser's cepstral mean normalisation is computed over the
        segmented utterance, so background much *quieter* than the
        in-recording floor skews the cepstral mean and degrades DTW
        distances.
    seed:
        Master seed for the whole fleet.
    workers:
        Thread count for processing (per shard, when sharded);
        results are identical for every value.
    shards:
        Process-shard count for :class:`~repro.stream.shard.
        ShardedFleetSimulator`. :class:`FleetSimulator` itself is the
        single-shard loop and ignores this knob; results are bitwise
        identical for every value (the shard determinism suite and CI
        job pin it).
    batch_streams:
        Streams per kernel lockstep group. Any value produces the
        identical digest. Timelines are read chunk by chunk, so a
        group's working set is O(``batch_streams`` x (chunk + ring))
        whatever ``gap_s`` is; the knob sets batched-op width, not
        timeline memory.
    """

    scenario: str = "free_field"
    n_streams: int = 8
    utterances_per_stream: int = 1
    attack_fraction: float = 0.5
    command: str = "ok_google"
    distance_m: float | None = None
    chunk_s: float = 0.05
    lead_in_s: float = 0.4
    gap_s: float = 0.5
    background_ratio: float = 0.1
    seed: int = 0
    workers: int = 1
    shards: int = 1
    batch_streams: int = 64

    def __post_init__(self) -> None:
        if self.n_streams < 1:
            raise StreamError(
                f"n_streams must be >= 1, got {self.n_streams}"
            )
        if self.utterances_per_stream < 1:
            raise StreamError(
                "utterances_per_stream must be >= 1, got "
                f"{self.utterances_per_stream}"
            )
        if not 0.0 <= self.attack_fraction <= 1.0:
            raise StreamError(
                "attack_fraction must be in [0, 1], got "
                f"{self.attack_fraction}"
            )
        if self.chunk_s <= 0:
            raise StreamError(
                f"chunk_s must be positive, got {self.chunk_s}"
            )
        if self.lead_in_s < 0 or self.gap_s < 0:
            raise StreamError("lead_in_s and gap_s must be >= 0")
        if not 0 < self.background_ratio < 1:
            raise StreamError(
                "background_ratio must be in (0, 1), got "
                f"{self.background_ratio}"
            )
        if self.workers < 1:
            raise StreamError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.shards < 1:
            raise StreamError(
                f"shards must be >= 1, got {self.shards}"
            )
        if self.batch_streams < 1:
            raise StreamError(
                f"batch_streams must be >= 1, got {self.batch_streams}"
            )
        get_scenario(self.scenario)  # fail at construction, not mid-run


@dataclass(frozen=True)
class UtteranceDigest:
    """Deterministic summary of one gated utterance's outcome."""

    start_sample: int
    end_sample: int
    emitted_at_sample: int
    accepted: bool
    command: str
    vetoed: bool
    executed_command: str | None
    score: float | None
    forced: bool

    @classmethod
    def of(cls, result: UtteranceOutcome) -> "UtteranceDigest":
        outcome = result.outcome
        return cls(
            start_sample=result.start_sample,
            end_sample=result.end_sample,
            emitted_at_sample=result.emitted_at_sample,
            accepted=outcome.recognition.accepted,
            command=outcome.recognition.command,
            vetoed=outcome.vetoed,
            executed_command=outcome.executed_command,
            score=(
                None
                if outcome.detection is None
                else outcome.detection.score
            ),
            forced=result.forced,
        )


@dataclass(frozen=True)
class StreamResult:
    """One device's deterministic outcome digest."""

    index: int
    is_attack: tuple[bool, ...]
    duration_s: float
    utterances: tuple[UtteranceDigest, ...]


@dataclass
class FleetReport:
    """What a fleet run produced and what it cost.

    Everything except the wall-clock fields is deterministic given
    the config; the determinism suite compares :meth:`digest` across
    worker counts and the golden S1 table renders only deterministic
    fields.
    """

    config: FleetConfig
    sample_rate: float
    streams: list[StreamResult] = field(repr=False)
    #: Workload-generation cost: utterance synthesis plus ambient
    #: timeline assembly. A deployment receives its audio, so neither
    #: belongs in the streaming throughput denominator.
    prepare_seconds: float = 0.0
    #: The streaming hot path: ingestion, segmentation, Welch
    #: accumulation and the decide phase (recognition + detection).
    wall_seconds: float = 0.0
    #: Per-shard streaming wall clock (empty when unsharded). The
    #: spread diagnoses load imbalance; the coordinator's
    #: ``wall_seconds`` stays the throughput denominator.
    shard_wall_seconds: tuple[float, ...] = ()

    @property
    def audio_seconds(self) -> float:
        """Total stream audio processed, in stream seconds."""
        return sum(s.duration_s for s in self.streams)

    @property
    def n_utterances(self) -> int:
        return sum(len(s.utterances) for s in self.streams)

    @property
    def n_vetoed(self) -> int:
        return sum(
            u.vetoed for s in self.streams for u in s.utterances
        )

    @property
    def n_executed(self) -> int:
        return sum(
            u.executed_command is not None
            for s in self.streams
            for u in s.utterances
        )

    @property
    def n_rejected(self) -> int:
        """Utterances the recogniser did not accept at all."""
        return sum(
            not u.accepted for s in self.streams for u in s.utterances
        )

    def latencies_s(self) -> list[float]:
        """Per-utterance detection latency, in stream seconds."""
        return [
            (u.emitted_at_sample - u.end_sample) / self.sample_rate
            for s in self.streams
            for u in s.utterances
        ]

    def latency_stats(self) -> LatencyRecorder:
        """The raw latency samples as an exact-quantile recorder —
        mean, max and p50/p90/p99/p99.9 from the per-utterance
        samples, not a sketch. What the S1 table's latency rows and
        ``--metrics-out`` report."""
        recorder = LatencyRecorder("fleet.latency_s")
        for latency in self.latencies_s():
            recorder.observe(latency)
        return recorder

    def record_metrics(self, registry) -> None:
        """Publish this report into a metrics registry."""
        registry.counter("fleet.streams").inc(len(self.streams))
        registry.counter("fleet.utterances").inc(self.n_utterances)
        registry.counter("fleet.vetoed").inc(self.n_vetoed)
        registry.counter("fleet.executed").inc(self.n_executed)
        registry.counter("fleet.rejected").inc(self.n_rejected)
        registry.gauge("fleet.audio_seconds").set(self.audio_seconds)
        registry.gauge("fleet.wall_seconds").set(self.wall_seconds)
        registry.gauge("fleet.prepare_seconds").set(
            self.prepare_seconds
        )
        recorder = registry.latency("fleet.latency_s")
        for latency in self.latencies_s():
            recorder.observe(latency)
        if self.shard_wall_seconds:
            shard_recorder = registry.latency("fleet.shard_wall_s")
            for wall in self.shard_wall_seconds:
                shard_recorder.observe(wall)

    @property
    def realtime_factor(self) -> float:
        """Stream-seconds processed per wall second — the number of
        live 1x device streams this machine sustains."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.audio_seconds / self.wall_seconds

    def digest(self) -> tuple:
        """Deterministic fingerprint for cross-worker comparisons."""
        return tuple(
            (s.index, s.is_attack, s.duration_s, s.utterances)
            for s in self.streams
        )

    def digest_hex(self) -> str:
        """The digest as a stable hex hash — what the S1 table prints
        and the CI shard-determinism job diffs byte-for-byte."""
        return stable_key(self.digest())


def attack_fleet_emission(command: str, voice_seed: int):
    """Inaudible-command emission for one fleet voice (cache builder).

    Module-level so :class:`~repro.sim.engine.EmissionSpec` pickles it
    by reference and each shard process materialises the multi-MB
    waveform at most once, whatever its task count.
    """
    voice = cached_voice(command, voice_seed)
    return SingleSpeakerAttacker(horn_tweeter(), RIG_POSITION).emit(
        voice
    )


def genuine_fleet_emission(command: str, voice_seed: int):
    """Audible-playback emission for one fleet voice (cache builder)."""
    voice = cached_voice(command, voice_seed)
    return AudiblePlaybackAttacker(
        RIG_POSITION, speech_spl_at_1m=GENUINE_REFERENCE_SPL
    ).emit(voice)


def synthesize_utterances(
    scenario_name: str,
    command: str,
    distance_m: float | None,
    rng_children: list[np.random.Generator],
    attack_mask: np.ndarray,
    voice_seed: int = 0,
) -> tuple[list[Signal], KeywordRecognizer]:
    """One device-rate recording per utterance slot, plus the device's
    enrolled recogniser.

    Slots are grouped by class (``attack_mask``) and executed through
    the *batched* trial pipeline — synthesis is two pipeline passes
    regardless of slot count, with per-slot generators keeping every
    stream's draws independent; each trial's outcome depends only on
    its own generator, so synthesising any *subset* of slots (a
    shard's partition) is bitwise identical to the full pass. The
    voice and both class emissions come from the engine's per-process
    cache (:func:`~repro.sim.engine.cached_voice`,
    :class:`~repro.sim.engine.EmissionSpec`), so a shard process
    builds each waveform once and reuses it across every task it
    executes. Shared by the fleet simulator, the shard workers and
    the S1 experiment's parity probes.
    """
    spec = get_scenario(scenario_name)
    scenario = spec.build(command, distance_m)
    device = spec.build_device()
    recordings: list[Signal | None] = [None] * len(rng_children)
    attack_slots = [
        k for k in range(len(rng_children)) if attack_mask[k]
    ]
    genuine_slots = [
        k for k in range(len(rng_children)) if not attack_mask[k]
    ]
    if attack_slots:
        emission = EmissionSpec(
            attack_fleet_emission, (command, voice_seed)
        )
        pipeline = build_pipeline(
            scenario, device.microphone, recognize=False
        )
        ctx = pipeline.context(list(emission.sources()))
        rows = pipeline.run_trials(
            ctx, [rng_children[k] for k in attack_slots]
        )
        for k, row in zip(attack_slots, rows):
            recordings[k] = row
    if genuine_slots:
        emission = EmissionSpec(
            genuine_fleet_emission, (command, voice_seed)
        )
        pipeline = build_pipeline(
            scenario,
            device.microphone,
            recognize=False,
            gain_stage=level_stage(55.0, 68.0, GENUINE_REFERENCE_SPL),
        )
        ctx = pipeline.context(list(emission.sources()))
        rows = pipeline.run_trials(
            ctx, [rng_children[k] for k in genuine_slots]
        )
        for k, row in zip(genuine_slots, rows):
            recordings[k] = row
    return recordings, device.recognizer


def fleet_seed_plan(
    config: FleetConfig,
) -> tuple[
    np.ndarray,
    list[np.random.SeedSequence],
    list[np.random.SeedSequence],
]:
    """The fleet's deterministic randomness layout.

    Returns ``(attack_mask, trial_seqs, stream_seqs)`` — the
    per-slot class assignment, one :class:`~numpy.random.SeedSequence`
    per utterance slot and one per stream — all derived from
    ``config.seed`` alone. This is the *single* statement of the
    fleet's seeding: :class:`FleetSimulator` and the sharded driver
    (:mod:`repro.stream.shard`) both consume it, which is what makes
    their digests bitwise comparable for any shard count.
    """
    n_slots = config.n_streams * config.utterances_per_stream
    root = np.random.SeedSequence(config.seed)
    assign_seq, trials_seq, streams_seq = root.spawn(3)
    attack_mask = (
        np.random.default_rng(assign_seq).random(n_slots)
        < config.attack_fraction
    )
    return (
        attack_mask,
        trials_seq.spawn(n_slots),
        streams_seq.spawn(config.n_streams),
    )


@dataclass
class RawStreamRun:
    """One stream's undigested outcome, as the kernel returns it.

    :meth:`commit` converts the guard outcomes into the deterministic
    :class:`StreamResult` digest once a dispatcher has collected every
    run.
    """

    index: int
    is_attack: tuple[bool, ...]
    duration_s: float
    outcomes: list[UtteranceOutcome]

    def commit(self) -> StreamResult:
        return StreamResult(
            index=self.index,
            is_attack=self.is_attack,
            duration_s=self.duration_s,
            utterances=tuple(
                UtteranceDigest.of(outcome)
                for outcome in self.outcomes
            ),
        )


class TimelineSource:
    """One device's audio timeline — lead-in, utterances, gaps — read
    front to back on demand.

    The timeline is never materialised: :meth:`read_into` slices
    utterance spans from the synthesised recordings and draws ambient
    spans from the stream's own generator for exactly the samples
    requested, scaled straight into the caller's buffer. Consecutive
    ``Generator.normal`` calls continue one stream of draws, so any
    read partition yields bitwise the values of one eager draw per
    ambient piece (``tests/stream/test_stream_timeline.py`` pins both
    that numpy property and the partition invariance). The kernel
    therefore holds one chunk per stream instead of whole timelines,
    whatever ``gap_s`` is.
    """

    def __init__(
        self,
        config: FleetConfig,
        rate: float,
        recordings: list[Signal],
        rng: np.random.Generator,
    ) -> None:
        mean_rms = float(
            np.mean([recording.rms() for recording in recordings])
        )
        self._scale = config.background_ratio * max(mean_rms, 1e-12)
        self._rng = rng
        lead = int(round(config.lead_in_s * rate))
        gap = int(round(config.gap_s * rate))
        # (length, samples); ``None`` samples mark an ambient piece.
        pieces: list[tuple[int, np.ndarray | None]] = [(lead, None)]
        for recording in recordings:
            pieces.append((recording.samples.shape[0], recording.samples))
            pieces.append((gap, None))
        self._pieces = pieces
        #: Total samples in the timeline.
        self.length = sum(n for n, _ in pieces)
        self._piece = 0
        self._offset = 0

    def read_into(self, out: np.ndarray) -> None:
        """Write the next ``out.shape[0]`` timeline samples into the
        1-D ``out``; positions past the end are zeroed."""
        want = out.shape[0]
        filled = 0
        pieces = self._pieces
        while filled < want and self._piece < len(pieces):
            n, samples = pieces[self._piece]
            take = min(want - filled, n - self._offset)
            dst = out[filled : filled + take]
            if samples is None:
                np.multiply(
                    self._rng.normal(0.0, 1.0, take), self._scale, out=dst
                )
            else:
                dst[:] = samples[self._offset : self._offset + take]
            filled += take
            self._offset += take
            if self._offset == n:
                self._piece += 1
                self._offset = 0
        out[filled:] = 0.0


def assemble_timeline(
    config: FleetConfig,
    rate: float,
    recordings: list[Signal],
    rng: np.random.Generator,
) -> np.ndarray:
    """One device's full audio timeline: lead-in, utterances, gaps.

    The eager drain of :class:`TimelineSource`, which the kernel reads
    chunk by chunk instead: one definition of the timeline, so the
    offline oracle (a verdict equals the offline guard on the
    utterance's span of this array) and the kernel consume the
    identical generator draws. The first link in that bitwise-parity
    chain is numpy's chunked-draw equivalence for ``Generator.normal``.
    """
    source = TimelineSource(config, rate, recordings, rng)
    timeline = np.empty(source.length, dtype=np.float64)
    source.read_into(timeline)
    return timeline


def check_fleet_rate(recordings: list[Signal]) -> float:
    """The fleet's single device rate, or a :class:`StreamError`."""
    rate = recordings[0].sample_rate
    for recording in recordings:
        if recording.sample_rate != rate:
            raise StreamError(
                "all fleet recordings must share one device rate"
            )
    return rate


def drive_streams(
    config: FleetConfig,
    detector: InaudibleVoiceDetector,
    segmenter_config: SegmenterConfig | None,
    stream_indices,
    rate: float,
    recognizer: KeywordRecognizer,
    recordings: list[Signal],
    attack_mask: np.ndarray,
    stream_seqs,
    emit,
) -> float:
    """Drive a partition of streams through kernel groups.

    The single streaming dispatcher: the unsharded simulator and every
    shard worker (:func:`repro.stream.shard.run_shard`) route through
    it, so each shard process runs its own kernel groups of
    ``config.batch_streams`` streams over its own partition.

    ``stream_indices[pos]`` is the *global* index of local position
    ``pos``; ``recordings``/``attack_mask`` are laid out per local
    slot (``pos * utterances_per_stream`` onward). Every finished
    stream's :class:`RawStreamRun` is handed to ``emit`` (a list
    append) — completion order may vary with threading, but each
    run's content never does.

    Returns the seconds spent *assembling* timelines (ambient
    synthesis — workload generation), which callers subtract from
    their streaming wall clock and account as prepare time alongside
    utterance synthesis.
    """
    from repro.stream import kernel  # deferred: kernel imports us

    per = config.utterances_per_stream
    n_local = len(stream_indices)
    # The nesting stack is thread-local: capture the dispatcher's
    # parent here so pool threads attach their spans under it.
    tracer = current_tracer()
    dispatch_parent = (
        tracer.current_parent() if tracer is not None else None
    )
    group_bounds = list(range(0, n_local, config.batch_streams))

    def drive_group(lo: int) -> float:
        hi = min(lo + config.batch_streams, n_local)
        positions = range(lo, hi)
        context = (
            tracer.attached(dispatch_parent)
            if tracer is not None
            else nullcontext()
        )
        with context:
            runs, assembled = kernel.drive_stream_group(
                config,
                detector,
                segmenter_config,
                [int(stream_indices[pos]) for pos in positions],
                rate,
                recognizer,
                [
                    recordings[pos * per : (pos + 1) * per]
                    for pos in positions
                ],
                [
                    attack_mask[pos * per : (pos + 1) * per]
                    for pos in positions
                ],
                [stream_seqs[pos] for pos in positions],
            )
        for run in runs:
            emit(run)
        return assembled

    if config.workers == 1 or len(group_bounds) == 1:
        return sum(drive_group(lo) for lo in group_bounds)
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        return sum(pool.map(drive_group, group_bounds))


class FleetSimulator:
    """Run many concurrent device streams against one trained guard.

    Parameters
    ----------
    detector:
        A fitted :class:`~repro.defense.detector.InaudibleVoiceDetector`
        shared read-only by every stream's guard.
    config:
        The fleet recipe.
    segmenter_config:
        Optional gate tuning shared by every stream.
    """

    def __init__(
        self,
        detector: InaudibleVoiceDetector,
        config: FleetConfig,
        segmenter_config: SegmenterConfig | None = None,
    ) -> None:
        self.detector = detector
        self.config = config
        self.segmenter_config = segmenter_config

    # -- the run -------------------------------------------------------

    def run(self) -> FleetReport:
        """Synthesise, stream and decide the whole fleet.

        With a :mod:`repro.obs` tracer active the kernel's stage spans
        attribute ingestion vs segmentation vs Welch vs decide cost
        (:func:`repro.obs.report.stage_rows`).
        """
        config = self.config
        with maybe_span("fleet", streams=config.n_streams):
            attack_mask, trial_seqs, stream_seqs = fleet_seed_plan(
                config
            )
            trial_rngs = [
                np.random.default_rng(child) for child in trial_seqs
            ]

            prepare_started = time.perf_counter()
            with maybe_span("synthesize", slots=len(trial_rngs)):
                recordings, recognizer = synthesize_utterances(
                    config.scenario,
                    config.command,
                    config.distance_m,
                    trial_rngs,
                    attack_mask,
                    voice_seed=config.seed,
                )
            prepare_seconds = time.perf_counter() - prepare_started
            rate = check_fleet_rate(recordings)

            raw_runs: list[RawStreamRun] = []
            started = time.perf_counter()
            assembled = drive_streams(
                config,
                self.detector,
                self.segmenter_config,
                range(config.n_streams),
                rate,
                recognizer,
                recordings,
                attack_mask,
                stream_seqs,
                raw_runs.append,
            )
            results = [
                raw.commit()
                for raw in sorted(raw_runs, key=lambda raw: raw.index)
            ]
            # Timeline assembly is workload generation (a deployment
            # receives its audio); it counts as prepare, not
            # streaming.
            prepare_seconds += assembled
            wall_seconds = time.perf_counter() - started - assembled
            report = FleetReport(
                config=config,
                sample_rate=rate,
                streams=results,
                prepare_seconds=prepare_seconds,
                wall_seconds=wall_seconds,
            )
        registry = current_metrics()
        if registry is not None:
            report.record_metrics(registry)
        return report
