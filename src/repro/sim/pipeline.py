"""The declarative trial pipeline: one stage list, two execution modes.

Before this module existed the simulator carried two hand-synchronized
implementations of the per-trial attack chain — the scalar loop in
:class:`repro.sim.runner.ScenarioRunner` and the vectorized kernel in
:mod:`repro.sim.batch` — whose bitwise agreement rested on a draw-order
contract stated in comments and pinned only by differential tests.
Here the chain is *data*: a :class:`TrialPipeline` is an ordered list
of named :class:`Stage` objects

    transmit -> motion-gain -> [interference] -> ambient ->
    microphone -> adc -> recognize

where each stage declares a scalar kernel (one trial, one
:class:`~repro.dsp.signals.Signal`, one generator) and an optional
batch kernel (a whole trial chunk as ``(n_trials, n_samples)`` stacks,
one generator per row). A single executor walks the same list in
either mode, so batch-vs-scalar bitwise identity holds *by
construction*: there is no second statement of the stage order left to
drift.

Per-stage random draws are the equivalence discipline: a stage's batch
kernel must consume exactly the draws its scalar kernel would, from
the same per-trial generators, in row order. The built-in stages obey
this (motion gains are drawn one-per-generator before the stacked
multiply; ambient and self-noise draw row by row), and the
property-based suite checks the executor preserves it for arbitrary
stage lists.

Whether a whole pipeline may take the batched path is a *fold* over
its stages' :class:`BatchSupport`: the first stage that lacks a batch
kernel, or whose construction-time check refused (a subclassed
microphone whose overridden ``record`` the stacked chain would
bypass), decides — with a structured reason instead of a silent
``False``.

:func:`build_pipeline` assembles the canonical attack pipeline for a
(scenario, device) pair. The defense's dataset synthesis composes its
own variant — the same stages minus recognition, plus a per-trial
talker-level gain — through the same builders, which is what lets
labelled-recording synthesis run on the batched path in every
registered environment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.acoustics.channel import AcousticChannel, PlacedSource
from repro.acoustics.spl import spl_to_pressure
from repro.dsp.signals import Signal, SignalBatch
from repro.errors import ExperimentError
from repro.hardware.microphone import Microphone
from repro.hardware.nonlinearity import PolynomialNonlinearity
from repro.obs.trace import current_tracer
from repro.sim.cache import EmissionCache, stable_key
from repro.sim.scenario import Scenario, VictimDevice
from repro.speech.recognizer import KeywordRecognizer

#: Trials stacked per batched executor pass. Sixteen acoustic-rate
#: rows keep every intermediate in the low tens of MB — large enough
#: that a 10-trial dataset cell or a 50-trial sweep group pays the
#: per-chunk fixed costs (filter design, zero-phase initial
#: conditions, batch construction) a handful of times rather than
#: per-trial, small enough that the filter chain's temporaries stay
#: within memory bounds. Row-at-a-time filtering keeps the hot DSP
#: cache-resident regardless of the stack height.
CHUNK_TRIALS = 16

#: Transmitted interference beds retained per invariants cache. Real
#: runs see a handful of (geometry, sample rate) combinations; the
#: bound exists so a sweeping caller cannot grow the precompute cache
#: without limit (the unbounded dict this replaces).
_INVARIANT_CACHE_ENTRIES = 8


@dataclass(frozen=True)
class BatchSupport:
    """Whether a stage (or pipeline) may take the batched path.

    Truthiness matches ``supported`` so ``if supports_batch(group):``
    call sites keep working; the ``reason`` carries the structured
    explanation a silent ``False`` used to swallow.
    """

    supported: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.supported

    @classmethod
    def ok(cls) -> "BatchSupport":
        return cls(supported=True)

    @classmethod
    def refused(cls, reason: str) -> "BatchSupport":
        return cls(supported=False, reason=reason)


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one attack trial.

    Attributes
    ----------
    success:
        The device recognised the *intended* command.
    recognized_command:
        What the device actually heard (best match).
    accepted:
        Whether the recogniser accepted any command at all.
    distance:
        DTW distance of the best match.
    recording:
        The device-rate recording (kept for defense experiments;
        ``None`` when the engine ran with ``keep_recordings=False``
        so success-rate waves don't ship waveforms between
        processes).
    """

    success: bool
    recognized_command: str
    accepted: bool
    distance: float
    recording: Signal | None


@dataclass(frozen=True)
class TrialContext:
    """Trial-invariant inputs shared by every trial of a group.

    Built once per (emission, geometry) by the pipeline's precompute
    step: the deterministic arrived attack wave, and — when the scene
    has competing audio — the arrived interference bed. Every trial of
    the group reads these; only the per-trial draws differ.
    """

    clean_attack: Signal
    clean_interference: Signal | None = None


#: Scalar kernel: (context, value-in, per-trial generator) -> value-out.
ScalarKernel = Callable[
    [TrialContext, Any, "np.random.Generator | None"], Any
]
#: Batch kernel: (context, stacked value-in, per-trial generators) ->
#: stacked value-out. Must consume exactly the draws the scalar kernel
#: would, from the same generators, in row order.
BatchKernel = Callable[
    [TrialContext, Any, Sequence[np.random.Generator]], Any
]


@dataclass(frozen=True)
class Stage:
    """One named step of the trial chain.

    Attributes
    ----------
    name:
        Stable identifier (``"transmit"``, ``"ambient"``, ...); shown
        in refusal reasons and the pipeline diagram.
    scalar:
        The reference implementation, one trial at a time.
    batch:
        Optional vectorized implementation over a trial chunk;
        ``None`` means the whole pipeline must take the scalar path.
    support:
        Construction-time batch verdict. A builder that *has* a batch
        kernel but cannot prove it equivalent (subclassed hardware
        model) attaches the refusal here so the fold can report why.
    """

    name: str
    scalar: ScalarKernel
    batch: BatchKernel | None = None
    support: BatchSupport = field(default_factory=BatchSupport.ok)

    def batch_support(self) -> BatchSupport:
        """This stage's contribution to the pipeline-level fold."""
        if not self.support:
            return self.support
        if self.batch is None:
            return BatchSupport.refused(
                f"stage {self.name!r} declares no batch kernel"
            )
        return BatchSupport.ok()


class TrialPipeline:
    """An ordered stage list plus the mode-agnostic executor.

    The same ``stages`` tuple drives both execution modes:
    :meth:`run_scalar` folds each trial through every stage's scalar
    kernel; :meth:`run_trials` with ``batch=True`` folds bounded trial
    chunks through the batch kernels instead — falling back to the
    scalar walk automatically when :meth:`batch_support` refuses.
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        context_builder: (
            Callable[[list[PlacedSource]], TrialContext] | None
        ) = None,
        invariants: EmissionCache | None = None,
    ) -> None:
        stages = tuple(stages)
        if not stages:
            raise ExperimentError(
                "a TrialPipeline needs at least one stage"
            )
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ExperimentError(
                f"stage names must be unique, got {names}"
            )
        self.stages = stages
        self._context_builder = context_builder
        #: The bounded cache behind the trial-invariant precompute
        #: (transmitted interference beds, keyed by sample rate);
        #: exposed for cache-accounting tests. ``None`` for synthetic
        #: pipelines without a context builder.
        self.invariants = invariants

    # -- introspection ------------------------------------------------

    def stage_names(self) -> tuple[str, ...]:
        """The declared order, for diagrams and ordering tests."""
        return tuple(stage.name for stage in self.stages)

    def batch_support(self) -> BatchSupport:
        """Fold of the per-stage verdicts: first refusal wins."""
        for stage in self.stages:
            support = stage.batch_support()
            if not support:
                return support
        return BatchSupport.ok()

    # -- trial-invariant precompute -----------------------------------

    def context(self, sources: Sequence[PlacedSource]) -> TrialContext:
        """The trial-invariant precompute for one emission.

        Only available on pipelines built against a scenario (see
        :func:`build_pipeline`); synthetic pipelines construct their
        :class:`TrialContext` directly.
        """
        if self._context_builder is None:
            raise ExperimentError(
                "this pipeline has no context builder; construct a "
                "TrialContext directly"
            )
        return self._context_builder(list(sources))

    # -- execution ----------------------------------------------------

    def run_scalar(
        self, ctx: TrialContext, rng: np.random.Generator
    ) -> Any:
        """One trial through every stage's scalar kernel, in order.

        With a :mod:`repro.obs` tracer active, each stage call is
        recorded as a span tagged ``mode="scalar", trials=1``.
        """
        tracer = current_tracer()
        value: Any = None
        for stage in self.stages:
            started = time.perf_counter() if tracer is not None else 0.0
            value = stage.scalar(ctx, value, rng)
            if tracer is not None:
                tracer.record(
                    stage.name,
                    started,
                    time.perf_counter(),
                    mode="scalar",
                    trials=1,
                )
        return value

    def run_trials(
        self,
        ctx: TrialContext,
        rngs: Sequence[np.random.Generator],
        batch: bool = True,
        chunk_trials: int = CHUNK_TRIALS,
    ) -> list:
        """Every trial's final value, in generator order.

        With ``batch=True`` (and a fully batch-capable stage list) the
        generators stream through the batch kernels in bounded chunks;
        otherwise each runs the scalar walk. Outcomes are bitwise
        identical either way — the stage contract, checked by the
        differential suites.
        """
        rngs = list(rngs)
        if not rngs:
            raise ExperimentError(
                "run_trials needs >= 1 trial generator"
            )
        if chunk_trials < 1:
            raise ExperimentError(
                f"chunk_trials must be >= 1, got {chunk_trials}"
            )
        if not (batch and self.batch_support()):
            return [self.run_scalar(ctx, rng) for rng in rngs]
        out: list = []
        for start in range(0, len(rngs), chunk_trials):
            chunk = rngs[start : start + chunk_trials]
            out.extend(self._run_batch_chunk(ctx, chunk))
        return out

    def _run_batch_chunk(
        self, ctx: TrialContext, rngs: list[np.random.Generator]
    ) -> list:
        tracer = current_tracer()
        value: Any = None
        for stage in self.stages:
            started = time.perf_counter() if tracer is not None else 0.0
            value = stage.batch(ctx, value, rngs)
            if tracer is not None:
                tracer.record(
                    stage.name,
                    started,
                    time.perf_counter(),
                    mode="batch",
                    trials=len(rngs),
                )
        return _per_trial_values(value, len(rngs))


def _per_trial_values(value: Any, n_trials: int) -> list:
    """Normalise a batch chunk's final value to one entry per trial."""
    if isinstance(value, list):
        rows = value
    elif isinstance(value, SignalBatch):
        rows = [value.row(index) for index in range(value.n_signals)]
    elif isinstance(value, np.ndarray) and value.ndim == 2:
        rows = list(value)
    else:
        raise ExperimentError(
            "the final batch stage must produce a list, a SignalBatch "
            f"or a 2-D array, got {type(value).__qualname__}"
        )
    if len(rows) != n_trials:
        raise ExperimentError(
            f"final batch stage produced {len(rows)} rows for "
            f"{n_trials} trials"
        )
    return rows


# ----------------------------------------------------------------------
# Stage builders
# ----------------------------------------------------------------------

def transmit_stage(scenario: Scenario) -> Stage:
    """Inject the precomputed transmission into the trial flow.

    The expensive work — propagating the attack emission (direct wave
    plus any room reflections) and the interference bed to the victim
    — is trial-invariant and happens once per group in the pipeline's
    precompute step (:meth:`TrialPipeline.context`); this stage merely
    hands each trial the shared arrived waveform. Subclassed scenarios
    refuse the batched path here: their overridden channel/draw
    semantics are exactly what the stacked kernels would bypass.
    """
    support = BatchSupport.ok()
    if type(scenario) is not Scenario:
        support = BatchSupport.refused(
            f"scenario is a {type(scenario).__qualname__}, not the "
            "stock Scenario; its overridden semantics would be "
            "bypassed by the batched chain"
        )
    return Stage(
        name="transmit",
        scalar=lambda ctx, value, rng: ctx.clean_attack,
        batch=lambda ctx, value, rngs: ctx.clean_attack,
        support=support,
    )


def _gain_rows(
    value: Signal | SignalBatch, gains: Sequence[float | None]
) -> Signal | SignalBatch:
    """Apply per-trial amplitude gains, matching scalar math bitwise.

    ``None`` gains leave the shared waveform untouched (static
    scenarios never multiply); when any trial scales, the chunk is
    stacked with row ``i`` equal to the scalar trial's
    ``Signal.__mul__`` result.
    """
    if all(gain is None for gain in gains):
        return value
    if isinstance(value, Signal):
        rows = np.empty((len(gains), value.n_samples))
        for index, gain in enumerate(gains):
            rows[index] = (
                value.samples if gain is None else value.samples * gain
            )
        return SignalBatch.adopt(rows, value.sample_rate, value.unit)
    rows = np.empty_like(value.samples)
    for index, gain in enumerate(gains):
        rows[index] = (
            value.samples[index]
            if gain is None
            else value.samples[index] * gain
        )
    return SignalBatch.adopt(rows, value.sample_rate, value.unit)


def motion_stage(scenario: Scenario) -> Stage:
    """The walking attacker's per-trial geometry gain.

    Always present in the canonical stage list; for static scenarios
    :meth:`~repro.sim.scenario.Scenario.trial_gain` returns ``None``
    and — crucially — consumes no random draw, so the stage is free
    and stream-invisible exactly where the old scalar loop was.
    """

    def scalar(ctx, value, rng):
        gain = scenario.trial_gain(rng)
        return value if gain is None else value * gain

    def batch(ctx, value, rngs):
        # One draw per generator, in row order — exactly where each
        # scalar trial draws it.
        gains = [scenario.trial_gain(rng) for rng in rngs]
        return _gain_rows(value, gains)

    return Stage(name="motion-gain", scalar=scalar, batch=batch)


def level_stage(
    low_spl: float,
    high_spl: float,
    reference_spl: float,
    capture: list[float] | None = None,
) -> Stage:
    """A per-trial source-level draw, as an amplitude gain.

    The defense dataset's genuine talker speaks at a uniformly drawn
    SPL each trial. Because propagation is linear, the level is
    equivalent to a gain of ``10^((spl - reference)/20)`` on a
    transmission rendered once at ``reference_spl`` — the same
    mechanism as the walking attacker's motion gain, which is what
    lets labelled-recording synthesis share the batched path.
    ``capture`` (when given) receives each drawn SPL in trial order,
    for per-row metadata.
    """
    if not low_spl <= high_spl:
        raise ExperimentError(
            f"level range [{low_spl}, {high_spl}] is inverted"
        )
    reference_pressure = spl_to_pressure(reference_spl)

    def draw(rng: np.random.Generator) -> float:
        spl = float(rng.uniform(low_spl, high_spl))
        if capture is not None:
            capture.append(spl)
        return spl_to_pressure(spl) / reference_pressure

    def scalar(ctx, value, rng):
        return value * draw(rng)

    def batch(ctx, value, rngs):
        return _gain_rows(value, [draw(rng) for rng in rngs])

    return Stage(name="talker-level", scalar=scalar, batch=batch)


def interference_stage() -> Stage:
    """Sum the precomputed interference bed at the diaphragm.

    Scalar trials use :meth:`Signal.__add__` (zero-pad to the longer
    waveform, add); the batch kernel performs the identical
    pad-and-add on the stacked rows, so row ``i`` matches the scalar
    trial bitwise. A chunk that is still a shared waveform (static
    scenario) stays shared — the bed is trial-invariant too.
    """

    def scalar(ctx, value, rng):
        return value + ctx.clean_interference

    def batch(ctx, value, rngs):
        if isinstance(value, Signal):
            return value + ctx.clean_interference
        bed = ctx.clean_interference
        n_total = max(value.n_samples, bed.n_samples)
        padded = np.zeros((value.n_signals, n_total))
        padded[:, : value.n_samples] = value.samples
        bed_padded = np.zeros(n_total)
        bed_padded[: bed.n_samples] = bed.samples
        np.add(padded, bed_padded[np.newaxis, :], out=padded)
        return SignalBatch.adopt(padded, value.sample_rate, value.unit)

    return Stage(name="interference", scalar=scalar, batch=batch)


def ambient_stage(channel: AcousticChannel) -> Stage:
    """Add each trial's ambient-noise draw at the receiver."""
    return Stage(
        name="ambient",
        scalar=lambda ctx, value, rng: channel.add_ambient(value, rng),
        batch=lambda ctx, value, rngs: channel.ambient_batch(
            value, list(rngs)
        ),
    )


def record_stages(microphone: Microphone) -> list[Stage]:
    """The microphone chain as pipeline stages.

    For the stock :class:`~repro.hardware.microphone.Microphone` the
    chain splits into its two halves — ``microphone`` (front-end,
    nonlinearity, anti-alias, self-noise) and ``adc`` (resample, clip,
    quantise) — each with a scalar and a batch kernel. A subclassed
    microphone collapses to a single ``record`` stage that calls the
    (possibly overridden) :meth:`record` and refuses the batched path,
    so custom hardware models keep their semantics on the scalar walk.
    A subclassed nonlinearity keeps the split (both modes call its
    ``apply_array``) but refuses batching conservatively, as the old
    kernel did.
    """
    if type(microphone) is not Microphone:
        return [
            Stage(
                name="record",
                scalar=lambda ctx, value, rng: microphone.record(
                    value, rng
                ),
                support=BatchSupport.refused(
                    f"microphone is a "
                    f"{type(microphone).__qualname__}, not the stock "
                    "Microphone; its overridden record() would be "
                    "bypassed by the batched chain"
                ),
            )
        ]
    support = BatchSupport.ok()
    nonlinearity = microphone.config.nonlinearity
    if type(nonlinearity) is not PolynomialNonlinearity:
        support = BatchSupport.refused(
            "nonlinearity is a "
            f"{type(nonlinearity).__qualname__}, not the stock "
            "PolynomialNonlinearity; its overridden transfer would be "
            "bypassed by the batched chain"
        )
    return [
        Stage(
            name="microphone",
            scalar=lambda ctx, value, rng: microphone.record_analog(
                value, rng
            ),
            batch=lambda ctx, value, rngs: microphone.record_analog_batch(
                value, list(rngs)
            ),
            support=support,
        ),
        Stage(
            name="adc",
            scalar=lambda ctx, value, rng: microphone.digitize(value),
            batch=lambda ctx, value, rngs: microphone.digitize_batch(
                value
            ),
        ),
    ]


def recognize_stage(
    scenario: Scenario, device: VictimDevice, keep_recordings: bool = True
) -> Stage:
    """Run the recogniser and fold the verdict into a TrialOutcome.

    With ``keep_recordings=False`` the fold leaves ``recording`` as
    ``None``, so each chunk's device-rate stack is freed as soon as
    the chunk is recognised instead of living until the task ends.
    """

    def fold(result, recording: Signal) -> TrialOutcome:
        return TrialOutcome(
            success=result.accepted
            and result.command == scenario.command,
            recognized_command=result.command,
            accepted=result.accepted,
            distance=result.distance,
            recording=recording if keep_recordings else None,
        )

    def outcome(recording: Signal) -> TrialOutcome:
        return fold(device.recognizer.recognize(recording), recording)

    def batch(ctx, recordings: SignalBatch, rngs):
        rows = recordings.signals()
        if type(device.recognizer) is KeywordRecognizer:
            # The whole chunk scores through one stacked anti-diagonal
            # DTW sweep (bitwise identical to per-row recognize); a
            # subclassed recogniser keeps its overridden recognize()
            # on the per-row walk below.
            results = device.recognizer.recognize_batch(rows)
            return [
                fold(result, row) for result, row in zip(results, rows)
            ]
        return [outcome(row) for row in rows]

    return Stage(
        name="recognize",
        scalar=lambda ctx, value, rng: outcome(value),
        batch=batch,
    )


# ----------------------------------------------------------------------
# The canonical pipelines
# ----------------------------------------------------------------------

def build_pipeline(
    scenario: Scenario,
    device: VictimDevice | Microphone,
    recognize: bool = True,
    gain_stage: Stage | None = None,
    invariants: EmissionCache | None = None,
    keep_recordings: bool = True,
) -> TrialPipeline:
    """Assemble the trial pipeline for a (scenario, device) pair.

    This is the *single* statement of the per-trial stage order; the
    scalar runner, the batched kernel and the engine worker all
    execute the list it returns.

    Parameters
    ----------
    scenario:
        The physical setup; supplies the channel, the motion model and
        the interference bed.
    device:
        A :class:`~repro.sim.scenario.VictimDevice` (microphone +
        recogniser), or a bare
        :class:`~repro.hardware.microphone.Microphone` for
        recording-only pipelines (``recognize`` must then be False).
    recognize:
        Whether the pipeline ends in recognition (attack trials) or at
        the ADC (defense dataset synthesis wants raw recordings).
    gain_stage:
        Optional extra per-trial gain inserted after ``transmit`` —
        the defense dataset's talker-level draw
        (:func:`level_stage`). Its draw happens *before* the motion
        gain's, a fixed order both execution modes share.
    invariants:
        Optional shared :class:`~repro.sim.cache.EmissionCache` for
        the trial-invariant precompute. Passing one cache to several
        pipelines (the defense dataset builds one per cell) lets them
        share transmitted interference beds — the cache key carries
        the bed's full physical identity (sources, geometry, weather,
        rate), so sharing is always safe. ``None`` gives the pipeline
        a private bounded cache.
    keep_recordings:
        Whether each :class:`TrialOutcome` carries its device-rate
        recording. ``False`` drops it inside the recognise stage, one
        trial chunk at a time.
    """
    if isinstance(device, Microphone):
        if recognize:
            raise ExperimentError(
                "a bare Microphone cannot recognise; pass a "
                "VictimDevice or recognize=False"
            )
        microphone = device
    else:
        microphone = device.microphone
        if (
            recognize
            and scenario.command not in device.recognizer.commands
        ):
            raise ExperimentError(
                f"device {device.name!r} has no template for command "
                f"{scenario.command!r}; enrolled: "
                f"{device.recognizer.commands}"
            )
    channel = scenario.channel()
    stages: list[Stage] = [transmit_stage(scenario)]
    if gain_stage is not None:
        stages.append(gain_stage)
    stages.append(motion_stage(scenario))
    if scenario.interference:
        stages.append(interference_stage())
    stages.append(ambient_stage(channel))
    stages.extend(record_stages(microphone))
    if recognize:
        stages.append(
            recognize_stage(scenario, device, keep_recordings)
        )
    if invariants is None:
        invariants = EmissionCache(max_entries=_INVARIANT_CACHE_ENTRIES)

    def context(sources: list[PlacedSource]) -> TrialContext:
        if not sources:
            raise ExperimentError(
                "run_trial needs at least one source"
            )
        clean_attack = channel.transmit(
            sources, scenario.victim_position
        )
        clean_interference = None
        if scenario.interference:
            rate = clean_attack.sample_rate
            # The bed is deterministic and trial-invariant; transmit
            # it once per physical identity, bounded, instead of once
            # per trial (or unboundedly per rate, as the old runner
            # dict did). The key carries everything the arrived bed
            # depends on, so a cache shared across pipelines (dataset
            # cells differing only in command or class) never
            # collides and never re-transmits.
            clean_interference = invariants.get_or_compute(
                stable_key(
                    "interference-bed",
                    scenario.interference,
                    scenario.victim_position,
                    scenario.room,
                    scenario.conditions,
                    rate,
                ),
                lambda: channel.transmit(
                    scenario.interference_sources(rate),
                    scenario.victim_position,
                ),
            )
        return TrialContext(clean_attack, clean_interference)

    return TrialPipeline(
        stages,
        context_builder=context,
        invariants=invariants,
    )
