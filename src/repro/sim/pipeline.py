"""The declarative trial pipeline: one stage list, one executor.

The per-trial attack chain is *data*: a :class:`TrialPipeline` is an
ordered list of named :class:`Stage` objects

    transmit -> motion-gain -> [interference] -> ambient ->
    microphone -> adc -> recognize

and each stage carries one kernel over a chunk of trials (stacked
``(n_trials, n_samples)`` values, one generator per row). The executor
folds bounded chunks of the trial generators through that list.
Repeating one fixed emission many times, as the paper does, is a
chunk of up to :data:`CHUNK_TRIALS` trials; the per-trial mode is a
chunk of one, through the same kernels.

Per-stage random draws are the determinism discipline: a kernel
draws from generator ``i`` for row ``i``, in row order, exactly the
draws one trial alone would make (motion gains are drawn
one-per-generator before the stacked multiply; ambient and self-noise
draw row by row). Outcomes therefore do not depend on the chunk size;
the property-based suite checks the executor preserves that for
arbitrary stage lists, and the primitive tests pin every stacked
kernel row against its one-signal counterpart.

A subclassed model keeps its semantics through a per-row adapter: a
non-stock microphone, nonlinearity or recogniser, or a non-stock
channel from a subclassed
:meth:`~repro.sim.scenario.Scenario.channel`, gets a stage that maps
the overridden per-trial method over the chunk's rows, each row with
its own generator, instead of the stacked kernel that would bypass
it.

:func:`build_pipeline` assembles the canonical attack pipeline for a
(scenario, device) pair. The defense's dataset synthesis composes its
own variant — the same stages minus recognition, plus a per-trial
talker-level gain — through the same builders.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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

#: Trials stacked per executor pass. Sixteen acoustic-rate rows keep
#: every intermediate in the low tens of MB — large enough that a
#: 10-trial dataset cell or a 50-trial sweep group pays the per-chunk
#: fixed costs (filter design, zero-phase initial conditions, batch
#: construction) a handful of times rather than per-trial, small
#: enough that the filter chain's temporaries stay within memory
#: bounds. Row-at-a-time filtering keeps the hot DSP cache-resident
#: regardless of the stack height.
CHUNK_TRIALS = 16

#: Transmitted interference beds retained per invariants cache. Real
#: runs see a handful of (geometry, sample rate) combinations; the
#: bound exists so a sweeping caller cannot grow the precompute cache
#: without limit (the unbounded dict this replaces).
_INVARIANT_CACHE_ENTRIES = 8


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


#: Stage kernel: (context, value-in for the chunk, one generator per
#: trial) -> value-out for the chunk. Row ``i`` must consume exactly
#: the draws trial ``i`` alone would, from ``rngs[i]``.
Kernel = Callable[[TrialContext, Any, Sequence[np.random.Generator]], Any]


@dataclass(frozen=True)
class Stage:
    """One named step of the trial chain.

    Attributes
    ----------
    name:
        Stable identifier (``"transmit"``, ``"ambient"``, ...); shown
        in the pipeline diagram and the stage spans.
    kernel:
        The step over a chunk of trials.
    """

    name: str
    kernel: Kernel


class TrialPipeline:
    """An ordered stage list plus its executor."""

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

    def run_trials(
        self,
        ctx: TrialContext,
        rngs: Sequence[np.random.Generator],
        chunk_trials: int = CHUNK_TRIALS,
    ) -> list:
        """Every trial's final value, in generator order.

        The generators stream through the stage kernels in chunks of
        at most ``chunk_trials``; ``chunk_trials=1`` runs one trial
        per pass. Outcomes are bitwise identical for every chunk size.
        With a :mod:`repro.obs` tracer active, each stage call is
        recorded as a span tagged ``mode="batch"`` and the chunk's
        ``trials``.
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
        out: list = []
        for start in range(0, len(rngs), chunk_trials):
            chunk = rngs[start : start + chunk_trials]
            out.extend(self._run_chunk(ctx, chunk))
        return out

    def _run_chunk(
        self, ctx: TrialContext, rngs: list[np.random.Generator]
    ) -> list:
        tracer = current_tracer()
        value: Any = None
        for stage in self.stages:
            started = time.perf_counter() if tracer is not None else 0.0
            value = stage.kernel(ctx, value, rngs)
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
    """Normalise a chunk's final value to one entry per trial."""
    if isinstance(value, list):
        rows = value
    elif isinstance(value, SignalBatch):
        rows = [value.row(index) for index in range(value.n_signals)]
    elif isinstance(value, np.ndarray) and value.ndim == 2:
        rows = list(value)
    else:
        raise ExperimentError(
            "the final stage must produce a list, a SignalBatch "
            f"or a 2-D array, got {type(value).__qualname__}"
        )
    if len(rows) != n_trials:
        raise ExperimentError(
            f"final stage produced {len(rows)} rows for "
            f"{n_trials} trials"
        )
    return rows


def _map_rows(
    method: Callable[[Signal, np.random.Generator], Any],
    value: Signal | SignalBatch,
    rngs: Sequence[np.random.Generator],
) -> list:
    """The per-row adapter: ``method(row, rng)`` for each trial.

    Row ``i`` of the chunk (or the shared waveform, while the chunk is
    still one trial-invariant signal) goes through ``method`` with
    ``rngs[i]``, in row order — the call one trial alone makes. Stages
    use it where a subclassed model's overridden per-trial method
    would be bypassed by a stacked kernel.
    """
    if isinstance(value, SignalBatch):
        rows = value.signals()
    else:
        rows = [value] * len(rngs)
    return [method(row, rng) for row, rng in zip(rows, rngs)]


# ----------------------------------------------------------------------
# Stage builders
# ----------------------------------------------------------------------

def transmit_stage() -> Stage:
    """Inject the precomputed transmission into the trial flow.

    The expensive work — propagating the attack emission (direct wave
    plus any room reflections) and the interference bed to the victim
    — is trial-invariant and happens once per group in the pipeline's
    precompute step (:meth:`TrialPipeline.context`); this stage merely
    hands the chunk the shared arrived waveform.
    """
    return Stage("transmit", lambda ctx, value, rngs: ctx.clean_attack)


def _gain_rows(
    value: Signal | SignalBatch, gains: Sequence[float | None]
) -> Signal | SignalBatch:
    """Apply per-trial amplitude gains, row by row.

    ``None`` gains leave the shared waveform untouched (static
    scenarios never multiply); when any trial scales, the chunk is
    stacked with row ``i`` equal to that trial's ``Signal.__mul__``
    result.
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
    and stream-invisible.
    """

    def kernel(ctx, value, rngs):
        # One draw per generator, in row order, before the stacked
        # multiply.
        gains = [scenario.trial_gain(rng) for rng in rngs]
        return _gain_rows(value, gains)

    return Stage("motion-gain", kernel)


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
    mechanism as the walking attacker's motion gain.
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

    def kernel(ctx, value, rngs):
        return _gain_rows(value, [draw(rng) for rng in rngs])

    return Stage("talker-level", kernel)


def interference_stage() -> Stage:
    """Sum the precomputed interference bed at the diaphragm.

    The same zero-pad-to-the-longer-waveform add as
    :meth:`Signal.__add__`, on every stacked row. A chunk that is
    still a shared waveform (static scenario) stays shared — the bed
    is trial-invariant too.
    """

    def kernel(ctx, value, rngs):
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

    return Stage("interference", kernel)


def ambient_stage(channel: AcousticChannel) -> Stage:
    """Add each trial's ambient-noise draw at the receiver.

    The stock channel stacks the draws (:meth:`AcousticChannel.ambient_batch`);
    a subclassed channel gets its overridden
    :meth:`~AcousticChannel.add_ambient` once per row.
    """
    if type(channel) is AcousticChannel:
        return Stage(
            "ambient",
            lambda ctx, value, rngs: channel.ambient_batch(
                value, list(rngs)
            ),
        )
    return Stage(
        "ambient",
        lambda ctx, value, rngs: SignalBatch.from_signals(
            _map_rows(channel.add_ambient, value, rngs)
        ),
    )


def record_stages(microphone: Microphone) -> list[Stage]:
    """The microphone chain as pipeline stages.

    For the stock :class:`~repro.hardware.microphone.Microphone` with
    the stock nonlinearity the chain splits into its two halves —
    ``microphone`` (front-end, nonlinearity, anti-alias, self-noise)
    and ``adc`` (resample, clip, quantise) — each a stacked kernel.
    A subclassed microphone or nonlinearity collapses to a single
    ``record`` stage that calls the (possibly overridden)
    :meth:`~repro.hardware.microphone.Microphone.record` once per row.
    """
    if (
        type(microphone) is not Microphone
        or type(microphone.config.nonlinearity)
        is not PolynomialNonlinearity
    ):
        return [
            Stage(
                "record",
                lambda ctx, value, rngs: SignalBatch.from_signals(
                    _map_rows(microphone.record, value, rngs)
                ),
            )
        ]
    return [
        Stage(
            "microphone",
            lambda ctx, value, rngs: microphone.record_analog_batch(
                value, list(rngs)
            ),
        ),
        Stage(
            "adc",
            lambda ctx, value, rngs: microphone.digitize_batch(value),
        ),
    ]


def recognize_stage(
    scenario: Scenario, device: VictimDevice, keep_recordings: bool = True
) -> Stage:
    """Run the recogniser and fold the verdict into a TrialOutcome.

    The stock recogniser scores the whole chunk through one stacked
    anti-diagonal DTW sweep; a subclassed one gets its overridden
    :meth:`~repro.speech.recognizer.KeywordRecognizer.recognize` once
    per row. With ``keep_recordings=False`` the fold leaves
    ``recording`` as ``None``, so each chunk's device-rate stack is
    freed as soon as the chunk is recognised instead of living until
    the task ends.
    """
    recognizer = device.recognizer

    def fold(result, recording: Signal) -> TrialOutcome:
        return TrialOutcome(
            success=result.accepted
            and result.command == scenario.command,
            recognized_command=result.command,
            accepted=result.accepted,
            distance=result.distance,
            recording=recording if keep_recordings else None,
        )

    def kernel(ctx, recordings: SignalBatch, rngs):
        if type(recognizer) is not KeywordRecognizer:
            return _map_rows(
                lambda row, rng: fold(recognizer.recognize(row), row),
                recordings,
                rngs,
            )
        rows = recordings.signals()
        results = recognizer.recognize_batch(rows)
        return [fold(result, row) for result, row in zip(results, rows)]

    return Stage("recognize", kernel)


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
    engine worker and the defense dataset build both execute the list
    it returns.

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
        gain's.
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
    stages: list[Stage] = [transmit_stage()]
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
            # per trial. The key carries everything the arrived bed
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
