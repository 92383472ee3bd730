"""The per-trial reference and the bitwise-comparison helpers.

:func:`reference_trials` is the end-to-end oracle for the trial
pipeline: one attack trial per generator, written with the public
one-signal primitives only (``channel.transmit``,
``scenario.trial_gain``, the interference add, ``channel.add_ambient``,
``microphone.record``, ``recognizer.recognize``) and none of the
pipeline's stacked kernels. The scenario suite
(``tests/sim/test_scenarios.py``), the generated-environment fuzz
suite (``tests/sim/test_fuzz.py``) and the pipeline and engine suites
compare the pipeline against it; ``benchmarks/bench_pipeline.py``
times it as the per-trial baseline.

Those suites compare lists of
:class:`~repro.sim.pipeline.TrialOutcome`. One definition of
"identical" — fields *and* recorded waveforms, byte for byte — keeps
the oracle itself from drifting between files. The streaming suites
compare guard verdicts against the offline guard the same way
(:func:`assert_guarded_bitwise`). Import them like the strategies
module (``tests/`` is on ``sys.path``)::

    from differential import outcomes_identical, reference_trials
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.sim.pipeline import TrialOutcome


def reference_recordings(
    scenario,
    microphone,
    sources: Sequence,
    rngs: Sequence[np.random.Generator],
    level: Callable[[np.random.Generator], float] | None = None,
) -> list:
    """One device recording per generator, one trial at a time.

    The arrived attack wave (and the interference bed, if the scene
    has one) is transmitted once; each trial then draws, from its own
    generator and in this order, the optional source ``level`` gain,
    the motion gain, the ambient noise and the microphone self-noise.
    Passing one generator several times draws those trials from it in
    sequence.
    """
    channel = scenario.channel()
    clean = channel.transmit(list(sources), scenario.victim_position)
    bed = None
    if scenario.interference:
        bed = channel.transmit(
            scenario.interference_sources(clean.sample_rate),
            scenario.victim_position,
        )
    recordings = []
    for rng in rngs:
        wave = clean
        if level is not None:
            wave = wave * level(rng)
        gain = scenario.trial_gain(rng)
        if gain is not None:
            wave = wave * gain
        if bed is not None:
            wave = wave + bed
        received = channel.add_ambient(wave, rng)
        recordings.append(microphone.record(received, rng))
    return recordings


def reference_trials(
    scenario, device, sources: Sequence, rngs: Sequence[np.random.Generator]
) -> list[TrialOutcome]:
    """One attack trial per generator: record, then recognise alone."""
    outcomes = []
    for recording in reference_recordings(
        scenario, device.microphone, sources, rngs
    ):
        result = device.recognizer.recognize(recording)
        outcomes.append(
            TrialOutcome(
                success=result.accepted
                and result.command == scenario.command,
                recognized_command=result.command,
                accepted=result.accepted,
                distance=result.distance,
                recording=recording,
            )
        )
    return outcomes


def outcomes_identical(a, b, compare_recordings: bool = True) -> bool:
    """Whether two trial-outcome sequences agree bitwise.

    Compares success, recognized command, acceptance and DTW distance
    per trial; with ``compare_recordings`` (the default) the recorded
    waveforms must also match sample for sample.
    """
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (
            x.success != y.success
            or x.recognized_command != y.recognized_command
            or x.accepted != y.accepted
            or x.distance != y.distance
        ):
            return False
        if compare_recordings:
            if (x.recording is None) != (y.recording is None):
                return False
            if x.recording is not None and not np.array_equal(
                x.recording.samples, y.recording.samples
            ):
                return False
    return True


def assert_guarded_bitwise(online, offline) -> None:
    """Assert two :class:`~repro.defense.guard.GuardedOutcome` agree
    bitwise: disposition, recognition (incl. every template distance)
    and, when the detector ran, its score, verdict and features."""
    assert online.executed_command == offline.executed_command
    assert online.vetoed == offline.vetoed
    assert online.recognition.accepted == offline.recognition.accepted
    assert online.recognition.command == offline.recognition.command
    assert online.recognition.distance == offline.recognition.distance
    assert online.recognition.distances == offline.recognition.distances
    assert (online.detection is None) == (offline.detection is None)
    if online.detection is not None:
        assert online.detection.score == offline.detection.score
        assert online.detection.is_attack == offline.detection.is_attack
        assert np.array_equal(
            online.detection.features, offline.detection.features
        )
