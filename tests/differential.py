"""Shared bitwise-comparison helpers for the differential oracles.

The batch-vs-scalar suite (``tests/sim/test_scenarios.py``), the
experiment equivalence suite and the generated-environment fuzz suite
(``tests/sim/test_fuzz.py``) all compare lists of
:class:`~repro.sim.runner.TrialOutcome`. One definition of
"identical" — fields *and* recorded waveforms, byte for byte — keeps
the oracle itself from drifting between files. The streaming suites
compare guard verdicts against the offline guard the same way
(:func:`assert_guarded_bitwise`). Import them like the strategies
module (``tests/`` is on ``sys.path``)::

    from differential import outcomes_identical
"""

from __future__ import annotations

import numpy as np


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
