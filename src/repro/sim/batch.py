"""Vectorized batch trial execution: the batched driver.

The heavy lifting lives in :mod:`repro.sim.pipeline`: the declarative
:class:`~repro.sim.pipeline.TrialPipeline` carries both a scalar and a
batch kernel per stage, and one executor walks the same stage list in
either mode — so batch-vs-scalar bitwise identity holds by
construction rather than by a comment-enforced draw-order contract.
This module keeps the kernel-facing entry points:

* :func:`supports_batch` — whether a trial group may take the batched
  path, as the fold of its pipeline's per-stage
  :class:`~repro.sim.pipeline.BatchSupport` verdicts (a falsy result
  carries the structured refusal reason);
* :func:`run_group_batch` — execute one group's trials through the
  pipeline's batched executor (one trial-invariant transmission per
  group, stacked ``(n_trials, n_samples)`` stages, bounded chunks),
  refusing loudly when equivalence cannot be proven.

Per-trial random draws come from the *same* SeedSequence-spawned
generators, in the same order (motion gain, then ambient noise, then
microphone self-noise), as the scalar path — per-stage, per-generator,
because both modes run the same stages. The golden-trace suite
(``tests/golden/``) and the scenario-differential tests pin this down
for every registered environment.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ExperimentError
from repro.sim.pipeline import (
    CHUNK_TRIALS,
    BatchSupport,
    TrialOutcome,
    build_pipeline,
)

__all__ = [
    "BatchSupport",
    "run_group_batch",
    "supports_batch",
]

#: Back-compat alias; the chunk bound now lives with the executor.
_CHUNK_TRIALS = CHUNK_TRIALS


def supports_batch(group) -> BatchSupport:
    """Whether the batched executor is provably equivalent for a group.

    The fold of the group's pipeline stages: every stage must declare
    a batch kernel and pass its construction-time check. Subclassed
    microphones, nonlinearities and scenarios refuse — their
    overridden behaviour is exactly what the stacked kernels would
    silently bypass — while room, interference, walking-attacker and
    weather scenarios are all accepted (their stages batch natively).

    Returns a :class:`BatchSupport`; a falsy result carries the
    refusal reason instead of silently returning ``False``.

    The verdict is about *batchability only*, not runnability: it
    folds over the recording stages (the recognize stage always
    batches), so a device that has not enrolled the scenario's command
    still gets a verdict here and is rejected later, by pipeline
    construction, exactly as the scalar path rejects it.
    """
    pipeline = build_pipeline(
        group.scenario, group.device.microphone, recognize=False
    )
    return pipeline.batch_support()


def run_group_batch(
    group,
    rngs: Sequence[np.random.Generator],
    keep_recordings: bool = True,
) -> list[TrialOutcome]:
    """Execute one trial group's trials as stacked batches.

    Parameters
    ----------
    group:
        A :class:`repro.sim.engine.TrialGroup` (scenario, device,
        emission, n_trials).
    rngs:
        One spawned generator per trial, in trial order — the same
        generators the scalar path would consume. Outcomes are
        bitwise identical to the scalar pipeline because both modes
        execute the same stage list.
    keep_recordings:
        When ``False`` each outcome's ``recording`` is ``None``
        (matching the engine's IPC-saving convention).

    Returns
    -------
    list[TrialOutcome]
        One outcome per generator, in order.
    """
    rngs = list(rngs)
    if not rngs:
        raise ExperimentError("run_group_batch needs >= 1 trial generator")
    pipeline = build_pipeline(
        group.scenario, group.device, keep_recordings=keep_recordings
    )
    support = pipeline.batch_support()
    if not support:
        raise ExperimentError(
            "run_group_batch cannot prove equivalence for this group: "
            f"{support.reason}; run it through ExperimentEngine, which "
            "falls back to the scalar path automatically"
        )
    ctx = pipeline.context(group.resolve_sources())
    return pipeline.run_trials(ctx, rngs, batch=True)
