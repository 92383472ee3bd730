"""Parameter sweeps built on the experiment engine.

All sweeps reuse one emission across trial repetitions and distances —
the attack waveform does not depend on where the victim stands — which
keeps multi-point sweeps tractable.

These functions are thin wrappers over
:class:`repro.sim.engine.ExperimentEngine`: pass ``engine=`` to fan
trials out over a worker pool, or leave it unset for the serial
degenerate case. Either way, per-trial random streams are spawned from
``rng`` (``SeedSequence.spawn``) in a fixed order, so results are
identical for every ``jobs`` value.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.acoustics.channel import PlacedSource
from repro.errors import ExperimentError
from repro.sim.engine import EmissionSpec, ExperimentEngine, TrialGroup
from repro.sim.scenario import Scenario, VictimDevice
from repro.sim.spec import get_scenario


def _engine(engine: ExperimentEngine | None) -> ExperimentEngine:
    return engine if engine is not None else ExperimentEngine(jobs=1)


def success_rate(
    scenario: Scenario,
    device: VictimDevice,
    sources: list[PlacedSource] | EmissionSpec,
    n_trials: int,
    rng: np.random.Generator,
    engine: ExperimentEngine | None = None,
) -> float:
    """Fraction of successful trials for fixed emissions."""
    return _engine(engine).success_rate(
        scenario, device, sources, n_trials, rng
    )


def accuracy_over_distances(
    scenario: Scenario,
    device: VictimDevice,
    sources: list[PlacedSource] | EmissionSpec,
    distances_m: list[float],
    n_trials: int,
    rng: np.random.Generator,
    engine: ExperimentEngine | None = None,
) -> list[tuple[float, float]]:
    """Success rate at each distance, reusing one emission.

    Returns ``[(distance, success_rate), ...]`` in the given order.
    """
    return _engine(engine).accuracy_over_distances(
        scenario, device, sources, distances_m, n_trials, rng
    )


def attack_range_m(
    scenario: Scenario,
    device: VictimDevice,
    sources: list[PlacedSource] | EmissionSpec,
    rng: np.random.Generator,
    n_trials: int = 3,
    success_threshold: float = 0.5,
    max_distance_m: float = 16.0,
    resolution_m: float = 0.25,
    engine: ExperimentEngine | None = None,
) -> float:
    """Furthest distance at which the attack still succeeds.

    Powerful arrays have a *minimum* working distance as well as a
    maximum: point blank, the summed ultrasonic pressure overloads the
    microphone's ADC and the clipped recording is unrecognisable. The
    search (see :func:`repro.sim.engine.attack_range_search`) probes a
    ladder of starting distances, doubles outward to bracket the far
    edge, then bisects down to ``resolution_m`` — and never measures
    the same distance twice. Returns 0.0 when no starting probe works
    and ``max_distance_m`` when the attack never fails within range.
    """
    return _engine(engine).attack_range_m(
        scenario,
        device,
        sources,
        rng,
        n_trials=n_trials,
        success_threshold=success_threshold,
        max_distance_m=max_distance_m,
        resolution_m=resolution_m,
    )


def success_rate_by_scenario(
    scenario_names: Sequence[str],
    command: str,
    device: VictimDevice,
    sources: list[PlacedSource] | EmissionSpec,
    n_trials: int,
    rng: np.random.Generator,
    distance_m: float | None = None,
    engine: ExperimentEngine | None = None,
) -> list[tuple[str, float]]:
    """One attack, swept across registered environments.

    The environment axis of the experiments × environments grid:
    every named scenario (resolved through the
    :mod:`repro.sim.spec` registry) becomes one trial group, all
    submitted to the engine as a single wave so environments fan out
    over the pool exactly like distances do. ``distance_m=None``
    keeps each scenario's own default distance; a float pins the
    geometry so only the environment varies — and is therefore
    *refused* (not silently clamped) by any scenario whose room
    cannot host it, so every returned rate really was measured at the
    same distance.

    Returns ``[(scenario_name, success_rate), ...]`` in input order.
    """
    if not scenario_names:
        raise ExperimentError("scenario_names must not be empty")
    groups = []
    for name in scenario_names:
        spec = get_scenario(name)
        if distance_m is not None:
            limit = spec.max_distance_m(distance_m)
            if distance_m > limit:
                raise ExperimentError(
                    f"distance {distance_m} m does not fit scenario "
                    f"{name!r} (limit {limit:.2f} m); drop the "
                    "scenario or pin a smaller distance"
                )
        groups.append(
            TrialGroup(
                spec.build(command, distance_m=distance_m),
                device,
                sources,
                n_trials,
            )
        )
    rates = _engine(engine).success_rates(groups, rng)
    return list(zip(scenario_names, rates))
