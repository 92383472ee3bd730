"""Benchmark the trial pipeline against the per-trial reference.

Three workloads, each timed three ways and verified to agree bitwise
before any timing is reported:

* the **per-trial reference** (:func:`differential.reference_trials`
  from ``tests/``): one trial at a time through the public one-signal
  primitives — ``add_ambient``, ``Microphone.record``,
  ``KeywordRecognizer.recognize`` — with the transmission computed
  once, as the pipeline does;
* the pipeline with ``chunk_trials=1`` (the engine's ``batch=False``,
  CLI ``--no-batch``): a diagnostic column, not gated;
* the pipeline at its default chunk size (the engine's default).

Workloads:

* **T2-class trial groups** — the 32-speaker split-array success-rate
  cell in the free field, executed through ``ExperimentEngine``.
  Recognition-inclusive, so the batched DTW kernel and per-chunk
  filter-design amortisation both count. Gated: the pipeline must be
  >= 1.5x the per-trial reference in full mode.
* **walking-attacker trial groups** — the same cell under the mobile
  attacker, adding the per-trial motion-gain stage. Gated at the same
  1.5x floor.
* **defense dataset build** — ``build_dataset`` for an F8-class
  config against the same recordings made one trial at a time and
  featurised one recording at a time. This workload is
  *parity-bound*: ~two thirds of its wall clock is zero-phase
  filtering and per-trial noise draws that both sides execute
  identically, so its honest ceiling is well below 1.5x (see the
  profile breakdown in EXPERIMENTS.md). It is reported as a
  diagnostic row with a regression tripwire, not a vectorization
  gate.

The results — plus a per-stage wall-time breakdown, reduced by
:func:`repro.obs.report.stage_rows` from the stage spans of one extra
traced pass (the timed passes run untraced) — are written to
``BENCH_pipeline.json`` so CI records the perf trajectory
run over run. Memory rides along: ``peak_rss_mb`` (``ru_maxrss`` of
the whole run) and ``context_peak_mb``, the traced allocation peak of
one T2-cell :meth:`~repro.sim.pipeline.TrialPipeline.context` (the
32-speaker transmit), which stays a few waveforms whatever the
speaker count::

    python benchmarks/bench_pipeline.py --quick    # CI smoke
    python benchmarks/bench_pipeline.py            # gated paper numbers
    python benchmarks/bench_pipeline.py --output /tmp/bench.json

Exits non-zero if any two of the three disagree or any workload falls
below its gate. Quick mode shrinks the workloads until fixed costs
dominate, so its trial-group gates are regression tripwires (1.0x)
rather than the full-mode 1.5x floor — CI runs the *full* bench for
the vectorization gate.
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.acoustics.spl import spl_to_pressure
from repro.attack.baselines import AudiblePlaybackAttacker
from repro.defense import dataset as dataset_module
from repro.defense.dataset import (
    GENUINE_REFERENCE_SPL,
    DatasetConfig,
    build_dataset,
)
from repro.defense.features import FEATURE_NAMES, feature_vector
from repro.experiments._emissions import array_split
from repro.sim.bench import peak_rss_mb, write_bench_record
from repro.sim.engine import EmissionSpec, ExperimentEngine, TrialGroup
from repro.obs.report import render_stage_rows, stage_rows
from repro.obs.trace import Tracer, activate
from repro.sim.pipeline import build_pipeline
from repro.sim.results import ResultTable
from repro.sim.spec import RIG_POSITION, get_scenario
from repro.sim.scenario import VictimDevice
from repro.speech.commands import synthesize_command

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from differential import (  # noqa: E402
    reference_recordings,
    reference_trials,
)


def _trial_group(scenario_name: str, seed: int, n_trials: int) -> TrialGroup:
    scenario = get_scenario(scenario_name).build("ok_google", 3.0)
    return TrialGroup(
        scenario,
        VictimDevice.phone(seed=seed + 1),
        EmissionSpec(array_split, ("ok_google", seed, 32)),
        n_trials,
    )


def _row(
    workload: str,
    timings: dict[str, float],
    identical: bool,
    min_speedup: float,
    parity_bound: bool,
) -> dict:
    return {
        "workload": workload,
        "reference_s": timings["reference"],
        "chunk1_s": timings["chunk1"],
        "batch_s": timings["batch"],
        "speedup": timings["reference"] / timings["batch"],
        "identical": identical,
        "min_speedup": min_speedup,
        "parity_bound": parity_bound,
    }


def bench_trial_group(
    label: str,
    scenario_name: str,
    quick: bool,
    seed: int,
    min_speedup: float,
) -> dict:
    """Reference vs chunk-1 vs default-chunk timing for one trial group."""
    n_trials = 10 if quick else 50
    group = _trial_group(scenario_name, seed, n_trials)
    group.resolve_sources()  # warm the emission cache for every run
    timings = {}
    outcomes = {}
    started = time.perf_counter()
    # The engine's streams for a one-group wave: one child per group,
    # then one grandchild per trial.
    (group_rng,) = np.random.default_rng(seed).spawn(1)
    outcomes["reference"] = reference_trials(
        group.scenario,
        group.device,
        group.resolve_sources(),
        group_rng.spawn(n_trials),
    )
    timings["reference"] = time.perf_counter() - started
    for label_key, batch in (("chunk1", False), ("batch", True)):
        engine = ExperimentEngine(jobs=1, batch=batch)
        started = time.perf_counter()
        outcomes[label_key] = engine.run_trial_groups(
            [group], np.random.default_rng(seed), keep_recordings=False
        )[0]
        timings[label_key] = time.perf_counter() - started
    reference = outcomes["reference"]
    agree = all(
        len(outcomes[key]) == len(reference)
        and all(
            x.success == y.success and x.distance == y.distance
            for x, y in zip(reference, outcomes[key])
        )
        for key in ("chunk1", "batch")
    )
    return _row(
        f"{label} ({n_trials} trials)", timings, agree, min_speedup, False
    )


def reference_dataset_features(config: DatasetConfig) -> np.ndarray:
    """``build_dataset``'s feature matrix, one trial at a time.

    The same cells in the same draw order — per command a voice from
    the master generator, then per distance one genuine and one
    attack cell of ``n_trials`` spawned generators — recorded through
    :func:`differential.reference_recordings` and featurised one
    recording at a time with :func:`~repro.defense.features.feature_vector`.
    """
    spec = config.resolve_scenario()
    distances = spec.clamp_distances(config.distances_m)
    rng = np.random.default_rng(config.seed)
    microphone = dataset_module._microphone(config.device)
    attacker = dataset_module._build_attacker(config, RIG_POSITION)
    low_spl, high_spl = config.speech_spl_range
    reference_pressure = spl_to_pressure(GENUINE_REFERENCE_SPL)
    names = config.feature_subset or FEATURE_NAMES

    def level(trial_rng: np.random.Generator) -> float:
        spl = float(trial_rng.uniform(low_spl, high_spl))
        return spl_to_pressure(spl) / reference_pressure

    rows = []
    for command in config.commands:
        voice = synthesize_command(command, rng)
        attack_sources = attacker.emit(voice).sources
        genuine_sources = AudiblePlaybackAttacker(
            RIG_POSITION, speech_spl_at_1m=GENUINE_REFERENCE_SPL
        ).emit(voice).sources
        for distance in distances:
            scenario = dataset_module._cell_scenario(
                spec, config, command, distance
            )
            for sources, gain in (
                (genuine_sources, level),
                (attack_sources, None),
            ):
                for recording in reference_recordings(
                    scenario,
                    microphone,
                    sources,
                    rng.spawn(config.n_trials),
                    level=gain,
                ):
                    rows.append(feature_vector(recording, subset=names))
    return np.stack(rows)


def bench_dataset_build(
    quick: bool, seed: int, min_speedup: float
) -> dict:
    """Reference vs chunk-1 vs default-chunk timing for a dataset build.

    Diagnostic row: the build is dominated by bitwise-parity DSP (the
    zero-phase device filters and per-trial noise draws run
    identically on every side), so near-parity is the expectation and
    the gate is a tripwire against pathological regressions only.
    """
    config = DatasetConfig(
        commands=("ok_google", "alexa") if quick else
        ("ok_google", "alexa", "add_milk"),
        distances_m=(1.0, 2.0),
        n_trials=2 if quick else 10,
        attacker_kind="single_full",
        seed=seed,
    )
    timings = {}
    features = {}
    started = time.perf_counter()
    features["reference"] = reference_dataset_features(config)
    timings["reference"] = time.perf_counter() - started
    for key, batch in (("chunk1", False), ("batch", True)):
        started = time.perf_counter()
        features[key] = build_dataset(config, batch=batch).features
        timings[key] = time.perf_counter() - started
    identical = all(
        np.array_equal(features["reference"], features[key])
        for key in ("chunk1", "batch")
    )
    return _row(
        (
            f"defense dataset build ({config.n_trials} trials x "
            f"{len(config.commands)} commands x "
            f"{len(config.distances_m)} distances)"
        ),
        timings,
        identical,
        min_speedup,
        True,
    )


def profile_stages(quick: bool, seed: int) -> list[dict]:
    """Per-stage wall-time rows of the T2 cell at the default chunk size.

    A separate traced pass (the timed runs above stay untraced): the
    executor's stage spans reduce to one row per stage, so the JSON
    artifact records *where* the pipeline spends its time — the first
    thing to look at when a gate trips.
    """
    n_trials = 10 if quick else 50
    group = _trial_group("free_field", seed, n_trials)
    pipeline = build_pipeline(group.scenario, group.device)
    ctx = pipeline.context(group.resolve_sources())
    tracer = Tracer()
    with activate(tracer):
        rngs = np.random.default_rng(seed).spawn(n_trials)
        pipeline.run_trials(ctx, rngs)
    return stage_rows(tracer.spans)


def context_peak_mb(seed: int) -> float:
    """Traced allocation peak of one T2-cell transmit precompute, MiB.

    The emission is built before tracing starts, so the figure is the
    working set of :meth:`~repro.sim.pipeline.TrialPipeline.context`
    alone: the per-source fold over the 32-speaker array.
    """
    group = _trial_group("free_field", seed, 1)
    sources = group.resolve_sources()
    pipeline = build_pipeline(group.scenario, group.device)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pipeline.context(sources)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / 2**20


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="trial pipeline vs the per-trial reference: wall clock"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workloads (CI smoke); identical-output gates plus "
        "regression tripwires instead of the full-mode 1.5x floor",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output",
        default="BENCH_pipeline.json",
        help="where to write the JSON record (default: "
        "BENCH_pipeline.json)",
    )
    args = parser.parse_args(argv)
    # Quick mode's 10-trial cells spend most of their wall clock on
    # fixed per-group costs (emission warm-up, the shared transmit
    # precompute), so only the full-size workloads carry the 1.5x
    # vectorization floor.
    trial_gate = 1.0 if args.quick else 1.5
    dataset_gate = 0.7 if args.quick else 0.85
    results = [
        bench_trial_group(
            "T2 split array", "free_field", args.quick, args.seed,
            trial_gate,
        ),
        bench_trial_group(
            "walking attacker", "walking_attacker", args.quick,
            args.seed, trial_gate,
        ),
        bench_dataset_build(args.quick, args.seed, dataset_gate),
    ]
    stages = profile_stages(args.quick, args.seed)
    context_peak = context_peak_mb(args.seed)
    record = write_bench_record(
        args.output,
        {
            "benchmark": "trial pipeline vs per-trial reference",
            "quick": args.quick,
            "seed": args.seed,
            "results": results,
            "stages": stages,
            "context_peak_mb": context_peak,
            "peak_rss_mb": peak_rss_mb(),
        },
    )
    table = ResultTable(
        title=(
            "trial pipeline vs per-trial reference (single worker; "
            "speedup = reference / batch)"
        ),
        columns=[
            "workload", "reference s", "chunk-1 s", "batch s", "speedup",
        ],
    )
    for result in results:
        table.add_row(
            result["workload"],
            result["reference_s"],
            result["chunk1_s"],
            result["batch_s"],
            result["speedup"],
        )
    print(table.render())
    print(
        f"peak RSS: {record['peak_rss_mb']:.1f} MiB; T2 transmit "
        f"peak: {record['context_peak_mb']:.1f} MiB"
    )
    print(render_stage_rows(stages), file=sys.stderr)
    print(f"wrote {args.output}", file=sys.stderr)
    if not all(result["identical"] for result in results):
        print(
            "FAIL: the pipeline and the per-trial reference disagree",
            file=sys.stderr,
        )
        return 1
    failed = [
        result
        for result in results
        if result["speedup"] < result["min_speedup"]
    ]
    for result in failed:
        print(
            f"FAIL: {result['workload']} at {result['speedup']:.2f}x, "
            f"gate {result['min_speedup']:.2f}x",
            file=sys.stderr,
        )
    if failed:
        return 1
    print(
        "ok: speedups "
        + ", ".join(f"{r['speedup']:.2f}x" for r in results),
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
