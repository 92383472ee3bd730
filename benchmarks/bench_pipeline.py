"""Benchmark the declarative trial pipeline: scalar vs batched mode.

Three workloads, each timed in both executor modes and verified to
agree bitwise before any timing is reported:

* **T2-class trial groups** — the 32-speaker split-array success-rate
  cell in the free field, executed through ``ExperimentEngine`` with
  the pipeline's batched executor on and off. Recognition-inclusive,
  so the batched DTW kernel and per-chunk filter-design amortisation
  both count. Gated: batch must be >= 1.5x scalar in full mode.
* **walking-attacker trial groups** — the same cell under the mobile
  attacker, adding the per-trial motion-gain stage. Gated at the same
  1.5x floor.
* **defense dataset build** — ``build_dataset`` for an F8-class
  config. This workload is *parity-bound*: ~two thirds of its wall
  clock is zero-phase filtering and per-trial noise draws that the
  bitwise batch-equals-scalar contract forces both modes to execute
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

Exits non-zero if the modes disagree or any workload falls below its
gate. Quick mode shrinks the workloads until fixed costs dominate, so
its trial-group gates are regression tripwires (1.0x) rather than the
full-mode 1.5x floor — CI runs the *full* bench for the vectorization
gate.
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc

import numpy as np

from repro.defense.dataset import DatasetConfig, build_dataset
from repro.experiments._emissions import array_split
from repro.sim.bench import peak_rss_mb, write_bench_record
from repro.sim.engine import EmissionSpec, ExperimentEngine, TrialGroup
from repro.obs.report import render_stage_rows, stage_rows
from repro.obs.trace import Tracer, activate
from repro.sim.pipeline import build_pipeline
from repro.sim.results import ResultTable
from repro.sim.spec import get_scenario
from repro.sim.scenario import VictimDevice


def _trial_group(scenario_name: str, seed: int, n_trials: int) -> TrialGroup:
    scenario = get_scenario(scenario_name).build("ok_google", 3.0)
    return TrialGroup(
        scenario,
        VictimDevice.phone(seed=seed + 1),
        EmissionSpec(array_split, ("ok_google", seed, 32)),
        n_trials,
    )


def bench_trial_group(
    label: str,
    scenario_name: str,
    quick: bool,
    seed: int,
    min_speedup: float,
) -> dict:
    """Scalar-vs-batch timing for one recognition trial-group cell."""
    n_trials = 10 if quick else 50
    group = _trial_group(scenario_name, seed, n_trials)
    group.resolve_sources()  # warm the emission cache for both modes
    timings = {}
    outcomes = {}
    for mode in (False, True):
        engine = ExperimentEngine(jobs=1, batch=mode)
        started = time.perf_counter()
        outcomes[mode] = engine.run_trial_groups(
            [group], np.random.default_rng(seed), keep_recordings=False
        )[0]
        timings[mode] = time.perf_counter() - started
    agree = len(outcomes[False]) == len(outcomes[True]) and all(
        x.success == y.success and x.distance == y.distance
        for x, y in zip(outcomes[False], outcomes[True])
    )
    return {
        "workload": f"{label} ({n_trials} trials)",
        "scalar_s": timings[False],
        "batch_s": timings[True],
        "speedup": timings[False] / timings[True],
        "identical": agree,
        "min_speedup": min_speedup,
        "parity_bound": False,
    }


def bench_dataset_build(
    quick: bool, seed: int, min_speedup: float
) -> dict:
    """Scalar-vs-batch timing for an F8-class defense dataset build.

    Diagnostic row: the build is dominated by bitwise-parity DSP (the
    zero-phase device filters and per-trial noise draws run
    identically in both modes), so near-parity is the expectation and
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
    for mode in (False, True):
        started = time.perf_counter()
        features[mode] = build_dataset(config, batch=mode).features
        timings[mode] = time.perf_counter() - started
    return {
        "workload": (
            f"defense dataset build ({config.n_trials} trials x "
            f"{len(config.commands)} commands x "
            f"{len(config.distances_m)} distances)"
        ),
        "scalar_s": timings[False],
        "batch_s": timings[True],
        "speedup": timings[False] / timings[True],
        "identical": bool(
            np.array_equal(features[False], features[True])
        ),
        "min_speedup": min_speedup,
        "parity_bound": True,
    }


def profile_stages(quick: bool, seed: int) -> list[dict]:
    """Per-stage wall-time rows of the T2 cell, both modes.

    A separate traced pass (the timed runs above stay untraced): the
    executor's stage spans reduce to one row per (mode, stage), so
    the JSON artifact records *where* each mode spends its time — the
    first thing to look at when a gate trips.
    """
    n_trials = 10 if quick else 50
    group = _trial_group("free_field", seed, n_trials)
    pipeline = build_pipeline(group.scenario, group.device)
    ctx = pipeline.context(group.resolve_sources())
    tracer = Tracer()
    with activate(tracer):
        for mode in (False, True):
            rngs = np.random.default_rng(seed).spawn(n_trials)
            pipeline.run_trials(ctx, rngs, batch=mode)
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
        description="trial pipeline: scalar vs batched wall clock"
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
            "benchmark": "trial-pipeline scalar vs batched",
            "quick": args.quick,
            "seed": args.seed,
            "results": results,
            "stages": stages,
            "context_peak_mb": context_peak,
            "peak_rss_mb": peak_rss_mb(),
        },
    )
    table = ResultTable(
        title="trial pipeline: scalar vs batched (single worker)",
        columns=["workload", "scalar s", "batch s", "speedup"],
    )
    for result in results:
        table.add_row(
            result["workload"],
            result["scalar_s"],
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
            "FAIL: batched and scalar outputs disagree", file=sys.stderr
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
