"""Self-test of the benchmark's reducers and layer wrappers on
synthetic inputs. Runs in well under a second::

    python3 -m pytest perfbench/test_reducers.py -q
"""

from __future__ import annotations

import statistics
import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import reducers  # noqa: E402


class TestTailPercentile:
    def test_p90_needs_one_hundred_samples(self):
        assert reducers.tail_percentile(100) == 90.0
        assert reducers.tail_percentile(99) == 75.0

    def test_fleet_idle_utterance_count_quotes_p90(self):
        # 120 utterances leave 12 beyond p90 and only 6 beyond p95.
        assert reducers.samples_beyond(120, 90.0) == pytest.approx(12.0)
        assert reducers.tail_percentile(120) == 90.0

    def test_large_counts_reach_p99_and_p999(self):
        assert reducers.tail_percentile(1000) == 99.0
        assert reducers.tail_percentile(10_000) == 99.9

    def test_too_few_samples_quote_no_tail(self):
        assert reducers.tail_percentile(20) == 50.0
        assert reducers.tail_percentile(19) is None

    def test_percentile_interpolates_like_numpy(self):
        values = [float(v) for v in range(1, 11)]
        assert reducers.percentile(values, 50.0) == 5.5
        assert reducers.percentile(values, 90.0) == pytest.approx(9.1)
        assert reducers.percentile([3.0], 99.0) == 3.0
        with pytest.raises(ValueError):
            reducers.percentile([], 50.0)


class TestSummary:
    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary = reducers.summarize(values)
        assert summary == {"n": 6, "median": 3.5, "q1": q1, "q3": q3}

    def test_single_sample_is_its_own_quartiles(self):
        assert reducers.summarize([2.5]) == {
            "n": 1, "median": 2.5, "q1": 2.5, "q3": 2.5,
        }


class TestClosure:
    def test_unaccounted_share(self):
        assert reducers.unaccounted_share(10.0, 9.5) == pytest.approx(0.05)
        assert reducers.unaccounted_share(2.0, 2.0) == 0.0

    def test_layers_longer_than_the_pass_are_rejected(self):
        with pytest.raises(ValueError):
            reducers.unaccounted_share(1.0, 1.5)
        with pytest.raises(ValueError):
            reducers.unaccounted_share(0.0, 0.0)

    def test_overhead_share_is_against_the_untraced_median(self):
        assert reducers.overhead_share(11.0, [9.0, 10.0, 30.0]) == (
            pytest.approx(0.1)
        )


def _fake_program():
    """A module with a parent layer calling a child layer."""
    module = types.ModuleType("perfbench_fake_program")

    def child(n):
        time.sleep(0.01)
        return list(range(n))

    def parent():
        time.sleep(0.01)
        return module.child(3)

    module.child = child
    module.parent = parent
    sys.modules[module.__name__] = module
    return module


class TestLayerTrace:
    def test_nesting_gives_self_time_and_closure(self):
        module = _fake_program()
        targets = (
            layers.Target("outer", module.__name__, "parent"),
            layers.Target("inner", module.__name__, "child"),
        )
        trace = layers.LayerTrace(targets)
        trace.install()
        try:
            started = time.perf_counter()
            assert module.parent() == [0, 1, 2]
            wall = time.perf_counter() - started
        finally:
            trace.uninstall()
        assert set(trace.inclusive) == {"outer", "inner"}
        inner, outer = trace.inclusive["inner"], trace.inclusive["outer"]
        assert 0.0 < inner < outer
        assert trace.self_time["outer"] == pytest.approx(outer - inner)
        # Only the outermost call counts towards closure.
        assert trace.top_level_s == outer
        assert 0.0 <= reducers.unaccounted_share(wall, outer) < 0.5
        assert not hasattr(module.parent, "__wrapped__")

    def test_missing_target_is_a_missing_metric_not_an_error(self, capsys):
        module = _fake_program()
        targets = (
            layers.Target("inner", module.__name__, "child"),
            layers.Target("kernel", module.__name__, "renamed_away"),
            layers.Target("shard.plan", "no_such_module_here", "plan"),
        )
        trace = layers.LayerTrace(targets)
        trace.install()
        try:
            module.child(2)
        finally:
            trace.uninstall()
        assert trace.missing_layers == {"kernel", "shard.plan"}
        metrics = trace.metrics()
        assert metrics["inner_s"] > 0.0
        assert "kernel.self_s" not in metrics
        assert "shard.plan_s" not in metrics
        assert "shard.task_bytes" not in metrics
        assert capsys.readouterr().err.count("warning: layer") == 2

    def test_every_program_target_exists(self):
        src = Path(__file__).resolve().parent.parent / "src"
        sys.path.insert(0, str(src))
        try:
            trace = layers.LayerTrace()
            trace.install()
            trace.uninstall()
        finally:
            sys.path.remove(str(src))
        assert trace.missing_layers == set()
