"""Observability in the streaming stack: inert, complete, merged.

Three contracts from the ``repro.obs`` integration:

* **bitwise inertness** — running a fleet under an active tracer and
  metrics registry produces the identical digest to an untraced run;
* **completeness** — the trace carries every stream-kernel stage and
  one utterance marker per segmented utterance;
* **shard-boundary attribution** — spans recorded inside pool-worker
  shards come home in the :class:`~repro.stream.shard.ShardResult`
  and merge under the coordinator's ``sharded-fleet`` span with
  non-overlapping ids and intact nesting.
"""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.metrics import activate as activate_metrics
from repro.obs.report import stage_rows
from repro.obs.trace import Tracer, activate
from repro.stream.fleet import FleetConfig, FleetSimulator
from repro.stream.shard import (
    ShardedFleetSimulator,
    plan_shards,
    run_shard,
)

KERNEL_STAGES = {
    "assemble", "ingest", "segment", "close", "welch",
    "recognize", "detect",
}


def small_config(**overrides) -> FleetConfig:
    defaults = dict(
        n_streams=2,
        utterances_per_stream=2,
        attack_fraction=0.5,
        seed=9,
        workers=2,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def spans_by_name(spans):
    index = {}
    for span in spans:
        index.setdefault(span.name, []).append(span)
    return index


@pytest.fixture(scope="module")
def untraced_digest(stream_detector):
    return (
        FleetSimulator(stream_detector, small_config()).run().digest()
    )


class TestBitwiseInertness:
    def test_tracing_never_changes_the_fleet_digest(
        self, stream_detector, untraced_digest
    ):
        tracer = Tracer()
        registry = MetricsRegistry()
        with activate(tracer), activate_metrics(registry):
            report = FleetSimulator(
                stream_detector, small_config()
            ).run()
        assert report.digest() == untraced_digest
        assert tracer.spans, "tracing was active but recorded nothing"
        assert registry.counter("fleet.utterances").value == 4

    def test_sharded_run_matches_untraced_unsharded(
        self, stream_detector, untraced_digest
    ):
        tracer = Tracer()
        config = small_config(shards=2)
        with activate(tracer):
            report = ShardedFleetSimulator(
                stream_detector, config
            ).run()
        assert report.digest() == untraced_digest


class TestCompleteness:
    def test_trace_covers_every_kernel_stage_and_utterance(
        self, stream_detector
    ):
        tracer = Tracer()
        with activate(tracer):
            report = FleetSimulator(
                stream_detector, small_config()
            ).run()
        names = spans_by_name(tracer.spans)
        assert KERNEL_STAGES <= set(names)
        utterances = names["utterance"]
        assert len(utterances) == report.n_utterances
        latencies = sorted(
            span.attrs["latency_s"] for span in utterances
        )
        assert latencies == sorted(report.latencies_s())
        assert {span.attrs["stream"] for span in utterances} == {0, 1}

    def test_kernel_stage_spans_are_stream_stage_rows(
        self, stream_detector
    ):
        tracer = Tracer()
        with activate(tracer):
            report = FleetSimulator(
                stream_detector, small_config()
            ).run()
        rows = {
            row["stage"]: row
            for row in stage_rows(tracer.spans)
            if row["mode"] == "stream"
        }
        # Utterance synthesis adds the trial pipeline's batch rows.
        assert set(rows) == KERNEL_STAGES
        # Cycle stages cover the group's two rows per call; the decide
        # phase covers the utterances it decided.
        for stage in ("assemble", "ingest", "segment", "welch"):
            assert rows[stage]["trials"] == 2 * rows[stage]["calls"]
        for stage in ("recognize", "detect"):
            assert rows[stage]["calls"] == 1
            assert rows[stage]["trials"] == report.n_utterances


class TestShardBoundary:
    def test_untraced_task_ships_no_spans(self, stream_detector):
        task = plan_shards(stream_detector, small_config())[0]
        assert task.trace is False
        assert run_shard(task).spans == []

    def test_traced_task_ships_its_spans_home(self, stream_detector):
        task = plan_shards(
            stream_detector, small_config(), trace=True
        )[0]
        result = run_shard(task)
        names = spans_by_name(result.spans)
        shard_span = names["shard"][0]
        assert shard_span.parent_id is None
        assert shard_span.attrs == {"shard": 0, "streams": 2}
        assert "synthesize" in names
        assert KERNEL_STAGES <= set(names)

    def test_pool_worker_spans_merge_under_the_coordinator(
        self, stream_detector
    ):
        """Two real pool processes; their locally-rooted spans arrive
        re-based with fresh, non-overlapping ids, shard spans under
        ``sharded-fleet``, kernel stages under their own shard."""
        tracer = Tracer()
        config = small_config(shards=2)
        with activate(tracer):
            report = ShardedFleetSimulator(
                stream_detector, config
            ).run()
        spans = tracer.spans
        assert len({span.span_id for span in spans}) == len(spans)
        names = spans_by_name(spans)
        fleet = names["sharded-fleet"][0]
        shards = names["shard"]
        assert sorted(s.attrs["shard"] for s in shards) == [0, 1]
        assert {s.parent_id for s in shards} == {fleet.span_id}
        shard_ids = {s.span_id for s in shards}
        for name in ("synthesize", "stream-group"):
            for span in names[name]:
                assert span.parent_id in shard_ids
        utterances = names["utterance"]
        assert len(utterances) == report.n_utterances
