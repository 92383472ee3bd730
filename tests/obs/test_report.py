"""The reporter: stage tree, latency percentiles, breakdowns, CLI."""

from __future__ import annotations

import json

from repro.obs.__main__ import main as obs_main
import pytest

from repro.obs.report import (
    render_report,
    render_stage_rows,
    render_stage_tree,
    stage_rows,
    summarize,
)
from repro.obs.trace import Tracer, read_trace


def synthetic_trace() -> Tracer:
    """A miniature two-shard trace with utterance latency markers."""
    tracer = Tracer()
    with tracer.span("experiment", experiment="S1"):
        with tracer.span("sharded-fleet", shards=2):
            for shard in range(2):
                with tracer.span(
                    "shard", shard=shard, streams=2
                ) as shard_id:
                    tracer.record(
                        "welch", 0.0, 0.25, parent_id=shard_id
                    )
                    for stream in range(2):
                        tracer.record(
                            "utterance",
                            0.5,
                            0.5,
                            parent_id=shard_id,
                            stream=2 * shard + stream,
                            latency_s=0.1 * (2 * shard + stream + 1),
                        )
    return tracer


class TestStageTree:
    def test_same_named_siblings_aggregate(self):
        tree = render_stage_tree(synthetic_trace().spans)
        # Two shard spans collapse into one aggregated row.
        assert tree.count("shard ") == 1
        assert "2x" in tree

    def test_empty_trace_renders_placeholder(self):
        assert render_stage_tree([]) == "(empty trace)"

    def test_orphan_parents_render_as_roots(self):
        tracer = Tracer()
        tracer.record("lonely", 0.0, 1.0, parent_id=999)
        assert "lonely" in render_stage_tree(tracer.spans)


class TestReport:
    def test_all_sections_render(self):
        report = render_report(synthetic_trace().spans)
        assert "== stage tree" in report
        assert "== stream-time detection latency" in report
        assert "== shards" in report
        assert "== streams" in report
        for label in ("p50", "p90", "p99", "p99.9"):
            assert label in report

    def test_latency_section_absent_without_utterances(self):
        tracer = Tracer()
        tracer.record("stage", 0.0, 1.0)
        report = render_report(tracer.spans)
        assert "detection latency" not in report


def stage_trace() -> Tracer:
    """Stage spans of two offline modes and one stream kernel cycle.

    Durations are exact binary fractions so the sums compare with
    ``==``. Spans without both ``mode`` and ``trials`` (the group span,
    a span tagged with only one of the two) are not stage calls.
    """
    tracer = Tracer()
    with tracer.span("stream-group", streams=2):
        tracer.record("transmit", 0.0, 0.5, mode="scalar", trials=1)
        tracer.record("adc", 0.5, 0.75, mode="scalar", trials=1)
        tracer.record("transmit", 1.0, 1.25, mode="batch", trials=4)
        tracer.record("transmit", 2.0, 2.5, mode="scalar", trials=1)
        tracer.record("ingest", 3.0, 3.125, mode="stream", trials=2)
        tracer.record("recognize", 4.0, 4.5, mode="stream", trials=0)
        tracer.record("partial", 5.0, 6.0, mode="batch")
        tracer.record("partial", 5.0, 6.0, trials=3)
    return tracer


class TestStageRows:
    def test_only_spans_with_mode_and_trials_are_stage_calls(self):
        rows = stage_rows(stage_trace().spans)
        stages = {row["stage"] for row in rows}
        assert "stream-group" not in stages
        assert "partial" not in stages
        assert stage_rows([]) == []

    def test_rows_keyed_by_mode_and_stage_in_first_seen_order(self):
        keys = [
            (row["mode"], row["stage"])
            for row in stage_rows(stage_trace().spans)
        ]
        assert keys == [
            ("scalar", "transmit"),
            ("scalar", "adc"),
            ("batch", "transmit"),
            ("stream", "ingest"),
            ("stream", "recognize"),
        ]

    def test_calls_trials_and_seconds_sum_per_row(self):
        rows = {
            (row["mode"], row["stage"]): row
            for row in stage_rows(stage_trace().spans)
        }
        scalar = rows[("scalar", "transmit")]
        assert scalar["calls"] == 2
        assert scalar["trials"] == 2
        assert scalar["seconds"] == 1.0
        assert scalar["seconds_per_trial"] == 0.5
        batch = rows[("batch", "transmit")]
        assert (batch["calls"], batch["trials"]) == (1, 4)
        assert batch["seconds_per_trial"] == 0.0625

    def test_zero_trials_has_zero_rate(self):
        # A decide phase that closed no utterances still took time;
        # its rate is reported as 0 rather than dividing by zero.
        rows = {
            row["stage"]: row for row in stage_rows(stage_trace().spans)
        }
        assert rows["recognize"]["trials"] == 0
        assert rows["recognize"]["seconds"] == 0.5
        assert rows["recognize"]["seconds_per_trial"] == 0.0

    def test_rows_survive_a_jsonl_round_trip(self, tmp_path):
        tracer = stage_trace()
        path = tmp_path / "stages.jsonl"
        tracer.write_jsonl(path)
        assert stage_rows(read_trace(path)) == stage_rows(tracer.spans)

    def test_render_has_a_header_and_one_line_per_row(self):
        rows = stage_rows(stage_trace().spans)
        lines = render_stage_rows(rows).splitlines()
        assert lines[0].split() == [
            "mode", "stage", "seconds", "calls", "trials", "ms/trial",
        ]
        assert len(lines) == 1 + len(rows)
        assert lines[1].split() == [
            "scalar", "transmit", "1.0000", "2", "2", "500.000",
        ]

    def test_render_of_no_rows_is_the_header(self):
        assert render_stage_rows([]).splitlines() == [
            render_stage_rows(stage_rows(stage_trace().spans))
            .splitlines()[0]
        ]

    def test_seconds_are_span_durations(self):
        tracer = Tracer()
        tracer.record("welch", 10.0, 10.25, mode="stream", trials=2)
        tracer.record("welch", 20.0, 20.5, mode="stream", trials=2)
        (row,) = stage_rows(tracer.spans)
        assert row["seconds"] == pytest.approx(0.75)
        assert row["calls"] == 2
        assert row["trials"] == 4


class TestSummary:
    def test_summary_structure(self):
        summary = summarize(synthetic_trace().spans)
        assert summary["schema_version"] == 1
        assert summary["span_count"] == 10
        assert summary["spans_by_name"]["utterance"]["count"] == 4
        latency = summary["utterance_latency_s"]
        assert latency["count"] == 4
        assert latency["max"] == 0.4
        assert len(summary["shards"]) == 2
        assert summary["shards"][0]["shard"] == 0


class TestCli:
    def test_report_command(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        synthetic_trace().write_jsonl(trace_path)
        json_path = tmp_path / "summary.json"
        code = obs_main(
            ["report", str(trace_path), "--json", str(json_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== stage tree" in out
        assert "p99.9" in out
        payload = json.loads(json_path.read_text())
        assert payload["span_count"] == 10

    def test_missing_trace_is_a_clean_error(self, tmp_path, capsys):
        code = obs_main(["report", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_empty_trace_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code = obs_main(["report", str(path)])
        assert code == 2
        assert "no spans" in capsys.readouterr().err
