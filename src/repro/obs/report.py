"""Render a JSONL trace into a human report and a summary JSON.

The text report has up to four sections, each derived purely from the
span tree (:mod:`repro.obs.trace`):

* **stage tree** — a flamegraph-style indented tree. Sibling spans
  with the same name aggregate into one row (count, total seconds,
  share of the parent's time), so ten thousand ``welch`` cycle spans
  render as a single line under their stream group.
* **latency** — exact percentiles (p50/p90/p99/p99.9, via the
  :class:`repro.obs.metrics.LatencyRecorder`) and an ASCII histogram
  over every span named ``utterance`` carrying a ``latency_s``
  attribute.
* **shards** — wall/prepare/stream counts per ``shard`` span, when
  the trace came from a sharded fleet run.
* **streams** — per-stream utterance counts and mean latency, when
  utterance spans carry a ``stream`` attribute (capped to the
  busiest streams to keep the report readable).

:func:`stage_rows` reduces the same spans to the per-stage table the
benchmark records carry: any span with ``mode`` and ``trials``
attributes is one stage call, whether the offline executor
(``"batch"``) or the stream kernel (``"stream"``) recorded it.

``summarize()`` returns the same content machine-readably; the CLI
(``python -m repro.obs report``) can write it with ``--json``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Sequence

from repro.obs.metrics import SUMMARY_QUANTILES, LatencyRecorder
from repro.obs.trace import Span

__all__ = [
    "render_report",
    "render_stage_rows",
    "stage_rows",
    "summarize",
]

#: Cap on per-stream breakdown rows (busiest first).
MAX_STREAM_ROWS = 16
HISTOGRAM_BINS = 10
HISTOGRAM_WIDTH = 40


def _children_index(spans: Sequence[Span]) -> dict[int | None, list[Span]]:
    index: dict[int | None, list[Span]] = defaultdict(list)
    for span in spans:
        index[span.parent_id].append(span)
    return index


def _tree_lines(
    spans: Sequence[Span],
    children: dict[int | None, list[Span]],
    parent_total: float,
    depth: int,
    lines: list[str],
) -> None:
    """Aggregate same-named siblings and recurse, longest first."""
    groups: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        groups[span.name].append(span)
    rows = [
        (name, members, sum(m.duration_s for m in members))
        for name, members in groups.items()
    ]
    rows.sort(key=lambda row: row[2], reverse=True)
    for name, members, total in rows:
        share = (100.0 * total / parent_total) if parent_total > 0 else 0.0
        count = len(members)
        label = f"{'  ' * depth}{name}"
        lines.append(
            f"{label:<42} {count:>7}x {total:>10.3f}s {share:>5.1f}%"
        )
        grand_children = [
            child
            for member in members
            for child in children.get(member.span_id, [])
        ]
        if grand_children:
            _tree_lines(grand_children, children, total, depth + 1, lines)


def render_stage_tree(spans: Sequence[Span]) -> str:
    """The flamegraph-style aggregated stage tree."""
    children = _children_index(spans)
    by_id = {span.span_id: span for span in spans}
    roots = [
        span
        for span in spans
        if span.parent_id is None or span.parent_id not in by_id
    ]
    if not roots:
        return "(empty trace)"
    lines = [
        f"{'span':<42} {'count':>8} {'total':>11} {'share':>6}",
    ]
    total = sum(span.duration_s for span in roots)
    _tree_lines(roots, children, total, 0, lines)
    return "\n".join(lines)


def _utterance_spans(spans: Sequence[Span]) -> list[Span]:
    return [
        span
        for span in spans
        if span.name == "utterance" and "latency_s" in span.attrs
    ]


def _latency_recorder(spans: Sequence[Span]) -> LatencyRecorder | None:
    utterances = _utterance_spans(spans)
    if not utterances:
        return None
    recorder = LatencyRecorder("utterance_latency_s")
    for span in utterances:
        recorder.observe(float(span.attrs["latency_s"]))
    return recorder


def _histogram_lines(samples: Sequence[float]) -> list[str]:
    import numpy as np

    values = np.asarray(samples, dtype=float)
    low, high = float(values.min()), float(values.max())
    if high <= low:
        high = low + 1e-9
    counts, edges = np.histogram(values, bins=HISTOGRAM_BINS, range=(low, high))
    peak = int(counts.max()) or 1
    lines = []
    for i, count in enumerate(counts):
        bar = "#" * max(
            int(round(HISTOGRAM_WIDTH * int(count) / peak)),
            1 if count else 0,
        )
        lines.append(
            f"  [{edges[i] * 1e3:8.1f}, {edges[i + 1] * 1e3:8.1f}) ms "
            f"{int(count):>7}  {bar}"
        )
    return lines


def render_latency(spans: Sequence[Span]) -> str | None:
    recorder = _latency_recorder(spans)
    if recorder is None:
        return None
    summary = recorder.summary()
    lines = [
        f"utterances: {recorder.count}",
        f"  mean  {summary['mean'] * 1e3:9.2f} ms",
    ]
    for q in SUMMARY_QUANTILES:
        label = f"p{q * 100:g}"
        lines.append(f"  {label:<5} {summary[label] * 1e3:9.2f} ms")
    lines.append(f"  max   {summary['max'] * 1e3:9.2f} ms")
    lines.append("")
    lines.extend(_histogram_lines(recorder.samples))
    return "\n".join(lines)


def render_shards(spans: Sequence[Span]) -> str | None:
    shard_spans = sorted(
        (span for span in spans if span.name == "shard"),
        key=lambda span: span.attrs.get("shard", -1),
    )
    if not shard_spans:
        return None
    lines = [f"{'shard':>5} {'streams':>8} {'wall':>10}"]
    for span in shard_spans:
        lines.append(
            f"{span.attrs.get('shard', '?'):>5} "
            f"{span.attrs.get('streams', '?'):>8} "
            f"{span.duration_s:>9.3f}s"
        )
    return "\n".join(lines)


def render_streams(spans: Sequence[Span]) -> str | None:
    per_stream: dict[Any, list[float]] = defaultdict(list)
    for span in _utterance_spans(spans):
        if "stream" in span.attrs:
            per_stream[span.attrs["stream"]].append(
                float(span.attrs["latency_s"])
            )
    if not per_stream:
        return None
    rows = sorted(
        per_stream.items(), key=lambda kv: len(kv[1]), reverse=True
    )
    shown = rows[:MAX_STREAM_ROWS]
    lines = [f"{'stream':>7} {'utterances':>11} {'mean latency':>13}"]
    for stream, latencies in shown:
        mean_ms = 1e3 * sum(latencies) / len(latencies)
        lines.append(
            f"{stream:>7} {len(latencies):>11} {mean_ms:>10.2f} ms"
        )
    if len(rows) > len(shown):
        lines.append(f"  ... {len(rows) - len(shown)} more streams")
    return "\n".join(lines)


def stage_rows(spans: Sequence[Span]) -> list[dict[str, Any]]:
    """Per-(mode, stage) wall time from stage spans, first-seen order.

    Each span carrying ``mode`` and ``trials`` attributes is one
    stage call covering ``trials`` rows: trials of a pipeline chunk,
    stream rows of a kernel cycle, utterances of a
    decide phase. Rows sum those calls; ``seconds_per_trial`` is
    ``seconds / trials`` (0 with no trials).
    """
    totals: dict[tuple[str, str], list] = {}
    for span in spans:
        attrs = span.attrs
        if "mode" in attrs and "trials" in attrs:
            row = totals.setdefault(
                (str(attrs["mode"]), span.name), [0.0, 0, 0]
            )
            row[0] += span.duration_s
            row[1] += 1
            row[2] += int(attrs["trials"])
    return [
        {
            "mode": mode,
            "stage": stage,
            "seconds": seconds,
            "calls": calls,
            "trials": trials,
            "seconds_per_trial": seconds / trials if trials else 0.0,
        }
        for (mode, stage), (seconds, calls, trials) in totals.items()
    ]


def render_stage_rows(rows: Sequence[dict[str, Any]]) -> str:
    """A fixed-width table of :func:`stage_rows` output."""
    lines = [
        f"{'mode':<8} {'stage':<14} {'seconds':>9} "
        f"{'calls':>6} {'trials':>7} {'ms/trial':>9}"
    ]
    for row in rows:
        lines.append(
            f"{row['mode']:<8} {row['stage']:<14} "
            f"{row['seconds']:>9.4f} {row['calls']:>6d} "
            f"{row['trials']:>7d} "
            f"{1e3 * row['seconds_per_trial']:>9.3f}"
        )
    return "\n".join(lines)


def render_report(spans: Sequence[Span]) -> str:
    """The full text report."""
    sections = [("stage tree", render_stage_tree(spans))]
    for title, body in (
        ("stream-time detection latency", render_latency(spans)),
        ("shards", render_shards(spans)),
        ("streams (busiest first)", render_streams(spans)),
    ):
        if body is not None:
            sections.append((title, body))
    parts = []
    for title, body in sections:
        parts.append(f"== {title}")
        parts.append(body)
        parts.append("")
    return "\n".join(parts).rstrip() + "\n"


def summarize(spans: Sequence[Span]) -> dict[str, Any]:
    """Machine-readable summary of the same trace."""
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        row = totals.setdefault(span.name, {"count": 0, "seconds": 0.0})
        row["count"] += 1
        row["seconds"] += span.duration_s
    summary: dict[str, Any] = {
        "schema_version": 1,
        "span_count": len(spans),
        "spans_by_name": {
            name: {
                "count": int(row["count"]),
                "seconds": row["seconds"],
            }
            for name, row in sorted(totals.items())
        },
    }
    recorder = _latency_recorder(spans)
    if recorder is not None:
        summary["utterance_latency_s"] = recorder.summary()
    shard_spans = [span for span in spans if span.name == "shard"]
    if shard_spans:
        summary["shards"] = [
            {
                "shard": span.attrs.get("shard"),
                "streams": span.attrs.get("streams"),
                "wall_s": span.duration_s,
            }
            for span in sorted(
                shard_spans, key=lambda s: s.attrs.get("shard", -1)
            )
        ]
    return summary
