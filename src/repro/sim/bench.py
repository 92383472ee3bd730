"""Shared plumbing for the ``BENCH_*.json`` writers.

Every benchmark that records a JSON point for CI's run-over-run
trajectory embeds :func:`machine_metadata`, so a point from a 4-core
GitHub runner is never compared naively against one from a laptop:
the cpu count, interpreter, library versions and git revision ride
along with the numbers. :func:`append_trajectory` turns one or more
freshly written ``BENCH_*.json`` records into appended lines of a
``bench-trajectory.jsonl`` history file — the per-commit perf record
the CI ``perf-gates`` job restores, extends and re-uploads.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import time
from pathlib import Path
from typing import Any

import numpy as np
import scipy

#: Version stamped into every ``BENCH_*.json`` by
#: :func:`write_bench_record`. Bump when the record layout changes so
#: trajectory consumers can tell points apart.
BENCH_SCHEMA_VERSION = 2


def git_sha() -> str | None:
    """The current commit hash, or ``None`` outside a checkout.

    Prefers CI's ``GITHUB_SHA`` (always set on runners, including
    shallow clones), falling back to ``git rev-parse``.
    """
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def machine_metadata() -> dict[str, Any]:
    """What this benchmark point was measured *on*.

    Embedded in every ``BENCH_*.json`` so trajectory points are
    comparable across runners: a sustained-streams figure means
    nothing without the core count it was measured with.
    """
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
    }


def peak_rss_mb() -> float:
    """Largest resident set (``ru_maxrss``) of this process or of any
    child process it has waited for, in MiB."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def write_bench_record(
    path: str | Path, record: dict[str, Any]
) -> dict[str, Any]:
    """Write one ``BENCH_*.json`` record the canonical way.

    The single JSON writer every benchmark shares (pipeline, stream,
    obs — previously each carried its own copy of this boilerplate):
    stamps ``schema_version`` and, unless the record already carries
    one, the :func:`machine_metadata` block; writes 2-space-indented
    JSON with a trailing newline. Returns the record as written.
    """
    record = dict(record)
    record["schema_version"] = BENCH_SCHEMA_VERSION
    record.setdefault("machine", machine_metadata())
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    return record


def summarize_record(record: dict[str, Any]) -> dict[str, Any]:
    """The scalar headline numbers of one benchmark record.

    Keeps every top-level gate/config scalar plus, per workload, the
    numeric fields — dropping nested case lists so a trajectory line
    stays one compact point, not a copy of the record.
    """
    summary: dict[str, Any] = {
        key: value
        for key, value in record.items()
        if isinstance(value, (str, int, float, bool))
    }
    workloads = []
    for result in record.get("results", []):
        workloads.append(
            {
                key: value
                for key, value in result.items()
                if isinstance(value, (str, int, float, bool))
            }
        )
    if workloads:
        summary["results"] = workloads
    return summary


def append_trajectory(
    bench_paths: list[str | Path],
    trajectory_path: str | Path = "bench-trajectory.jsonl",
) -> int:
    """Append one summarised line per benchmark record.

    Each line carries the record's summary, the machine metadata and
    a wall-clock timestamp; returns the number of lines appended.
    Benchmarks that did not run (missing files) are skipped rather
    than failing the append — a partial trajectory beats none.
    """
    meta = machine_metadata()
    recorded_at = int(time.time())
    lines = []
    for path in bench_paths:
        path = Path(path)
        if not path.exists():
            continue
        with open(path) as handle:
            record = json.load(handle)
        lines.append(
            {
                "source": path.name,
                "recorded_at_unix": recorded_at,
                "machine": record.get("machine", meta),
                "summary": summarize_record(record),
            }
        )
    trajectory_path = Path(trajectory_path)
    with open(trajectory_path, "a") as handle:
        for line in lines:
            handle.write(json.dumps(line, sort_keys=True) + "\n")
    return len(lines)
