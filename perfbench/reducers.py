"""Reducers over the benchmark's own samples.

Pure functions of plain lists, so ``test_reducers.py`` can pin them on
synthetic inputs: the sample summary printed beside every metric, the
tail-percentile rule, and the two closure shares of a traced pass.
"""

from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is quoted only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile, linearly interpolated between ranks
    (NumPy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie beyond the ``q``-th percentile
    (rounded off below 1e-9, so ``100 - 99.9`` counts as 0.1)."""
    return round(n * (100.0 - q) / 100.0, 9)


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with at least ``MIN_BEYOND``
    of ``n`` samples beyond it, or ``None`` when even the median has
    fewer."""
    for q in TAIL_CANDIDATES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def summarize(values: list[float]) -> dict[str, float]:
    """Median, quartiles and sample count of one metric's samples.

    Quartiles are ``statistics.quantiles(values, n=4)``'s, the same
    reduction used to judge the benchmark's run-to-run spread; a
    single sample is its own median and quartiles.
    """
    if not values:
        raise ValueError("summary of no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
    }


def unaccounted_share(wall_s: float, top_level_s: float) -> float:
    """Share of a pass's wall not covered by its top-level layer calls.

    ``top_level_s`` sums the outermost timed calls only (nested calls
    are already inside their parent's interval), so the result is the
    part of the pass no layer metric explains.
    """
    if wall_s <= 0.0:
        raise ValueError(f"pass wall must be positive, got {wall_s}")
    if not 0.0 <= top_level_s <= wall_s * (1.0 + 1e-9):
        raise ValueError(
            f"top-level layer time {top_level_s} s does not fit in a "
            f"{wall_s} s pass"
        )
    return max(0.0, (wall_s - top_level_s) / wall_s)


def overhead_share(traced_wall_s: float, untraced_walls: list[float]) -> float:
    """Traced pass wall over the untraced median, minus one."""
    return traced_wall_s / statistics.median(untraced_walls) - 1.0
