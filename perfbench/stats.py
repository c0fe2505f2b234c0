"""Order statistics used by the benchmark report."""

from __future__ import annotations

import statistics

# A tail percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float] | None:
    """Highest percentile that has at least ten samples beyond it.

    Returns (percentile, value): `value` is the sorted sample with exactly
    TAIL_MIN_BEYOND samples after it, and `percentile` is the share of
    samples at or below it. Returns None with fewer than eleven samples.
    """
    n = len(values)
    if n <= TAIL_MIN_BEYOND:
        return None
    at_or_below = n - TAIL_MIN_BEYOND
    return 100.0 * at_or_below / n, float(sorted(values)[at_or_below - 1])


def describe(values, unit: str, digits: int = 4) -> str:
    """'median X unit, tail pNN Y unit (n=K)' for one metric's samples."""
    t = tail(values)
    tail_text = (
        f"tail p{t[0]:.1f} {t[1]:.{digits}f} {unit}"
        if t
        else f"tail n/a (needs >= {TAIL_MIN_BEYOND + 1} samples)"
    )
    return f"median {median(values):.{digits}f} {unit}, {tail_text}, n={len(values)}"
