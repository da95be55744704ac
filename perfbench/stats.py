"""Arithmetic the benchmark reports: medians, the tail rule, failure counts."""

from __future__ import annotations

import math
import statistics

# Percentiles the tail rule may pick, highest last.  Starting at p90 keeps
# the tail at or above the median, and the choice moves only at 100, 200,
# 1000, ... samples instead of flipping between a maximum and a median at 20.
TAIL_LADDER = (90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def rank(pct: float, n: int) -> int:
    """1-based nearest rank of percentile ``pct`` among ``n`` samples."""
    # rounding first keeps float error (0.9 * 100 = 90.00000000000001) out of ceil
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def tail(values):
    """``(percentile, value, n)`` for the highest percentile of the ladder
    with at least ten samples beyond it.

    With fewer than 100 samples no percentile qualifies and the maximum is
    reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    chosen = None
    for pct in TAIL_LADDER:
        if n - rank(pct, n) >= TAIL_MIN_BEYOND:
            chosen = pct
    if chosen is None:
        return 100.0, ordered[-1], n
    return chosen, ordered[rank(chosen, n) - 1], n


def median(values) -> float:
    return float(statistics.median(values))


class Ledger:
    """Operations attempted and failed in one run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, n_ops: int, n_failed: int = 0, problem: str | None = None):
        """Count ``n_ops`` attempted operations of which ``n_failed`` failed."""
        if n_ops < 0 or not 0 <= n_failed <= n_ops:
            raise ValueError("need 0 <= n_failed <= n_ops")
        self.attempted += n_ops
        self.failed += n_failed
        if problem is not None:
            self.problems.append(problem)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
