"""Small statistics helpers used by reports and the experiment harness."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


class RunningStats:
    """Welford online mean/variance accumulator.

    Long traces do not need to be kept in memory just to report a mean.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        value = float(value)
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def extend(self, values: Iterable[float]) -> None:
        """Fold many observations."""
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator)."""
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        var = self.variance
        return math.sqrt(var) if var == var else math.nan  # NaN-safe

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RunningStats(count={self.count}, mean={self.mean:.4g}, "
            f"stdev={self.stdev:.4g})"
        )


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of ``values`` at ``q`` in [0, 100].

    Implemented locally (rather than via numpy) so tiny hot paths in the
    simulator avoid array allocation for 3-element lists.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    # Additive form keeps the result inside [ordered[low], ordered[high]]
    # even under floating-point rounding.
    return ordered[low] + frac * (ordered[high] - ordered[low])


def union_time(intervals: Iterable[tuple[float, float]]) -> float:
    """Duration of the union of ``(start, end)`` intervals.

    Overlaps are merged, so this answers "for how long was *any*
    transfer in flight" when flows overlap.  Intervals are sorted
    first, which fixes the summation order whatever order they come in.
    """
    total = 0.0
    current_start: float | None = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if current_start is None:
            current_start, current_end = start, end
        elif start <= current_end:
            current_end = max(current_end, end)
        else:
            total += current_end - current_start
            current_start, current_end = start, end
    if current_start is not None:
        total += current_end - current_start
    return total


def coefficient_of_variation(values: Sequence[float]) -> float:
    """stdev/mean of ``values``; NaN for degenerate input."""
    stats = RunningStats()
    stats.extend(values)
    if stats.count < 2 or stats.mean == 0.0:
        return math.nan
    return stats.stdev / abs(stats.mean)


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary of a sample."""

    count: int
    mean: float
    stdev: float
    minimum: float
    p50: float
    p95: float
    maximum: float
    total: float


def summarize(values: Sequence[float]) -> Summary:
    """Build a :class:`Summary` for a non-empty sample."""
    if not values:
        raise ValueError("summarize of empty sequence")
    stats = RunningStats()
    stats.extend(values)
    return Summary(
        count=stats.count,
        mean=stats.mean,
        stdev=stats.stdev if stats.count > 1 else 0.0,
        minimum=stats.minimum,
        p50=percentile(values, 50),
        p95=percentile(values, 95),
        maximum=stats.maximum,
        total=float(sum(values)),
    )
