"""Small statistics helpers (percentiles, CDFs) used across experiments."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple


def _bracket(n: int, pct: float) -> Tuple[int, int, float]:
    """Indices of the two order statistics ``pct`` falls between in a
    sorted sample of ``n`` values, and how far along it sits."""
    if not n:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"pct must be in [0,100], got {pct}")
    rank = (pct / 100.0) * (n - 1)
    low = int(rank)
    return low, min(low + 1, n - 1), rank - low


def _interpolate(below, above, fraction: float) -> float:
    value = below * (1.0 - fraction) + above * fraction
    # Interpolation must stay within its bracket; floating-point rounding
    # can violate that for extreme magnitudes, so clamp.
    return min(max(value, below), above)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile; ``pct`` in [0, 100].

    Implemented locally (rather than via numpy) so hot experiment paths
    avoid array conversions for short lists.
    """
    low, high, fraction = _bracket(len(values), pct)
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return _interpolate(ordered[low], ordered[high], fraction)


class Distribution:
    """An exact multiset of integers, stored as ``value -> count``.

    What a per-sample list is for when only order statistics are read
    off it: the footprint follows the number of *distinct* values, and
    :meth:`percentile` picks the same two order statistics and does the
    same float arithmetic as :func:`percentile` on the expanded, sorted
    sample — the results are equal bit for bit.
    """

    __slots__ = ("counts",)

    def __init__(self, values: Iterable[int] = ()):
        self.counts: Dict[int, int] = {}
        for value in values:
            self.add(value)

    def add(self, value: int) -> None:
        """Record one more sample equal to ``value``."""
        counts = self.counts
        counts[value] = counts.get(value, 0) + 1

    def merge(self, counts: Mapping[int, int]) -> None:
        """Add every sample of a ``value -> count`` mapping (a port's
        recorded delays, another distribution's ``counts``)."""
        mine = self.counts
        for value, count in counts.items():
            mine[value] = mine.get(value, 0) + count

    def __len__(self) -> int:
        """Number of samples (not of distinct values)."""
        return sum(self.counts.values())

    def percentile(self, pct: float) -> float:
        """``percentile(<the samples>, pct)`` without expanding them."""
        n = len(self)
        low, high, fraction = _bracket(n, pct)
        seen = 0
        below = None
        for value in sorted(self.counts):
            seen += self.counts[value]
            if below is None and seen > low:
                below = value
            if seen > high:
                break
        if n == 1:
            return below
        return _interpolate(below, value, fraction)


def cdf_points(values: Sequence[float]) -> Tuple[List[float], List[float]]:
    """(sorted values, cumulative fractions) — ready to print or plot."""
    if not values:
        return [], []
    ordered = sorted(values)
    n = len(ordered)
    return ordered, [(i + 1) / n for i in range(n)]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)
