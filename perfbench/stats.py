"""Summary statistics the benchmark reports."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

#: A tail percentile is reported only where this many samples lie beyond it.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """The highest percentile of a sample with :data:`TAIL_BEYOND` samples beyond it."""

    value: float
    percentile: float
    n: int
    beyond: int

    def describe(self) -> str:
        return f"p{self.percentile:.1f} of n={self.n}, {self.beyond} samples beyond"


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tail:
    """The sample value with exactly ``beyond`` larger-ranked samples after it.

    With ``n`` sorted samples that is the value at rank ``n - beyond``
    (1-based), i.e. percentile ``100 * (n - beyond) / n``.  Fewer than
    ``beyond + 1`` samples have no such percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < beyond + 1:
        raise ValueError(f"a tail with {beyond} samples beyond needs at least "
                         f"{beyond + 1} samples, got {n}")
    rank = n - beyond
    return Tail(value=ordered[rank - 1], percentile=100.0 * rank / n, n=n, beyond=beyond)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))
