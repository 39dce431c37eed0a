"""Minimal-sampling estimates (Theorem 3.5).

Theorem 3.5 of the paper bounds the least number of noise-free sampled
matrices needed to recover an underlying system ``Gamma`` with ``m`` inputs,
``p`` outputs, ``order(Gamma)`` poles and feed-through rank ``rank(D0)``:

``order(Gamma)/min(m, p)  <=  k_min  <=  (size(A0) + rank(D0))/min(m, p)``

with the empirical value ``k_min = (order(Gamma) + rank(D0))/min(m, p)``.
VFTI, by contrast, needs at least ``order(Gamma)`` samples -- a factor
``min(m, p)`` more, which is the headline saving of MFTI.

The estimate is used by the Example-1 experiment (to pick the "8 samples"
setting), by the minimal-sampling benchmark that sweeps the sample count for
both methods, and by user code that wants to budget measurements up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import check_nonnegative_integer, check_positive_integer

__all__ = ["MinimalSamplingEstimate", "minimal_sample_count"]


@dataclass(frozen=True)
class MinimalSamplingEstimate:
    """The three quantities of Theorem 3.5.

    Attributes
    ----------
    lower_bound:
        ``ceil(order / min(m, p))``.
    upper_bound:
        ``ceil((order + rank_d) / min(m, p))`` with ``size(A0)`` identified
        with the system order (the theorem's loose form uses ``size(A0)``
        which equals the order for a minimal realization).
    empirical:
        The paper's empirical value ``ceil((order + rank_d) / min(m, p))``.
    vfti_requirement:
        The at-least-``order(Gamma)`` sample count VFTI needs.
    """

    lower_bound: int
    upper_bound: int
    empirical: int
    vfti_requirement: int

    @property
    def saving_factor(self) -> float:
        """How many times fewer samples MFTI needs compared to VFTI (empirically)."""
        if self.empirical == 0:
            return float("inf")
        return self.vfti_requirement / self.empirical


def minimal_sample_count(
    order: int,
    n_inputs: int,
    n_outputs: int,
    *,
    rank_d: int = 0,
    block_size: int | None = None,
) -> MinimalSamplingEstimate:
    """Evaluate Theorem 3.5 for the given system dimensions.

    Parameters
    ----------
    order:
        Order of the underlying system (``order(Gamma) = rank(E0)``).
    n_inputs, n_outputs:
        Input / output counts ``m`` and ``p``.
    rank_d:
        Rank of the feed-through matrix ``D0``.
    block_size:
        Tangential block size actually used.  Theorem 3.5 assumes the full
        ``min(m, p)``; passing a smaller ``t`` rescales the estimate (each
        sampled matrix then only contributes ``t`` columns/rows).
    """
    order = check_positive_integer(order, "order")
    n_inputs = check_positive_integer(n_inputs, "n_inputs")
    n_outputs = check_positive_integer(n_outputs, "n_outputs")
    rank_d = check_nonnegative_integer(rank_d, "rank_d")
    width = min(n_inputs, n_outputs)
    if block_size is not None:
        block_size = check_positive_integer(block_size, "block_size")
        if block_size > width:
            raise ValueError(f"block_size ({block_size}) cannot exceed min(m, p) ({width})")
        width = block_size
    lower = math.ceil(order / width)
    upper = math.ceil((order + rank_d) / width)
    empirical = math.ceil((order + rank_d) / width)
    return MinimalSamplingEstimate(
        lower_bound=lower,
        upper_bound=upper,
        empirical=empirical,
        vfti_requirement=order,
    )
