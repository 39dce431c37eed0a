"""Tangential interpolation data (vector and matrix format).

This module implements eqs. (4) and (6)-(9) of the paper: it takes sampled
frequency-response matrices and turns them into *right* and *left* tangential
interpolation data,

* right data  ``(lambda_i, R_i, W_i = S(f_i) R_i)`` -- column information,
* left data   ``(mu_i, L_i, V_i = L_i S(f_i))``    -- row information,

including the mirrored (complex-conjugate) copies at ``-j 2 pi f`` that make a
real realization possible (Lemma 3.2).  The vector format of VFTI is simply
the special case where every direction has a single column/row.

The container :class:`TangentialData` keeps the data in per-block form (one
block per sample point) and exposes the compact concatenated matrices
``Lambda, R, W, M, L, V`` of eqs. (8)-(9) as properties, which is what the
Loewner assembly consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.data.dataset import FrequencyData

__all__ = ["RightBlock", "LeftBlock", "TangentialData", "build_tangential_data"]


@dataclass(frozen=True)
class RightBlock:
    """One right tangential block ``(lambda, R, W)`` with ``W = H(lambda) R``."""

    point: complex
    directions: np.ndarray  # (m, t)
    values: np.ndarray      # (p, t)

    def __post_init__(self):
        directions = np.asarray(self.directions, dtype=complex)
        values = np.asarray(self.values, dtype=complex)
        if directions.ndim != 2 or values.ndim != 2:
            raise ValueError("right block directions and values must be matrices")
        if directions.shape[1] != values.shape[1]:
            raise ValueError(
                "right block directions and values must have the same number of columns"
            )
        object.__setattr__(self, "point", complex(self.point))
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "values", values)

    @property
    def block_size(self) -> int:
        """Number of tangential columns ``t_i`` carried by this block."""
        return int(self.directions.shape[1])

    def conjugate(self) -> "RightBlock":
        """The mirrored block at ``conj(point)`` (data and directions conjugated)."""
        return RightBlock(np.conj(self.point), np.conj(self.directions), np.conj(self.values))


@dataclass(frozen=True)
class LeftBlock:
    """One left tangential block ``(mu, L, V)`` with ``V = L H(mu)``."""

    point: complex
    directions: np.ndarray  # (t, p)
    values: np.ndarray      # (t, m)

    def __post_init__(self):
        directions = np.asarray(self.directions, dtype=complex)
        values = np.asarray(self.values, dtype=complex)
        if directions.ndim != 2 or values.ndim != 2:
            raise ValueError("left block directions and values must be matrices")
        if directions.shape[0] != values.shape[0]:
            raise ValueError(
                "left block directions and values must have the same number of rows"
            )
        object.__setattr__(self, "point", complex(self.point))
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "values", values)

    @property
    def block_size(self) -> int:
        """Number of tangential rows ``t_i`` carried by this block."""
        return int(self.directions.shape[0])

    def conjugate(self) -> "LeftBlock":
        """The mirrored block at ``conj(point)``."""
        return LeftBlock(np.conj(self.point), np.conj(self.directions), np.conj(self.values))


class TangentialData:
    """Right and left tangential interpolation data in block form.

    Parameters
    ----------
    right_blocks, left_blocks:
        Sequences of :class:`RightBlock` / :class:`LeftBlock`.  When
        ``conjugate_pairs`` is true the blocks must come in adjacent
        ``(+point, conj(point))`` pairs of equal block size -- the layout the
        real transform of Lemma 3.2 expects.
    conjugate_pairs:
        Whether the blocks are organised as adjacent conjugate pairs.
    """

    def __init__(
        self,
        right_blocks: Sequence[RightBlock],
        left_blocks: Sequence[LeftBlock],
        *,
        conjugate_pairs: bool = True,
    ):
        right_blocks = tuple(right_blocks)
        left_blocks = tuple(left_blocks)
        if not right_blocks or not left_blocks:
            raise ValueError("tangential data needs at least one right and one left block")
        n_inputs = {b.directions.shape[0] for b in right_blocks}
        n_outputs_r = {b.values.shape[0] for b in right_blocks}
        n_outputs_l = {b.directions.shape[1] for b in left_blocks}
        n_inputs_l = {b.values.shape[1] for b in left_blocks}
        if len(n_inputs) != 1 or len(n_outputs_r) != 1:
            raise ValueError("all right blocks must share the same input/output dimensions")
        if len(n_outputs_l) != 1 or len(n_inputs_l) != 1:
            raise ValueError("all left blocks must share the same input/output dimensions")
        if n_inputs != n_inputs_l or n_outputs_r != n_outputs_l:
            raise ValueError("left and right blocks disagree on the system dimensions (p, m)")
        if conjugate_pairs:
            _check_conjugate_pairs(right_blocks, "right")
            _check_conjugate_pairs(left_blocks, "left")
        lam = np.array([b.point for b in right_blocks])
        mu = np.array([b.point for b in left_blocks])
        if np.intersect1d(np.round(lam, 12), np.round(mu, 12)).size:
            raise ValueError("right and left sample points must be disjoint")
        self._right = right_blocks
        self._left = left_blocks
        self._conjugate_pairs = bool(conjugate_pairs)

    # ------------------------------------------------------------------ #
    # block views
    # ------------------------------------------------------------------ #
    @property
    def right_blocks(self) -> tuple[RightBlock, ...]:
        """All right blocks in order."""
        return self._right

    @property
    def left_blocks(self) -> tuple[LeftBlock, ...]:
        """All left blocks in order."""
        return self._left

    @property
    def conjugate_pairs(self) -> bool:
        """True when blocks are organised as adjacent conjugate pairs."""
        return self._conjugate_pairs

    @property
    def n_inputs(self) -> int:
        """Number of system inputs ``m``."""
        return int(self._right[0].directions.shape[0])

    @property
    def n_outputs(self) -> int:
        """Number of system outputs ``p``."""
        return int(self._right[0].values.shape[0])

    @property
    def right_block_sizes(self) -> tuple[int, ...]:
        """Column counts ``t_i`` of the right blocks."""
        return tuple(b.block_size for b in self._right)

    @property
    def left_block_sizes(self) -> tuple[int, ...]:
        """Row counts ``t_i`` of the left blocks."""
        return tuple(b.block_size for b in self._left)

    @property
    def k_right(self) -> int:
        """Total number of right tangential columns (order of ``Lambda``)."""
        return int(sum(self.right_block_sizes))

    @property
    def k_left(self) -> int:
        """Total number of left tangential rows (order of ``M``)."""
        return int(sum(self.left_block_sizes))

    @property
    def n_sample_matrices(self) -> int:
        """Number of distinct sampled frequencies represented (conjugates not double-counted)."""
        divisor = 2 if self._conjugate_pairs else 1
        return (len(self._right) + len(self._left)) // divisor

    # ------------------------------------------------------------------ #
    # compact (concatenated) format of eqs. (8)-(9)
    # ------------------------------------------------------------------ #
    @property
    def lambda_points(self) -> np.ndarray:
        """Column sample points: ``lambda`` repeated ``t_i`` times per block (length ``k_right``)."""
        return np.concatenate([np.full(b.block_size, b.point) for b in self._right])

    @property
    def mu_points(self) -> np.ndarray:
        """Row sample points: ``mu`` repeated ``t_i`` times per block (length ``k_left``)."""
        return np.concatenate([np.full(b.block_size, b.point) for b in self._left])

    @property
    def Lambda(self) -> np.ndarray:
        """Diagonal matrix ``Lambda`` of eq. (8)."""
        return np.diag(self.lambda_points)

    @property
    def M(self) -> np.ndarray:
        """Diagonal matrix ``M`` of eq. (9)."""
        return np.diag(self.mu_points)

    @property
    def R(self) -> np.ndarray:
        """Right directions concatenated column-wise: ``m x k_right``."""
        return np.hstack([b.directions for b in self._right])

    @property
    def W(self) -> np.ndarray:
        """Right values concatenated column-wise: ``p x k_right``."""
        return np.hstack([b.values for b in self._right])

    @property
    def L(self) -> np.ndarray:
        """Left directions stacked row-wise: ``k_left x p``."""
        return np.vstack([b.directions for b in self._left])

    @property
    def V(self) -> np.ndarray:
        """Left values stacked row-wise: ``k_left x m``."""
        return np.vstack([b.values for b in self._left])

    # ------------------------------------------------------------------ #
    # selection (used by the recursive algorithm)
    # ------------------------------------------------------------------ #
    def _group_size(self) -> int:
        return 2 if self._conjugate_pairs else 1

    @property
    def n_right_samples(self) -> int:
        """Number of selectable right sample groups (conjugate pairs count once)."""
        return len(self._right) // self._group_size()

    @property
    def n_left_samples(self) -> int:
        """Number of selectable left sample groups (conjugate pairs count once)."""
        return len(self._left) // self._group_size()

    def subset(
        self,
        right_indices: Iterable[int],
        left_indices: Iterable[int],
    ) -> "TangentialData":
        """Restrict the data to a subset of sample groups.

        Indices refer to *sample groups*: when the data carries conjugate
        pairs, selecting group ``i`` keeps both the ``+j omega`` block and its
        mirrored partner, so the result remains eligible for the real
        transform.  The recursive front-end realizes each iteration's model
        from such a subset.
        """
        g = self._group_size()
        right_idx = sorted(set(int(i) for i in right_indices))
        left_idx = sorted(set(int(i) for i in left_indices))
        if not right_idx or not left_idx:
            raise ValueError("selection must keep at least one right and one left sample")
        if right_idx[0] < 0 or right_idx[-1] >= self.n_right_samples:
            raise ValueError("right sample index out of range")
        if left_idx[0] < 0 or left_idx[-1] >= self.n_left_samples:
            raise ValueError("left sample index out of range")
        right_blocks = []
        for i in right_idx:
            right_blocks.extend(self._right[i * g : (i + 1) * g])
        left_blocks = []
        for i in left_idx:
            left_blocks.extend(self._left[i * g : (i + 1) * g])
        return TangentialData(right_blocks, left_blocks,
                              conjugate_pairs=self._conjugate_pairs)

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def interpolation_residuals(self, system) -> tuple[np.ndarray, np.ndarray]:
        """Residual norms of the interpolation conditions (10) for a candidate model.

        Returns ``(right_residuals, left_residuals)`` -- one Frobenius residual
        ``||H(lambda_i) R_i - W_i||`` per right block and
        ``||L_i H(mu_i) - V_i||`` per left block.  Exact interpolation drives
        these to (numerical) zero.  All block points are evaluated in one
        batched sweep when the candidate model supports the shared evaluation
        kernel (``evaluate_many``); anything exposing only a scalar
        ``transfer_function`` is evaluated point by point.
        """
        points = [b.point for b in self._right] + [b.point for b in self._left]
        evaluate_many = getattr(system, "evaluate_many", None)
        if evaluate_many is not None:
            try:
                h = evaluate_many(points, method="solve")
            except TypeError:
                # duck-typed models with the plain evaluate_many(points)
                # signature (no strategy keyword) stay usable
                h = np.asarray(evaluate_many(points))
        else:
            h = np.stack([system.transfer_function(point) for point in points])
        n_right = len(self._right)
        right = np.array([
            np.linalg.norm(h[i] @ b.directions - b.values)
            for i, b in enumerate(self._right)
        ])
        left = np.array([
            np.linalg.norm(b.directions @ h[n_right + i] - b.values)
            for i, b in enumerate(self._left)
        ])
        return right, left

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TangentialData(right_blocks={len(self._right)}, left_blocks={len(self._left)}, "
            f"k_right={self.k_right}, k_left={self.k_left}, "
            f"conjugate_pairs={self._conjugate_pairs})"
        )


def _check_conjugate_pairs(blocks, side: str) -> None:
    """Raise for the first adjacent pair that is not a conjugate pair of equal size."""
    if len(blocks) % 2 != 0:
        raise ValueError(f"{side} blocks must come in conjugate pairs (even count)")
    sizes = np.array([b.block_size for b in blocks])
    points = np.array([b.point for b in blocks])
    mismatched = sizes[0::2] != sizes[1::2]
    failing = mismatched | ~np.isclose(points[1::2], np.conj(points[0::2]))
    if not failing.any():
        return
    pair = int(np.argmax(failing))
    if mismatched[pair]:
        raise ValueError(f"{side} conjugate pair {pair} has mismatched block sizes")
    a, b = blocks[2 * pair], blocks[2 * pair + 1]
    raise ValueError(
        f"{side} blocks {2 * pair} and {2 * pair + 1} are not a conjugate pair "
        f"({a.point} vs {b.point})"
    )


def build_tangential_data(
    data: FrequencyData,
    *,
    right_directions: Sequence[np.ndarray],
    left_directions: Sequence[np.ndarray],
    right_indices: Sequence[int] | None = None,
    left_indices: Sequence[int] | None = None,
    include_conjugates: bool = True,
) -> TangentialData:
    """Build :class:`TangentialData` from sampled frequency data (eqs. 6-7).

    Parameters
    ----------
    data:
        The sampled frequency responses ``S(f_i)``.
    right_directions, left_directions:
        One ``(n_ports, t_i)`` direction matrix per right/left sample; the left
        directions are supplied in column form as well and transposed
        internally into the ``t_i x p`` row form of the paper.
    right_indices, left_indices:
        Which samples of ``data`` become right/left data.  By default the
        samples are interleaved exactly as in eqs. (6)-(7): even positions
        (0, 2, 4, ...) to the right set, odd positions (1, 3, 5, ...) to the
        left set.
    include_conjugates:
        Append the mirrored blocks at ``-j 2 pi f`` (conjugated data), which is
        required for a real realization.  Disable only for experiments on
        intrinsically complex data.

    Returns
    -------
    TangentialData
    """
    k = data.n_samples
    if right_indices is None and left_indices is None:
        right_indices = list(range(0, k, 2))
        left_indices = list(range(1, k, 2))
    if right_indices is None or left_indices is None:
        raise ValueError("pass both right_indices and left_indices, or neither")
    right_indices = [int(i) for i in right_indices]
    left_indices = [int(i) for i in left_indices]
    if set(right_indices) & set(left_indices):
        raise ValueError("a sample cannot be both right and left data")
    if len(right_directions) != len(right_indices):
        raise ValueError(
            f"need {len(right_indices)} right direction matrices, got {len(right_directions)}"
        )
    if len(left_directions) != len(left_indices):
        raise ValueError(
            f"need {len(left_indices)} left direction matrices, got {len(left_directions)}"
        )

    right_blocks: list[RightBlock] = []
    for direction, idx in zip(right_directions, right_indices):
        direction = np.asarray(direction, dtype=complex)
        if direction.ndim == 1:
            direction = direction.reshape(-1, 1)
        sample = data.samples[idx]
        point = 1j * 2.0 * np.pi * data.frequencies_hz[idx]
        block = RightBlock(point, direction, sample @ direction)
        right_blocks.append(block)
        if include_conjugates:
            right_blocks.append(block.conjugate())

    left_blocks: list[LeftBlock] = []
    for direction, idx in zip(left_directions, left_indices):
        direction = np.asarray(direction, dtype=complex)
        if direction.ndim == 1:
            direction = direction.reshape(-1, 1)
        row_direction = direction.conj().T if np.iscomplexobj(direction) else direction.T
        sample = data.samples[idx]
        point = 1j * 2.0 * np.pi * data.frequencies_hz[idx]
        block = LeftBlock(point, row_direction, row_direction @ sample)
        left_blocks.append(block)
        if include_conjugates:
            left_blocks.append(block.conjugate())

    return TangentialData(right_blocks, left_blocks, conjugate_pairs=include_conjugates)
