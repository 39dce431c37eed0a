"""Tangential interpolation data (vector and matrix format).

This module implements eqs. (4) and (6)-(9) of the paper: it takes sampled
frequency-response matrices and turns them into *right* and *left* tangential
interpolation data,

* right data  ``(lambda_i, R_i, W_i = S(f_i) R_i)`` -- column information,
* left data   ``(mu_i, L_i, V_i = L_i S(f_i))``    -- row information,

including the mirrored (complex-conjugate) copies at ``-j 2 pi f`` that make a
real realization possible (Lemma 3.2).  The vector format of VFTI is simply
the special case where every direction has a single column/row.

:class:`TangentialData` stores each side once, stacked: the sample points,
their block sizes ``t_i``, and the directions and values of every sample side
by side.  The mirrored ``-j omega`` blocks are the conjugates of the stored
ones by definition, so they are implied rather than stored; the compact
matrices ``R, W, L, V`` of eqs. (8)-(9) and the diagonals of ``Lambda`` and
``M`` (``lambda_points``, ``mu_points``), which the Loewner assembly
consumes, interleave them on demand, each mirrored block right after its
``+j omega`` block.  The data carries no model check: the residuals of the
interpolation conditions (10) are a test oracle, since no fit computes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.data.dataset import FrequencyData

__all__ = ["TangentialData", "build_tangential_data"]


def _pair_halves(sizes) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the ``+j omega`` and ``-j omega`` lines of interleaved blocks.

    ``sizes`` lists the block sizes ``t_i`` of the stored samples; in the
    interleaved layout each sample's ``t_i`` lines are followed by the
    ``t_i`` lines of its mirrored block.  Entry ``i`` of the two returned
    arrays names the two rows (or columns) that one ``(1/sqrt(2)) [[I, -jI],
    [I, jI]]`` block of the Lemma 3.2 transform mixes.
    """
    sizes = np.asarray(sizes, dtype=int)
    starts = np.cumsum(sizes) - sizes
    plus = np.arange(sizes.sum()) + np.repeat(starts, sizes)
    return plus, plus + np.repeat(sizes, sizes)


def _block_slices(sizes) -> list[slice]:
    """The stacked lines of each block, in order."""
    ends = np.cumsum(sizes)
    return [slice(int(end - t), int(end)) for t, end in zip(sizes, ends)]


@dataclass(frozen=True, eq=False)
class TangentialData:
    """Right and left tangential interpolation data, stacked per side.

    Attributes
    ----------
    right_points, left_points:
        The sample points ``lambda_i`` / ``mu_i``, one per sample (the
        ``+j omega`` ones when ``conjugate_pairs``).
    right_sizes, left_sizes:
        The block sizes ``t_i``: columns of each ``R_i``, rows of each ``L_i``.
    right_directions, right_values:
        The ``R_i`` and ``W_i = H(lambda_i) R_i`` side by side (``m x sum t_i``
        and ``p x sum t_i``).
    left_directions, left_values:
        The ``L_i`` and ``V_i = L_i H(mu_i)`` stacked (``sum t_i x p`` and
        ``sum t_i x m``).
    conjugate_pairs:
        Whether every sample also stands for its mirrored block at
        ``conj(point)`` (directions and values conjugated) -- the layout the
        real transform of Lemma 3.2 expects.  The mirrored blocks are implied,
        not stored.
    """

    right_points: np.ndarray
    right_sizes: np.ndarray
    right_directions: np.ndarray
    right_values: np.ndarray
    left_points: np.ndarray
    left_sizes: np.ndarray
    left_directions: np.ndarray
    left_values: np.ndarray
    conjugate_pairs: bool = True

    def __post_init__(self):
        for name, dtype, ndim in (
            ("right_points", complex, 1), ("right_sizes", int, 1),
            ("right_directions", complex, 2), ("right_values", complex, 2),
            ("left_points", complex, 1), ("left_sizes", int, 1),
            ("left_directions", complex, 2), ("left_values", complex, 2),
        ):
            value = np.asarray(getattr(self, name), dtype=dtype)
            if value.ndim != ndim:
                raise ValueError(f"{name} must have {ndim} dimension(s), got {value.ndim}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "conjugate_pairs", bool(self.conjugate_pairs))
        if not self.right_points.size or not self.left_points.size:
            raise ValueError("tangential data needs at least one right and one left sample")
        for side, points, sizes, lines in (
            ("right", self.right_points, self.right_sizes,
             {self.right_directions.shape[1], self.right_values.shape[1]}),
            ("left", self.left_points, self.left_sizes,
             {self.left_directions.shape[0], self.left_values.shape[0]}),
        ):
            if sizes.shape != points.shape or np.any(sizes < 1):
                raise ValueError(f"{side} data needs one positive block size per sample point")
            if lines != {int(sizes.sum())}:
                raise ValueError(
                    f"{side} directions and values must have one line per tangential "
                    f"{'column' if side == 'right' else 'row'} ({int(sizes.sum())})"
                )
        if (self.left_directions.shape[1] != self.n_outputs
                or self.left_values.shape[1] != self.n_inputs):
            raise ValueError("left and right data disagree on the system dimensions (p, m)")
        lam, mu = self._blockwise(self.right_points), self._blockwise(self.left_points)
        if np.intersect1d(np.round(lam, 12), np.round(mu, 12)).size:
            raise ValueError("right and left sample points must be disjoint")

    # ------------------------------------------------------------------ #
    # sizes
    # ------------------------------------------------------------------ #
    @property
    def n_inputs(self) -> int:
        """Number of system inputs ``m``."""
        return int(self.right_directions.shape[0])

    @property
    def n_outputs(self) -> int:
        """Number of system outputs ``p``."""
        return int(self.right_values.shape[0])

    @property
    def n_right_samples(self) -> int:
        """Number of right samples (a conjugate pair counts once)."""
        return int(self.right_points.size)

    @property
    def n_left_samples(self) -> int:
        """Number of left samples (a conjugate pair counts once)."""
        return int(self.left_points.size)

    @property
    def right_block_sizes(self) -> tuple[int, ...]:
        """Column counts ``t_i`` of the right blocks, mirrored blocks included."""
        return tuple(int(t) for t in self._blockwise(self.right_sizes))

    @property
    def left_block_sizes(self) -> tuple[int, ...]:
        """Row counts ``t_i`` of the left blocks, mirrored blocks included."""
        return tuple(int(t) for t in self._blockwise(self.left_sizes))

    @property
    def k_right(self) -> int:
        """Total number of right tangential columns (order of ``Lambda``)."""
        return int(self.right_directions.shape[1]) * self._copies

    @property
    def k_left(self) -> int:
        """Total number of left tangential rows (order of ``M``)."""
        return int(self.left_directions.shape[0]) * self._copies

    # ------------------------------------------------------------------ #
    # compact (interleaved) format of eqs. (8)-(9)
    # ------------------------------------------------------------------ #
    @property
    def _copies(self) -> int:
        return 2 if self.conjugate_pairs else 1

    def _blockwise(self, per_sample: np.ndarray) -> np.ndarray:
        """One entry per block: each sample's entry followed by its mirror's."""
        if not self.conjugate_pairs:
            return per_sample
        return np.stack([per_sample, per_sample.conj()], axis=1).ravel()

    def _interleaved(self, stacked: np.ndarray, sizes: np.ndarray, axis: int) -> np.ndarray:
        """``stacked`` with each block's conjugate right after it along ``axis``."""
        if not self.conjugate_pairs:
            return stacked
        plus, minus = _pair_halves(sizes)
        shape = list(stacked.shape)
        shape[axis] *= 2
        full = np.empty(shape, dtype=stacked.dtype)
        lines = (slice(None),) * axis
        full[lines + (plus,)] = stacked
        full[lines + (minus,)] = stacked.conj()
        return full

    @property
    def lambda_points(self) -> np.ndarray:
        """Column sample points: ``lambda`` repeated ``t_i`` times per block (length ``k_right``)."""
        return self._interleaved(np.repeat(self.right_points, self.right_sizes),
                                 self.right_sizes, 0)

    @property
    def mu_points(self) -> np.ndarray:
        """Row sample points: ``mu`` repeated ``t_i`` times per block (length ``k_left``)."""
        return self._interleaved(np.repeat(self.left_points, self.left_sizes),
                                 self.left_sizes, 0)

    @property
    def R(self) -> np.ndarray:
        """Right directions of every block, column-wise: ``m x k_right``."""
        return self._interleaved(self.right_directions, self.right_sizes, 1)

    @property
    def W(self) -> np.ndarray:
        """Right values of every block, column-wise: ``p x k_right``."""
        return self._interleaved(self.right_values, self.right_sizes, 1)

    @property
    def L(self) -> np.ndarray:
        """Left directions of every block, row-wise: ``k_left x p``."""
        return self._interleaved(self.left_directions, self.left_sizes, 0)

    @property
    def V(self) -> np.ndarray:
        """Left values of every block, row-wise: ``k_left x m``."""
        return self._interleaved(self.left_values, self.left_sizes, 0)

    # ------------------------------------------------------------------ #
    # selection (used by the recursive algorithm)
    # ------------------------------------------------------------------ #
    def subset(
        self,
        right_indices: Iterable[int],
        left_indices: Iterable[int],
    ) -> "TangentialData":
        """Restrict the data to a subset of samples.

        Selecting sample ``i`` keeps its mirrored block too when the data
        carries conjugate pairs, so the result remains eligible for the real
        transform.  Order and repeats of the indices do not matter.  The
        recursive front-end realizes each iteration's model from such a
        subset.
        """
        right_idx = sorted(set(int(i) for i in right_indices))
        left_idx = sorted(set(int(i) for i in left_indices))
        if not right_idx or not left_idx:
            raise ValueError("selection must keep at least one right and one left sample")
        if right_idx[0] < 0 or right_idx[-1] >= self.n_right_samples:
            raise ValueError("right sample index out of range")
        if left_idx[0] < 0 or left_idx[-1] >= self.n_left_samples:
            raise ValueError("left sample index out of range")
        columns = np.repeat(np.isin(np.arange(self.n_right_samples), right_idx),
                            self.right_sizes)
        rows = np.repeat(np.isin(np.arange(self.n_left_samples), left_idx), self.left_sizes)
        return TangentialData(
            right_points=self.right_points[right_idx],
            right_sizes=self.right_sizes[right_idx],
            right_directions=self.right_directions[:, columns],
            right_values=self.right_values[:, columns],
            left_points=self.left_points[left_idx],
            left_sizes=self.left_sizes[left_idx],
            left_directions=self.left_directions[rows],
            left_values=self.left_values[rows],
            conjugate_pairs=self.conjugate_pairs,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TangentialData(right_samples={self.n_right_samples}, "
            f"left_samples={self.n_left_samples}, k_right={self.k_right}, "
            f"k_left={self.k_left}, conjugate_pairs={self.conjugate_pairs})"
        )


def _checked_indices(indices: Sequence[int], n_samples: int, side: str) -> list[int]:
    indices = [int(i) for i in indices]
    for i in indices:
        if not 0 <= i < n_samples:
            raise ValueError(f"{side} sample index {i} is outside [0, {n_samples})")
    return indices


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
        directions are supplied in column form as well and conjugate-transposed
        internally into the ``t_i x p`` row form of the paper.
    right_indices, left_indices:
        Which samples of ``data`` become right/left data, each in
        ``[0, data.n_samples)``.  By default the samples are interleaved
        exactly as in eqs. (6)-(7): even positions (0, 2, 4, ...) to the
        right set, odd positions (1, 3, 5, ...) to the left set.
    include_conjugates:
        Let every sample also stand for its mirrored block at ``-j 2 pi f``
        (conjugated data), which is required for a real realization.  Disable
        only for experiments on intrinsically complex data.

    Returns
    -------
    TangentialData
    """
    k = data.n_samples
    if right_indices is None and left_indices is None:
        right_indices = range(0, k, 2)
        left_indices = range(1, k, 2)
    if right_indices is None or left_indices is None:
        raise ValueError("pass both right_indices and left_indices, or neither")
    right_indices = _checked_indices(right_indices, k, "right")
    left_indices = _checked_indices(left_indices, k, "left")
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
    if not right_indices or not left_indices:
        raise ValueError("tangential data needs at least one right and one left sample")

    def columns(direction) -> np.ndarray:
        direction = np.asarray(direction, dtype=complex)
        return direction.reshape(-1, 1) if direction.ndim == 1 else direction

    rights = [columns(direction) for direction in right_directions]
    lefts = [columns(direction).conj().T for direction in left_directions]
    return TangentialData(
        right_points=1j * 2.0 * np.pi * data.frequencies_hz[right_indices],
        right_sizes=[direction.shape[1] for direction in rights],
        right_directions=np.hstack(rights),
        right_values=np.hstack([data.samples[i] @ r for i, r in zip(right_indices, rights)]),
        left_points=1j * 2.0 * np.pi * data.frequencies_hz[left_indices],
        left_sizes=[direction.shape[0] for direction in lefts],
        left_directions=np.vstack(lefts),
        left_values=np.vstack([left @ data.samples[i] for i, left in zip(left_indices, lefts)]),
        conjugate_pairs=include_conjugates,
    )
