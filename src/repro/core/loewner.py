"""Block-format Loewner and shifted Loewner matrices (eqs. 11-13 of the paper).

Given tangential data with left points ``mu_a`` (one per tangential row) and
right points ``lambda_b`` (one per tangential column), the Loewner matrix and
the shifted Loewner matrix are

``L[a, b]  = (V[a, :] R[:, b] - L[a, :] W[:, b]) / (mu_a - lambda_b)``
``sL[a, b] = (mu_a V[a, :] R[:, b] - lambda_b L[a, :] W[:, b]) / (mu_a - lambda_b)``

-- exactly eqs. (11)-(12) written entrywise.  Both satisfy the Sylvester
equations (13), which :func:`sylvester_residuals` verifies and the test-suite
uses as a structural invariant.

The :class:`LoewnerPencil` value object bundles the two matrices together with
the tangential quantities needed for realization (``W``, ``V``, the sample
points and the block structure) and provides the singular-value profiles the
paper plots in Fig. 1.

For conjugate-paired data the ``-j omega`` rows of both matrices are, bit for
bit, the conjugates of the ``+j omega`` rows, so Lemma 3.2's real pencil is a
closed-form function of the ``+j omega`` half alone: ``build_loewner_pencil(
data, real=True)`` -- the fit path -- assembles only that half, from the
``+j omega`` blocks the tangential data stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.tangential import TangentialData, _pair_halves
from repro.utils.linalg import economic_svd, rowcol_product

__all__ = [
    "LoewnerPencil",
    "build_loewner_pencil",
    "divided_difference_blocks",
    "real_from_half",
    "real_tangential_values",
    "sylvester_residuals",
]


@dataclass(frozen=True)
class LoewnerPencil:
    """The Loewner pencil and the tangential quantities needed to realize a model.

    Attributes
    ----------
    loewner:
        The Loewner matrix ``L`` (``k_left x k_right``).
    shifted_loewner:
        The shifted Loewner matrix ``sL`` (same shape).
    W:
        Right tangential values (``p x k_right``) -- becomes the ``C`` matrix.
    V:
        Left tangential values (``k_left x m``) -- becomes the ``B`` matrix.
    lambda_points, mu_points:
        Column / row sample points (the diagonal entries of ``Lambda`` / ``M``).
    right_block_sizes, left_block_sizes:
        Block structure ``t_i``, mirrored blocks included.
    is_real:
        True once the real transform of Lemma 3.2 has been applied; the sample
        points are then kept only for reference (choice of ``x0``, reporting).
    """

    loewner: np.ndarray
    shifted_loewner: np.ndarray
    W: np.ndarray
    V: np.ndarray
    lambda_points: np.ndarray
    mu_points: np.ndarray
    right_block_sizes: tuple[int, ...]
    left_block_sizes: tuple[int, ...]
    is_real: bool = False

    def __post_init__(self):
        loewner = np.asarray(self.loewner)
        shifted = np.asarray(self.shifted_loewner)
        if loewner.shape != shifted.shape:
            raise ValueError("Loewner and shifted Loewner matrices must have the same shape")
        k_left, k_right = loewner.shape
        if np.asarray(self.W).shape[1] != k_right:
            raise ValueError("W must have one column per right tangential column")
        if np.asarray(self.V).shape[0] != k_left:
            raise ValueError("V must have one row per left tangential row")
        if np.asarray(self.lambda_points).size != k_right:
            raise ValueError("lambda_points must have one entry per right tangential column")
        if np.asarray(self.mu_points).size != k_left:
            raise ValueError("mu_points must have one entry per left tangential row")

    # ------------------------------------------------------------------ #
    # shapes
    # ------------------------------------------------------------------ #
    @property
    def k_left(self) -> int:
        """Number of tangential rows (rows of the Loewner matrix)."""
        return int(self.loewner.shape[0])

    @property
    def k_right(self) -> int:
        """Number of tangential columns (columns of the Loewner matrix)."""
        return int(self.loewner.shape[1])

    @property
    def is_square(self) -> bool:
        """True when the Loewner matrices are square (required by Lemma 3.1)."""
        return self.k_left == self.k_right

    @property
    def n_outputs(self) -> int:
        """System output count ``p`` (rows of ``W``)."""
        return int(np.asarray(self.W).shape[0])

    @property
    def n_inputs(self) -> int:
        """System input count ``m`` (columns of ``V``)."""
        return int(np.asarray(self.V).shape[1])

    @property
    def sample_points(self) -> np.ndarray:
        """All distinct sample points ``{lambda_i} union {mu_i}``."""
        return np.unique(np.concatenate([self.lambda_points, self.mu_points]))

    # ------------------------------------------------------------------ #
    # pencil evaluations and singular values
    # ------------------------------------------------------------------ #
    def shifted_pencil(self, x0: complex) -> np.ndarray:
        """The matrix ``x0 * L - sL`` whose rank reveals the underlying order (Lemma 3.3)."""
        return complex(x0) * self.loewner - self.shifted_loewner

    def singular_values(self, x0: Optional[complex] = None) -> dict[str, np.ndarray]:
        """Singular-value profiles of ``L``, ``sL`` and ``x0*L - sL`` (paper Fig. 1).

        Keys ``"loewner"``, ``"shifted_loewner"`` and ``"pencil"``.  ``x0``
        defaults to the first right sample point, matching the remark after
        Lemma 3.4 that choosing ``x0 = lambda_1`` makes ``x0*L - sL`` behave
        like ``sL``.  Fits do not call this (only the realization SVDs run);
        the Fig.-1 experiments compute the profiles on demand.
        """
        if x0 is None:
            x0 = self.lambda_points[0]
        matrices = {
            "loewner": self.loewner,
            "shifted_loewner": self.shifted_loewner,
            "pencil": self.shifted_pencil(x0),
        }
        return {name: economic_svd(matrix)[1] for name, matrix in matrices.items()}

    def augmented_row_matrix(self) -> np.ndarray:
        """The row-concatenated matrix ``[L  sL]`` used by the two-sided SVD realization."""
        return np.hstack([self.loewner, self.shifted_loewner])

    def augmented_column_matrix(self) -> np.ndarray:
        """The column-stacked matrix ``[L; sL]`` used by the two-sided SVD realization."""
        return np.vstack([self.loewner, self.shifted_loewner])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "real" if self.is_real else "complex"
        return (
            f"LoewnerPencil(shape=({self.k_left}, {self.k_right}), "
            f"p={self.n_outputs}, m={self.n_inputs}, {kind})"
        )


def divided_difference_blocks(
    vr: np.ndarray,
    lw: np.ndarray,
    mu: np.ndarray,
    lam: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise divided differences of eqs. (11)-(12).

    Every entry depends only on its own ``(mu_a, lambda_b, vr[a, b],
    lw[a, b])``; :func:`build_loewner_pencil` applies it to all rows of the
    complex pencil, or to the ``+j omega`` rows of the real one.

    Raises
    ------
    ValueError
        If a left and a right sample point coincide (the divided differences
        would blow up; the framework requires disjoint point sets).
    """
    denom = mu[:, np.newaxis] - lam[np.newaxis, :]
    if np.any(np.abs(denom) < 1e-300):
        raise ValueError("left and right sample points must be disjoint")
    loewner = (vr - lw) / denom
    shifted = (mu[:, np.newaxis] * vr - lw * lam[np.newaxis, :]) / denom
    return loewner, shifted


def _uniform_size(sizes: np.ndarray) -> int:
    """The block size when every sample has the same one, else ``0``."""
    return int(sizes[0]) if np.all(sizes == sizes[0]) else 0


def real_from_half(half: np.ndarray, left_sizes, right_sizes) -> np.ndarray:
    """Lemma 3.2's ``T_l* M T_r`` from the ``+j omega`` rows of a conjugate-structured ``M``.

    ``left_sizes``/``right_sizes`` are the block sizes of the stored
    samples (:attr:`TangentialData.left_sizes` / ``right_sizes``).  For
    ``x = M[a, b]`` and ``y = M[a, b_bar]`` (``a`` a ``+j omega`` row,
    ``b``/``b_bar`` the two halves of a column pair) the real block is
    ``[[Re x + Re y, Im x - Im y], [-(Im x + Im y), Re x - Re y]]``: exactly
    the entries, bit for bit, of mixing the rows and then the columns of the
    full ``M`` pair by pair and scaling by ``0.5``, because the ``-j omega``
    rows are the conjugates of the ``+j omega`` rows.  When each side's
    blocks share one size (every fit with a scalar ``block_size``), the four
    quadrants are strided views of ``half`` and of the result.
    """
    left_sizes, right_sizes = np.asarray(left_sizes), np.asarray(right_sizes)
    out = np.empty((2 * half.shape[0], half.shape[1]))
    t_rows, t_cols = _uniform_size(left_sizes), _uniform_size(right_sizes)
    if t_rows and t_cols:
        pairs = half.reshape(-1, t_rows, right_sizes.size, 2, t_cols)
        quadrants = out.reshape(-1, 2, t_rows, right_sizes.size, 2, t_cols)
        x, y = pairs[:, :, :, 0], pairs[:, :, :, 1]

        def put(row_half: int, col_half: int, value: np.ndarray) -> None:
            quadrants[:, row_half, :, :, col_half] = value
    else:
        rows, columns = _pair_halves(left_sizes), _pair_halves(right_sizes)
        x, y = half[:, columns[0]], half[:, columns[1]]

        def put(row_half: int, col_half: int, value: np.ndarray) -> None:
            out[np.ix_(rows[row_half], columns[col_half])] = value
    put(0, 0, x.real + y.real)
    put(0, 1, x.imag - y.imag)
    put(1, 0, -(x.imag + y.imag))
    put(1, 1, x.real - y.real)
    return out


def real_tangential_values(v_half: np.ndarray, w_half: np.ndarray, left_sizes,
                           right_sizes) -> tuple[np.ndarray, np.ndarray]:
    """Lemma 3.2's ``T_l* V`` and ``W T_r`` from the ``+j omega`` blocks of ``V`` and ``W``.

    ``V`` rows become ``(Re v + Re v) sqrt(1/2)`` and ``-(Im v + Im v)
    sqrt(1/2)``, ``W`` columns ``(Re w + Re w) sqrt(1/2)`` and ``(Im w +
    Im w) sqrt(1/2)`` -- bitwise the pair-by-pair mixing of the full
    matrices.
    """
    rows = _pair_halves(left_sizes)
    columns = _pair_halves(right_sizes)
    factor = np.sqrt(0.5)
    v = np.empty((2 * v_half.shape[0], v_half.shape[1]))
    v[rows[0]] = (v_half.real + v_half.real) * factor
    v[rows[1]] = -(v_half.imag + v_half.imag) * factor
    w = np.empty((w_half.shape[0], 2 * w_half.shape[1]))
    w[:, columns[0]] = (w_half.real + w_half.real) * factor
    w[:, columns[1]] = (w_half.imag + w_half.imag) * factor
    return v, w


def build_loewner_pencil(data: TangentialData, *, real: bool = False) -> LoewnerPencil:
    """Assemble the (shifted) Loewner matrices from tangential data (eqs. 11-12).

    The ``V @ R`` and ``L @ W`` products go through
    :func:`~repro.utils.linalg.rowcol_product`, which fixes each entry's
    summation order (its docstring says why it stays).  MFTI, VFTI and
    every iteration of recursive MFTI assemble their pencils here.

    ``real=True`` (what a fit with ``real_output`` asks for) returns Lemma
    3.2's real pencil ``T_l* L T_r``, ``T_l* sL T_r``, ``T_l* V``, ``W T_r``
    instead of the complex one.  Its rows are taken from the stored ``+j
    omega`` left blocks: only those rows of the products and their divided
    differences are computed, and :func:`real_from_half` and
    :func:`real_tangential_values` write the real matrices from them.  The
    Fig.-1 singular-value profiles read the complex pencil (the default).

    Raises
    ------
    ValueError
        If a left and a right sample point coincide (the divided differences
        would blow up; the framework requires disjoint point sets), or, with
        ``real=True``, if the data is not conjugate-paired.
    """
    lam = data.lambda_points
    mu = data.mu_points
    if not real:
        loewner, shifted = divided_difference_blocks(
            rowcol_product(data.V, data.R),      # (k_left, k_right)
            rowcol_product(data.L, data.W),      # (k_left, k_right)
            mu, lam)
        return LoewnerPencil(
            loewner=loewner,
            shifted_loewner=shifted,
            W=data.W,
            V=data.V,
            lambda_points=lam,
            mu_points=mu,
            right_block_sizes=data.right_block_sizes,
            left_block_sizes=data.left_block_sizes,
            is_real=False,
        )
    if not data.conjugate_pairs:
        raise ValueError(
            "a real Loewner pencil needs conjugate-paired tangential data "
            "(include_conjugates=True)"
        )
    loewner_half, shifted_half = divided_difference_blocks(
        rowcol_product(data.left_values, data.R),        # (k_left / 2, k_right)
        rowcol_product(data.left_directions, data.W),    # (k_left / 2, k_right)
        np.repeat(data.left_points, data.left_sizes), lam)
    v, w = real_tangential_values(data.left_values, data.right_values,
                                  data.left_sizes, data.right_sizes)
    return LoewnerPencil(
        loewner=real_from_half(loewner_half, data.left_sizes, data.right_sizes),
        shifted_loewner=real_from_half(shifted_half, data.left_sizes, data.right_sizes),
        W=w,
        V=v,
        lambda_points=lam,
        mu_points=mu,
        right_block_sizes=data.right_block_sizes,
        left_block_sizes=data.left_block_sizes,
        is_real=True,
    )


def sylvester_residuals(pencil: LoewnerPencil, data: TangentialData) -> tuple[float, float]:
    """Relative residuals of the two Sylvester equations (13).

    Returns ``(residual_loewner, residual_shifted)`` where each residual is the
    Frobenius norm of the equation defect divided by the norm of its right-hand
    side.  Both should be at round-off level for a correctly assembled pencil;
    the property-based tests assert this for random data.
    """
    lam = np.diag(data.lambda_points)
    mu = np.diag(data.mu_points)
    lw = data.L @ data.W
    vr = data.V @ data.R

    rhs1 = lw - vr
    lhs1 = pencil.loewner @ lam - mu @ pencil.loewner
    res1 = np.linalg.norm(lhs1 - rhs1) / max(np.linalg.norm(rhs1), 1e-300)

    rhs2 = lw @ lam - mu @ vr
    lhs2 = pencil.shifted_loewner @ lam - mu @ pencil.shifted_loewner
    res2 = np.linalg.norm(lhs2 - rhs2) / max(np.linalg.norm(rhs2), 1e-300)
    return float(res1), float(res2)
