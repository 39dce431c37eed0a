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
closed-form function of the ``+j omega`` half alone:
:func:`real_pencil_from_half` writes it, and ``build_loewner_pencil(data,
real=True)`` -- the fit path -- assembles only that half.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.tangential import TangentialData
from repro.utils.linalg import economic_svd, rowcol_product

__all__ = [
    "CONJUGATE_TOLERANCE",
    "LoewnerPencil",
    "build_loewner_pencil",
    "divided_difference_blocks",
    "real_from_half",
    "real_pencil_from_half",
    "real_tangential_values",
    "require_conjugate_data",
    "require_conjugate_halves",
    "sylvester_residuals",
]

#: Relative deviation of a ``-j omega`` half from the conjugate of its
#: ``+j omega`` half above which the data counts as not conjugate-symmetric.
CONJUGATE_TOLERANCE = 1e-6


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
        Block structure ``t_i`` (needed by the real transform).
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


def _pair_halves(block_sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the ``+j omega`` and ``-j omega`` halves of every conjugate pair.

    ``block_sizes`` lists the tangential block sizes in order; they must come
    in adjacent pairs of equal size (one block at ``+j omega``, one at
    ``-j omega``).  Entry ``i`` of the two returned arrays names the two rows
    (or columns) that one ``(1/sqrt(2)) [[I, -jI], [I, jI]]`` block of the
    Lemma 3.2 transform mixes.
    """
    sizes = np.asarray(block_sizes, dtype=int)
    if sizes.size % 2 != 0:
        raise ValueError("block sizes must come in conjugate pairs (even count)")
    t_plus, t_minus = sizes[0::2], sizes[1::2]
    mismatched = np.flatnonzero(t_plus != t_minus)
    if mismatched.size:
        pair = int(mismatched[0])
        raise ValueError(
            f"conjugate pair {pair} has mismatched block sizes "
            f"({t_plus[pair]}, {t_minus[pair]})"
        )
    pair_starts = np.cumsum(2 * t_plus) - 2 * t_plus
    within = np.arange(t_plus.sum()) - np.repeat(np.cumsum(t_plus) - t_plus, t_plus)
    plus = np.repeat(pair_starts, t_plus) + within
    return plus, plus + np.repeat(t_plus, t_plus)


def require_conjugate_halves(name: str, plus: np.ndarray, minus: np.ndarray,
                             tolerance: float = CONJUGATE_TOLERANCE) -> None:
    """Raise unless ``minus`` is ``conj(plus)`` up to ``tolerance`` (relative).

    The real pencil is written from the ``+j omega`` half alone, so data
    whose ``-j omega`` half is not the conjugate of its ``+j omega`` half
    would silently realize some other model; this is the check that refuses
    it, before any SVD runs.
    """
    if not plus.size:
        return
    scale = float(np.max(np.abs(plus)))
    deviation = float(np.max(np.abs(minus - np.conj(plus))))
    if not deviation <= tolerance * scale:
        raise ValueError(
            f"the -j omega half of {name} deviates from the conjugate of its "
            f"+j omega half by {deviation:.2e} (scale {scale:.2e}); the tangential "
            "data is not conjugate-symmetric"
        )


def _uniform_pair_size(block_sizes: tuple[int, ...]) -> int:
    """The block size when every block has one size (in pairs), else ``0``."""
    sizes = set(block_sizes)
    return sizes.pop() if len(sizes) == 1 and len(block_sizes) % 2 == 0 else 0


def real_from_half(half: np.ndarray, left_block_sizes, right_block_sizes) -> np.ndarray:
    """Lemma 3.2's ``T_l* M T_r`` from the ``+j omega`` rows of a conjugate-structured ``M``.

    For ``x = M[a, b]`` and ``y = M[a, b_bar]`` (``a`` a ``+j omega`` row,
    ``b``/``b_bar`` the two halves of a column pair) the real block is
    ``[[Re x + Re y, Im x - Im y], [-(Im x + Im y), Re x - Re y]]``: exactly
    the entries, bit for bit, of mixing the rows and then the columns of the
    full ``M`` pair by pair and scaling by ``0.5``, because the ``-j omega``
    rows are the conjugates of the ``+j omega`` rows.  When each side's
    blocks share one size (every fit with a scalar ``block_size``), the four
    quadrants are strided views of ``half`` and of the result.
    """
    out = np.empty((2 * half.shape[0], half.shape[1]))
    t_rows, t_cols = _uniform_pair_size(left_block_sizes), _uniform_pair_size(right_block_sizes)
    if t_rows and t_cols:
        n_col_pairs = half.shape[1] // (2 * t_cols)
        pairs = half.reshape(-1, t_rows, n_col_pairs, 2, t_cols)
        quadrants = out.reshape(-1, 2, t_rows, n_col_pairs, 2, t_cols)
        x, y = pairs[:, :, :, 0], pairs[:, :, :, 1]

        def put(row_half: int, col_half: int, value: np.ndarray) -> None:
            quadrants[:, row_half, :, :, col_half] = value
    else:
        rows, columns = _pair_halves(left_block_sizes), _pair_halves(right_block_sizes)
        x, y = half[:, columns[0]], half[:, columns[1]]

        def put(row_half: int, col_half: int, value: np.ndarray) -> None:
            out[np.ix_(rows[row_half], columns[col_half])] = value
    put(0, 0, x.real + y.real)
    put(0, 1, x.imag - y.imag)
    put(1, 0, -(x.imag + y.imag))
    put(1, 1, x.real - y.real)
    return out


def real_tangential_values(v_half: np.ndarray, w: np.ndarray, left_block_sizes,
                           right_block_sizes) -> tuple[np.ndarray, np.ndarray]:
    """Lemma 3.2's ``T_l* V`` and ``W T_r`` from the ``+j omega`` rows of ``V``.

    ``V`` rows become ``(Re v + Re v) sqrt(1/2)`` and ``-(Im v + Im v)
    sqrt(1/2)``, ``W`` columns ``(Re w + Re w) sqrt(1/2)`` and ``(Im w +
    Im w) sqrt(1/2)`` (``w`` the ``+j omega`` column of each pair) -- bitwise
    the pair-by-pair mixing of the full matrices.
    """
    rows = _pair_halves(left_block_sizes)
    columns = _pair_halves(right_block_sizes)
    factor = np.sqrt(0.5)
    v = np.empty((2 * v_half.shape[0], v_half.shape[1]))
    v[rows[0]] = (v_half.real + v_half.real) * factor
    v[rows[1]] = -(v_half.imag + v_half.imag) * factor
    w_plus = w[:, columns[0]]
    w_real = np.empty(w.shape)
    w_real[:, columns[0]] = (w_plus.real + w_plus.real) * factor
    w_real[:, columns[1]] = (w_plus.imag + w_plus.imag) * factor
    return v, w_real


def real_pencil_from_half(
    loewner_half: np.ndarray,
    shifted_half: np.ndarray,
    v_half: np.ndarray,
    w: np.ndarray,
    *,
    lambda_points: np.ndarray,
    mu_points: np.ndarray,
    right_block_sizes: tuple[int, ...],
    left_block_sizes: tuple[int, ...],
) -> LoewnerPencil:
    """Lemma 3.2's real pencil written from the ``+j omega`` half of a complex one.

    ``loewner_half``/``shifted_half`` are the ``+j omega`` rows (every
    column) of ``L``/``sL`` and ``v_half`` the same rows of ``V``; ``w`` is
    the full ``W``.  The result equals ``T_l* L T_r``, ``T_l* sL T_r``,
    ``T_l* V`` and ``W T_r`` bitwise (:func:`real_from_half`,
    :func:`real_tangential_values`).  The caller vouches that the
    ``-j omega`` half is the conjugate of the ``+j omega`` half
    (:func:`require_conjugate_halves`).
    """
    v, w_real = real_tangential_values(v_half, w, left_block_sizes, right_block_sizes)
    return LoewnerPencil(
        loewner=real_from_half(loewner_half, left_block_sizes, right_block_sizes),
        shifted_loewner=real_from_half(shifted_half, left_block_sizes, right_block_sizes),
        W=w_real,
        V=v,
        lambda_points=lambda_points,
        mu_points=mu_points,
        right_block_sizes=tuple(right_block_sizes),
        left_block_sizes=tuple(left_block_sizes),
        is_real=True,
    )


def require_conjugate_data(data: TangentialData) -> np.ndarray:
    """The ``+j omega`` left rows of conjugate-paired ``data``, checked.

    Returns their indices after checking that ``V``, ``L``, ``R`` and ``W``
    carry the conjugate of every ``+j omega`` block in its ``-j omega``
    partner.
    """
    if not data.conjugate_pairs:
        raise ValueError(
            "a real Loewner pencil needs conjugate-paired tangential data "
            "(include_conjugates=True)"
        )
    rows = _pair_halves(data.left_block_sizes)
    columns = _pair_halves(data.right_block_sizes)
    for name, matrix in (("V", data.V), ("L", data.L)):
        require_conjugate_halves(name, matrix[rows[0]], matrix[rows[1]])
    for name, matrix in (("R", data.R), ("W", data.W)):
        require_conjugate_halves(name, matrix[:, columns[0]], matrix[:, columns[1]])
    return rows[0]


def build_loewner_pencil(data: TangentialData, *, real: bool = False) -> LoewnerPencil:
    """Assemble the (shifted) Loewner matrices from tangential data (eqs. 11-12).

    The ``V @ R`` and ``L @ W`` products go through
    :func:`~repro.utils.linalg.rowcol_product`, which fixes each entry's
    summation order (its docstring says why it stays).  MFTI, VFTI and
    every iteration of recursive MFTI assemble their pencils here.

    ``real=True`` (what a fit with ``real_output`` asks for) returns Lemma
    3.2's real pencil instead of the complex one: only the ``+j omega`` rows
    of the products and their divided differences are computed, and
    :func:`real_pencil_from_half` writes the real matrices from them --
    bitwise what :func:`~repro.core.realization.to_real_data` makes of the
    complex pencil, without building it.  The Fig.-1 singular-value profiles
    read the complex pencil (the default).

    Raises
    ------
    ValueError
        If a left and a right sample point coincide (the divided differences
        would blow up; the framework requires disjoint point sets), or, with
        ``real=True``, if the data is not conjugate-paired or its ``-j omega``
        half is not the conjugate of its ``+j omega`` half.
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
    plus = require_conjugate_data(data)
    v_half = data.V[plus]
    w = data.W
    loewner_half, shifted_half = divided_difference_blocks(
        rowcol_product(v_half, data.R),          # (k_left / 2, k_right)
        rowcol_product(data.L[plus], w),         # (k_left / 2, k_right)
        mu[plus], lam)
    return real_pencil_from_half(
        loewner_half, shifted_half, v_half, w,
        lambda_points=lam,
        mu_points=mu,
        right_block_sizes=data.right_block_sizes,
        left_block_sizes=data.left_block_sizes,
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
