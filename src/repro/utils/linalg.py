"""Dense linear-algebra helpers shared by the Loewner interpolation core.

The Loewner framework (both the vector-format baseline and the matrix-format
method of the paper) is built out of a small number of dense operations that
recur everywhere:

* economic singular value decompositions with *rank detection* driven by a
  relative tolerance or by the largest gap in the singular-value profile
  (the paper's Fig. 1 is exactly such a profile),
* assembling block-diagonal matrices (the ``Λ``/``M`` frequency matrices and
  the real-transform ``T`` of Lemma 3.2),
* spectral norms of stacked sweeps, the one kernel behind the paper's
  per-frequency error ``||H(j w) - S(f)||_2 / ||S(f)||_2`` and the
  scattering passivity margin ``sigma_max(S(j w))``,
* the slicing-stable product the Loewner assembly computes its entries with.

Keeping them here gives a single, well-tested implementation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.validation import ensure_2d

__all__ = [
    "block_diag",
    "economic_svd",
    "numerical_rank",
    "rank_from_gap",
    "realify",
    "rowcol_product",
    "singular_value_gaps",
    "spectral_norms",
]


def realify(matrix: np.ndarray) -> np.ndarray:
    """Stack real and imaginary parts row-wise so complex LS becomes real LS.

    A complex least-squares system ``A x = b`` with *real* unknowns ``x`` is
    equivalent to the real system ``[Re A; Im A] x = [Re b; Im b]``; this is
    the standard realification used by the vector-fitting solves.
    """
    matrix = np.asarray(matrix)
    return np.vstack([matrix.real, matrix.imag])


def rowcol_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product whose entries are *slicing-stable* bit for bit.

    Computes ``a @ b`` with the guarantee that entry ``(i, j)`` is a pure
    function of row ``a[i, :]`` and column ``b[:, j]`` alone: the product is
    evaluated through ``einsum`` (``optimize=False``), whose sum-of-products
    inner loop reduces each output entry sequentially over the inner axis,
    independent of the surrounding shape.  Computing the product of any
    row/column subset therefore yields bitwise the same entries as slicing
    the full product.  Neither BLAS ``gemm`` nor a broadcast-multiply +
    ``np.sum`` makes that guarantee (their blocking/accumulator layout, and
    therefore their summation order and rounding, depend on the operand
    shapes).  :func:`~repro.core.loewner.build_loewner_pencil` computes every
    ``V @ R`` / ``L @ W`` product here, so every fitted model rests on this
    summation order: swapping in ``@`` would move every fit at round-off, a
    change to be measured on its own.  The
    contract is locked by a hypothesis property in the test-suite.

    The inner dimension of these products is the (small) port count, so the
    cost stays negligible next to the SVDs that consume the pencil.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("rowcol_product expects two matrices")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions do not match: {a.shape} @ {b.shape}")
    return np.einsum("ik,kj->ij", a, b, optimize=False)


def block_diag(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Assemble a dense block-diagonal matrix from ``blocks``.

    Unlike :func:`scipy.linalg.block_diag` this helper preserves the common
    complex dtype of the blocks and accepts an empty sequence (returning a
    ``0 x 0`` matrix), which simplifies edge cases in the Loewner assembly.
    """
    blocks = [np.atleast_2d(np.asarray(b)) for b in blocks]
    if not blocks:
        return np.zeros((0, 0))
    dtype = np.result_type(*[b.dtype for b in blocks])
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=dtype)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def economic_svd(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economic SVD ``matrix = U @ diag(s) @ Vh`` with singular values sorted descending.

    Returns
    -------
    (U, s, Vh):
        ``U`` has orthonormal columns, ``s`` is a 1-D array of singular values
        and ``Vh`` has orthonormal rows.
    """
    matrix = ensure_2d(matrix, "matrix")
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    return u, s, vh


def spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norm ``||X_i||_2`` (largest singular value) of every matrix of a stack.

    ``stack`` has shape ``(k, p, m)``, real or complex.  The norm is
    ``sqrt(lambda_max)`` of the Hermitian Gram matrix on the stack's smaller
    side: in closed form, ``(a + d)/2 + hypot((a - d)/2, |b|)``, when that
    side is 2, otherwise from one stacked :func:`numpy.linalg.eigvalsh`.
    Each matrix is first scaled by the exact power of two of its largest
    ``|Re|``/``|Im|`` entry, so squaring neither overflows nor underflows.
    Agrees with ``np.linalg.svd(stack, compute_uv=False)[:, 0]`` to a few
    ulps at scales from ``1e-300`` to ``1e300``.  Zero matrices give 0 and an
    empty stack gives an empty array.

    Raises
    ------
    numpy.linalg.LinAlgError
        When any matrix holds a NaN or an infinite entry.
    """
    stack = np.asarray(stack)
    if stack.ndim != 3:
        raise ValueError(f"expected a (k, p, m) stack of matrices, got shape {stack.shape}")
    k, p, m = stack.shape
    if stack.size == 0:
        return np.zeros(k)
    stack = np.ascontiguousarray(stack, dtype=np.promote_types(stack.dtype, np.float64))
    parts = stack.view(np.float64)
    # an entry-major copy turns the per-matrix maximum into k-long elementwise maxima
    largest = np.abs(parts.reshape(k, -1).T, order="C").max(axis=0)
    non_finite = np.count_nonzero(~np.isfinite(largest))
    if non_finite:
        raise np.linalg.LinAlgError(f"{non_finite} of {k} matrices hold non-finite entries")
    _, exponent = np.frexp(largest)
    scaled = np.ldexp(parts, -exponent[:, np.newaxis, np.newaxis]).view(stack.dtype)
    if p > m:
        scaled = scaled.swapaxes(1, 2)  # ||X||_2 = ||X^T||_2: Gram on the smaller side
    if min(p, m) == 2:
        x0, x1 = scaled[:, 0], scaled[:, 1]
        a = np.einsum("ij,ij->i", x0.conj(), x0).real
        d = np.einsum("ij,ij->i", x1.conj(), x1).real
        b = np.einsum("ij,ij->i", x0.conj(), x1)
        largest_eigenvalue = 0.5 * (a + d) + np.hypot(0.5 * (a - d), np.abs(b))
    else:
        gram = scaled @ scaled.conj().swapaxes(1, 2)
        largest_eigenvalue = np.linalg.eigvalsh(gram)[:, -1]
    return np.ldexp(np.sqrt(largest_eigenvalue), exponent)


def singular_value_gaps(singular_values: np.ndarray) -> np.ndarray:
    """Ratios ``s[i] / s[i+1]`` of consecutive singular values.

    Large entries mark sharp drops in the singular-value profile.  The profile
    of ``x0*L - sL`` in the Loewner framework drops sharply at the order of the
    underlying system (paper Fig. 1), so the position of the largest gap is a
    natural automatic order estimate.
    """
    s = np.asarray(singular_values, dtype=float)
    if s.ndim != 1:
        raise ValueError("singular_values must be one-dimensional")
    if s.size < 2:
        return np.zeros(0)
    denom = np.where(s[1:] > 0, s[1:], np.finfo(float).tiny)
    return s[:-1] / denom


def numerical_rank(
    singular_values: np.ndarray,
    *,
    rtol: float = 1e-10,
    atol: float = 0.0,
) -> int:
    """Number of singular values above ``max(rtol * s_max, atol)``."""
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0:
        return 0
    threshold = max(rtol * float(s[0]), atol)
    return int(np.count_nonzero(s > threshold))


def rank_from_gap(singular_values: np.ndarray, *, min_gap: float = 1e3) -> int:
    """Estimate rank as the index of the largest singular-value gap.

    If no consecutive ratio exceeds ``min_gap`` the full length is returned
    (i.e. the profile is judged to have no sharp drop, which is exactly the
    VFTI situation in the paper's Fig. 1 for under-sampled data).
    """
    s = np.asarray(singular_values, dtype=float)
    gaps = singular_value_gaps(s)
    if gaps.size == 0:
        return int(s.size)
    best = int(np.argmax(gaps))
    if gaps[best] < min_gap:
        return int(s.size)
    return best + 1
