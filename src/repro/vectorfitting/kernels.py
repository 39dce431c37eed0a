"""Batched vector-fitting (VF) kernels.

The partial-fraction basis, the pole relocation companion form, the residue
reconstruction, the fast-VF per-entry projection, and the compact
conditioned fast-VF *solver* (:func:`vf_scaling_solve`: per-entry
Cholesky-QR reduction of each tall projected block to its small R-factor,
one well-conditioned stacked solve, automatic fall-back to the
stacked-``lstsq`` reference when the reduction is rank-deficient or the
conditioning estimate exceeds :data:`VF_COMPACT_CONDITION_LIMIT`), all as
mask/index array operations over a precomputed :class:`PoleGrouping`
instead of per-pole-group Python loops.  :meth:`PoleGrouping.from_poles` is
the repository's one pole-pairing rule: pole sorting, the VF kernels, the
pole-residue state-space conversion and passivity enforcement all read it.
The looped oracles the kernels are pinned against live in
``tests/oracles.py``; only the stacked-``lstsq`` solver
:func:`vf_scaling_solve_reference` stays here, because it is the compact
solver's runtime fallback.  The compact solver calls its Cholesky and small
``lstsq`` through the :func:`repro.backends.get_backend` record, fetched on
every call (the record holds the numpy callables themselves); its
refinement step's triangular solves are scipy's ``solve_triangular``, bit
for bit, on numpy's OpenBLAS (:func:`repro.utils.blas.solve_triangular`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends import get_backend
from repro.utils.blas import solve_triangular

__all__ = [
    "REAL_POLE_TOLERANCE",
    "PoleGrouping",
    "real_pole_mask",
    "partial_fraction_basis",
    "relocation_matrices",
    "residues_from_coefficients",
    "vf_scaling_blocks",
    "vf_scaling_solve",
    "vf_scaling_solve_reference",
    "VF_COMPACT_CONDITION_LIMIT",
]

#: Relative magnitude below which a pole's imaginary part is treated as zero.
REAL_POLE_TOLERANCE = 1e-9

#: ``np.isclose`` tolerances within which one pole is the conjugate of another.
_PAIR_RTOL = 1e-6
_PAIR_ATOL = 1e-12

#: Condition-number estimate above which :func:`vf_scaling_solve` abandons
#: the compact Cholesky-QR reduction for the stacked-``lstsq`` reference.
#: The reduction squares the conditioning (normal-equations territory), so
#: its error grows like ``cond^2 * eps``: measured against the reference on
#: structured near-rank-deficient bases this is ~1e-10 at cond 1e4, ~2e-8 at
#: cond 1e5 and ~1e-6 at cond 1e6 -- the limit keeps the compact path inside
#: the documented 1e-10..1e-8 agreement band while ill-conditioned systems
#: (clustered poles, narrow bands) keep the reference's gelsd robustness.
VF_COMPACT_CONDITION_LIMIT = 1e5


def real_pole_mask(poles: np.ndarray) -> np.ndarray:
    """Boolean mask of the poles whose imaginary part is numerically zero."""
    poles = np.asarray(poles, dtype=complex)
    return np.abs(poles.imag) <= REAL_POLE_TOLERANCE * np.maximum(np.abs(poles), 1.0)


@dataclass(frozen=True, eq=False)
class PoleGrouping:
    """The one pole-pairing rule: real singles, conjugate pairs, unpaired poles.

    A pole is real by :func:`real_pole_mask`.  Every other pole, in index
    order, pairs with the first unused later non-real pole within
    ``np.isclose(rtol=1e-6, atol=1e-12)`` of its conjugate; pairs need not
    be adjacent, and a pole left without a partner is listed in
    ``unpaired_indices``.  ``real_indices`` are the positions of the real
    poles, ``pair_first`` / ``pair_second`` the positions of each conjugate
    pair (first < second), ``pair_poles`` the canonical (positive imaginary
    part) representative of each pair, and ``first_is_negative`` records
    whether the *stored* first element of the pair had negative imaginary
    part -- the residue reconstruction needs that original orientation.

    The vector-fitting kernels below refuse a grouping with unpaired poles
    (their real-coefficient basis does not exist); passivity enforcement
    perturbs such a pole's residue freely.
    """

    n_poles: int
    real_indices: np.ndarray
    pair_first: np.ndarray
    pair_second: np.ndarray
    pair_poles: np.ndarray
    first_is_negative: np.ndarray
    unpaired_indices: np.ndarray

    @classmethod
    def from_poles(cls, poles: np.ndarray) -> "PoleGrouping":
        """Group a pole array by the pairing rule (never raises)."""
        poles = np.asarray(poles, dtype=complex).ravel()
        mask = real_pole_mask(poles)
        candidates = np.flatnonzero(~mask)
        values = poles[candidates]
        # close[a, b]: candidate b lies within tolerance of conj(candidate a)
        close = np.isclose(values[np.newaxis, :], np.conj(values)[:, np.newaxis],
                           rtol=_PAIR_RTOL, atol=_PAIR_ATOL)
        free = np.ones(values.size, dtype=bool)
        firsts, seconds, lone = [], [], []
        for a in range(values.size):
            if not free[a]:
                continue
            later = np.flatnonzero(close[a, a + 1:] & free[a + 1:])
            if later.size:
                b = a + 1 + int(later[0])
                free[b] = False
                firsts.append(a)
                seconds.append(b)
            else:
                lone.append(a)
        first = candidates[np.asarray(firsts, dtype=np.intp)]
        stored = poles[first]
        negative = stored.imag < 0
        return cls(
            n_poles=poles.size,
            real_indices=np.flatnonzero(mask),
            pair_first=first,
            pair_second=candidates[np.asarray(seconds, dtype=np.intp)],
            pair_poles=np.where(negative, np.conj(stored), stored),
            first_is_negative=negative,
            unpaired_indices=candidates[np.asarray(lone, dtype=np.intp)],
        )

    def groups(self) -> list[tuple[str, tuple[int, ...]]]:
        """Every group as ``(kind, indices)``, in first-pole-index order.

        ``kind`` is ``"real"``, ``"pair"`` (first and second index) or
        ``"unpaired"``; the passivity enforcer's constraint columns and the
        pole-residue state-space blocks follow this order.
        """
        groups = [("real", (i,)) for i in self.real_indices.tolist()]
        groups += [("pair", (i, j))
                   for i, j in zip(self.pair_first.tolist(), self.pair_second.tolist())]
        groups += [("unpaired", (i,)) for i in self.unpaired_indices.tolist()]
        return sorted(groups, key=lambda group: group[1][0])


# --------------------------------------------------------------------- #
# vector-fitting kernels
# --------------------------------------------------------------------- #
def _require_pairs(grouping: PoleGrouping) -> None:
    """The real-coefficient kernels exist only when every complex pole is paired."""
    if grouping.unpaired_indices.size:
        raise ValueError(
            "complex poles must appear in conjugate pairs; unpaired pole indices "
            f"{grouping.unpaired_indices.tolist()}"
        )


def partial_fraction_basis(
    s_points: np.ndarray,
    poles: np.ndarray,
    grouping: PoleGrouping,
) -> np.ndarray:
    """Real-coefficient partial-fraction basis, evaluated for all poles at once.

    Returns a complex ``(N, n_poles)`` matrix whose columns multiply *real*
    coefficients: real poles get ``1/(s - a)``; conjugate pairs get
    ``1/(s-a) + 1/(s-conj(a))`` and ``j/(s-a) - j/(s-conj(a))``.  Bitwise
    identical to the looped oracle (every entry is the same elementwise
    expression).
    """
    _require_pairs(grouping)
    s_points = np.asarray(s_points, dtype=complex).ravel()
    poles = np.asarray(poles, dtype=complex).ravel()
    phi = np.empty((s_points.size, poles.size), dtype=complex)
    real_idx = grouping.real_indices
    if real_idx.size:
        phi[:, real_idx] = 1.0 / (s_points[:, np.newaxis] - poles[real_idx].real[np.newaxis, :])
    if grouping.pair_first.size:
        a = grouping.pair_poles[np.newaxis, :]
        inv_plus = 1.0 / (s_points[:, np.newaxis] - a)
        inv_minus = 1.0 / (s_points[:, np.newaxis] - np.conj(a))
        phi[:, grouping.pair_first] = inv_plus + inv_minus
        phi[:, grouping.pair_second] = 1j * inv_plus - 1j * inv_minus
    return phi


def relocation_matrices(
    poles: np.ndarray,
    grouping: PoleGrouping,
) -> tuple[np.ndarray, np.ndarray]:
    """Real block companion form ``(A, b)`` used by the pole relocation step.

    The relocated poles are the eigenvalues of ``A - b @ c_tilde^T``; real
    poles contribute a ``1 x 1`` block, conjugate pairs the standard
    ``2 x 2`` real rotation block.  Assembled with index writes instead of
    a per-group loop; bitwise identical to the looped oracle.
    """
    _require_pairs(grouping)
    poles = np.asarray(poles, dtype=complex).ravel()
    n = poles.size
    a_mat = np.zeros((n, n))
    b_vec = np.zeros(n)
    real_idx = grouping.real_indices
    if real_idx.size:
        a_mat[real_idx, real_idx] = poles[real_idx].real
        b_vec[real_idx] = 1.0
    if grouping.pair_first.size:
        i = grouping.pair_first
        j = grouping.pair_second
        alpha = grouping.pair_poles.real
        beta = grouping.pair_poles.imag
        a_mat[i, i] = alpha
        a_mat[i, j] = beta
        a_mat[j, i] = -beta
        a_mat[j, j] = alpha
        b_vec[i] = 2.0
    return a_mat, b_vec


def residues_from_coefficients(
    coefficients: np.ndarray,
    poles: np.ndarray,
    grouping: PoleGrouping,
    shape: tuple[int, int],
) -> np.ndarray:
    """Reconstruct complex residues from the real LS coefficient block.

    ``coefficients`` holds one row per basis column and one column per matrix
    entry (row-major ``p x m``); real poles carry their residue directly,
    conjugate pairs combine their two real coefficient rows into ``re +/- j im``
    with the orientation of the *stored* first pole.  Bitwise identical to
    the looped oracle.
    """
    _require_pairs(grouping)
    poles = np.asarray(poles, dtype=complex).ravel()
    p, m = shape
    residues = np.zeros((poles.size, p, m), dtype=complex)
    real_idx = grouping.real_indices
    if real_idx.size:
        residues[real_idx] = coefficients[real_idx].reshape(real_idx.size, p, m)
    if grouping.pair_first.size:
        re_part = coefficients[grouping.pair_first].reshape(-1, p, m)
        im_part = coefficients[grouping.pair_second].reshape(-1, p, m)
        sign = np.where(grouping.first_is_negative, -1.0, 1.0)[:, np.newaxis, np.newaxis]
        residues[grouping.pair_first] = re_part + 1j * (sign * im_part)
        residues[grouping.pair_second] = re_part - 1j * (sign * im_part)
    return residues


def _vf_scaling_projected(phi, responses, q1):
    """Projected fast-VF blocks ``(2N, E, n)`` and right-hand sides ``(2N, E)``."""
    n_samples, n_entries = responses.shape
    weighted = -responses[:, :, np.newaxis] * phi[:, np.newaxis, :]  # (N, E, n)
    weighted = np.concatenate([weighted.real, weighted.imag], axis=0)  # (2N, E, n)
    rhs = np.concatenate([responses.real, responses.imag], axis=0)  # (2N, E)

    flat = weighted.reshape(2 * n_samples, -1)
    projected = flat - np.matmul(q1, np.matmul(q1.T, flat))
    projected = projected.reshape(2 * n_samples, n_entries, -1)

    rhs_projected = rhs - np.matmul(q1, np.matmul(q1.T, rhs))
    return projected, rhs_projected


def vf_scaling_blocks(
    phi: np.ndarray,
    responses: np.ndarray,
    q1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fast-VF projection, batched over every matrix entry at once.

    For each entry ``j`` the fast-VF trick projects the weighted basis
    ``-F_j(s) * phi`` and the response onto the orthogonal complement of the
    per-entry basis (spanned by ``q1``); the projected blocks are stacked
    into one LS system for the shared scaling coefficients ``c_tilde``.
    The looped oracle does this one entry (two small GEMMs plus a Python
    iteration) at a time; here the realified blocks are assembled **once
    per iteration** and all entries share two large GEMMs.

    Returns ``(a_stacked, b_stacked)`` with the entry blocks in the same
    row order as the oracle.
    """
    n_samples, n_entries = responses.shape
    projected, rhs_projected = _vf_scaling_projected(phi, responses, q1)
    a_stacked = np.transpose(projected, (1, 0, 2)).reshape(n_entries * 2 * n_samples, -1)
    b_stacked = rhs_projected.T.reshape(-1)
    return a_stacked, b_stacked


def vf_scaling_solve_reference(
    phi: np.ndarray,
    responses: np.ndarray,
    q1: np.ndarray,
) -> np.ndarray:
    """The pre-compaction fast-VF solve: stacked projection + one tall ``lstsq``.

    This is exactly the solver :func:`repro.vectorfitting.fitting.vector_fit`
    used before :func:`vf_scaling_solve` existed; it is kept as the
    equivalence oracle for the compact path, the conditioning fallback
    target, and the speedup reference for ``benchmarks/bench_vf_solver.py``.
    """
    a_stacked, b_stacked = vf_scaling_blocks(phi, responses, q1)
    return np.linalg.lstsq(a_stacked, b_stacked, rcond=None)[0]


def _vf_scaling_solve_compact(phi, responses, q1, condition_limit):
    """Per-entry Cholesky-QR reduction of the fast-VF system; raises on doubt.

    Each entry's tall projected block ``[A_j | b_j]`` (``2N x (n+1)``) is
    reduced to its small upper-triangular R-factor via the Gram matrix
    (``R_j^T R_j = [A_j | b_j]^T [A_j | b_j]``, one batched GEMM + batched
    Cholesky instead of ``E`` tall QRs); stacking the ``R_j`` gives a
    ``E(n+1) x n`` system with *exactly* the singular values of the full
    stacked system, so the final small ``lstsq`` both solves it and prices
    its conditioning for free.  Raises :exc:`numpy.linalg.LinAlgError`
    when any Gram block is not numerically SPD, the reduction is
    rank-deficient/non-finite, or the condition estimate exceeds
    ``condition_limit`` -- the public wrapper then falls back to
    :func:`vf_scaling_solve_reference`.
    """
    projected, rhs_projected = _vf_scaling_projected(phi, responses, q1)
    blocks = np.transpose(projected, (1, 0, 2))  # (E, 2N, n)
    rhs = np.transpose(rhs_projected, (1, 0))  # (E, 2N)
    return _vf_compact_reduce(blocks, rhs, condition_limit)


def _vf_compact_reduce(blocks, rhs, condition_limit):
    """The compact solve stage: per-entry R-factors + one small stacked solve.

    ``blocks`` is the ``(E, 2N, n)`` stack of projected per-entry systems
    and ``rhs`` the matching ``(E, 2N)`` right-hand sides; this is the
    stage that replaces the tall ``E*2N x n`` stacked ``lstsq`` and the
    unit ``benchmarks/bench_vf_solver.py`` gates >=2x.
    """
    linalg = get_backend()
    n_entries, _, n_coeffs = blocks.shape
    aug = np.concatenate([blocks, rhs[:, :, np.newaxis]], axis=2)  # (E, 2N, n+1)
    gram = np.matmul(np.transpose(aug, (0, 2, 1)), aug)  # (E, n+1, n+1)
    r_factor = np.transpose(linalg.cholesky(gram), (0, 2, 1))  # upper-triangular
    a_small = r_factor[:, :, :n_coeffs].reshape(n_entries * (n_coeffs + 1), n_coeffs)
    b_small = r_factor[:, :, n_coeffs].reshape(n_entries * (n_coeffs + 1))
    solution, _, rank, sv = linalg.lstsq(a_small, b_small)
    if rank < n_coeffs or not np.all(np.isfinite(solution)):
        raise np.linalg.LinAlgError("compact fast-VF reduction is rank-deficient")
    if sv.size:
        largest, smallest = float(sv[0]), float(sv[-1])
        if smallest <= 0.0 or largest > condition_limit * smallest:
            raise np.linalg.LinAlgError(
                "compact fast-VF reduction exceeds the conditioning limit"
            )
    # One step of iterative refinement against the *tall* blocks: the
    # Gram reduction squares the conditioning, so the raw compact solution
    # carries ~cond^2*eps error; a working-precision residual pushed back
    # through the (exact) summed Gram recovers ~cond*eps accuracy for an
    # O(1/n) fraction of the reduction's FLOPs.
    residual = rhs - np.matmul(blocks, solution)  # (E, 2N)
    gradient = np.matmul(
        np.transpose(blocks, (0, 2, 1)), residual[:, :, np.newaxis]
    )  # (E, n, 1)
    gradient = np.sum(gradient, axis=0)[:, 0]  # A^T r, (n,)
    gram_full = np.sum(gram[:, :n_coeffs, :n_coeffs], axis=0)  # A^T A, (n, n)
    lower = linalg.cholesky(gram_full)
    correction = solve_triangular(lower.T, solve_triangular(lower, gradient, lower=True))
    solution = solution + correction
    if not np.all(np.isfinite(solution)):
        raise np.linalg.LinAlgError("compact fast-VF refinement diverged")
    return solution


def vf_scaling_solve(
    phi: np.ndarray,
    responses: np.ndarray,
    q1: np.ndarray,
    *,
    condition_limit: float = VF_COMPACT_CONDITION_LIMIT,
) -> np.ndarray:
    """Solve the stacked fast-VF system for the scaling coefficients.

    The compact path reduces each entry's tall projected block to its small
    R-factor (batched Cholesky-QR, see :func:`_vf_scaling_solve_compact`)
    and solves one well-conditioned ``E(n+1) x n`` system -- replacing the
    ``E 2N x n`` stacked ``lstsq`` that dominated the vector-fitting
    iteration.  Because the R-stack shares the full system's singular
    values, the conditioning of the original system is estimated exactly
    from the small solve; anything rank-deficient, non-finite, or beyond
    ``condition_limit`` (``cond^2`` error growth -- the ``gelss``/``gelsd``
    LAPACK-driver caution applies) automatically falls back to
    :func:`vf_scaling_solve_reference`, the pre-compaction solver.
    """
    try:
        return _vf_scaling_solve_compact(phi, responses, q1, condition_limit)
    except np.linalg.LinAlgError:
        return vf_scaling_solve_reference(phi, responses, q1)
