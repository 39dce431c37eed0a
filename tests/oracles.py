"""Test-only oracles: looped kernels, the paper-theory checks, helpers.

Each looped function here is the straightforward one-step-at-a-time version
of a batched kernel: the property tests pin the kernel against it (bitwise
where the operations are elementwise), and
``benchmarks/bench_fit_pipeline.py`` / ``bench_passivity.py`` time the kernel
against it.  Nothing in ``src/`` imports this module.  The stacked-``lstsq``
fast-VF solver (:func:`repro.vectorfitting.kernels.vf_scaling_solve_reference`)
is not here: it is the compact solver's runtime fallback.  Four oracles do
the work the library skips instead of looping: the literal per-block
tangential data with explicit conjugate blocks, the dense Lemma 3.2
transform, its literal pair-by-pair mixing of the full complex pencil, and
the two-sided SVDs of the full ``2k``-wide matrices.

Three checks of the paper's theory that no fit runs live here too: Lemma
3.1's direct realization of a square, regular pencil, the residuals of the
Sylvester equations (13) and the residuals of the interpolation conditions
(10).  So does :func:`identity_directions`, the hand-built tangential
fixtures' shorthand for the library's identity directions.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.core.directions import generate_direction_sets
from repro.core.options import MftiOptions
from repro.core.realization import _determine_order
from repro.core.tangential import _block_slices, _pair_halves
from repro.systems.evaluation import _evaluate_solve
from repro.systems.statespace import DescriptorSystem
from repro.utils.linalg import economic_svd, realify
from repro.vectorfitting.kernels import REAL_POLE_TOLERANCE
from repro.vectorfitting.passivity import PassivityViolation, _validated_sweep

__all__ = [
    "partial_fraction_basis_reference",
    "relocation_matrices_reference",
    "residues_from_coefficients_reference",
    "vf_scaling_blocks_reference",
    "passivity_violations_reference",
    "tangential_matrices_reference",
    "real_transform_matrix_reference",
    "mix_rows_reference",
    "mix_columns_reference",
    "real_transform_reference",
    "two_sided_realization_reference",
    "direct_realization",
    "sylvester_residuals",
    "interpolation_residuals",
    "identity_directions",
]


def _walk_groups(poles: np.ndarray) -> list[tuple[str, tuple[int, ...]]]:
    """The sequential group walk of the pre-batched VF kernels.

    One Python step per pole group, re-run on every call -- the cost model
    the batched kernels are measured against.  Complex poles must sit in
    adjacent conjugate pairs.
    """
    groups: list[tuple[str, tuple[int, ...]]] = []
    i = 0
    n = poles.size
    while i < n:
        pole = poles[i]
        if abs(pole.imag) <= REAL_POLE_TOLERANCE * max(abs(pole), 1.0):
            groups.append(("real", (i,)))
            i += 1
            continue
        if i + 1 < n and np.isclose(poles[i + 1], np.conj(pole), rtol=1e-6, atol=1e-12):
            groups.append(("pair", (i, i + 1)))
            i += 2
            continue
        raise ValueError("complex poles must appear in adjacent conjugate pairs")
    return groups


def partial_fraction_basis_reference(
    s_points: np.ndarray,
    poles: np.ndarray,
) -> np.ndarray:
    """Looped oracle for :func:`~repro.vectorfitting.kernels.partial_fraction_basis`."""
    s_points = np.asarray(s_points, dtype=complex).ravel()
    poles = np.asarray(poles, dtype=complex).ravel()
    phi = np.empty((s_points.size, poles.size), dtype=complex)
    for kind, idx in _walk_groups(poles):
        if kind == "real":
            phi[:, idx[0]] = 1.0 / (s_points - poles[idx[0]].real)
        else:
            a = poles[idx[0]]
            if a.imag < 0:
                a = np.conj(a)
            phi[:, idx[0]] = 1.0 / (s_points - a) + 1.0 / (s_points - np.conj(a))
            phi[:, idx[1]] = 1j / (s_points - a) - 1j / (s_points - np.conj(a))
    return phi


def relocation_matrices_reference(
    poles: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Looped oracle for :func:`~repro.vectorfitting.kernels.relocation_matrices`."""
    poles = np.asarray(poles, dtype=complex).ravel()
    n = poles.size
    a_mat = np.zeros((n, n))
    b_vec = np.zeros(n)
    for kind, idx in _walk_groups(poles):
        if kind == "real":
            a_mat[idx[0], idx[0]] = poles[idx[0]].real
            b_vec[idx[0]] = 1.0
        else:
            a = poles[idx[0]]
            if a.imag < 0:
                a = np.conj(a)
            alpha, beta = a.real, a.imag
            i, j = idx
            a_mat[i, i] = alpha
            a_mat[i, j] = beta
            a_mat[j, i] = -beta
            a_mat[j, j] = alpha
            b_vec[i] = 2.0
            b_vec[j] = 0.0
    return a_mat, b_vec


def residues_from_coefficients_reference(
    coefficients: np.ndarray,
    poles: np.ndarray,
    shape: tuple[int, int],
) -> np.ndarray:
    """Looped oracle for :func:`~repro.vectorfitting.kernels.residues_from_coefficients`."""
    poles = np.asarray(poles, dtype=complex).ravel()
    p, m = shape
    residues = np.zeros((poles.size, p, m), dtype=complex)
    for kind, idx in _walk_groups(poles):
        if kind == "real":
            residues[idx[0]] = coefficients[idx[0]].reshape(p, m)
        else:
            re_part = coefficients[idx[0]].reshape(p, m)
            im_part = coefficients[idx[1]].reshape(p, m)
            if poles[idx[0]].imag < 0:
                residues[idx[0]] = re_part - 1j * im_part
                residues[idx[1]] = re_part + 1j * im_part
            else:
                residues[idx[0]] = re_part + 1j * im_part
                residues[idx[1]] = re_part - 1j * im_part
    return residues


def vf_scaling_blocks_reference(
    phi: np.ndarray,
    responses: np.ndarray,
    q1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Looped oracle for :func:`~repro.vectorfitting.kernels.vf_scaling_blocks` (one entry at a time)."""
    n_entries = responses.shape[1]
    blocks = []
    rhs_blocks = []
    for j in range(n_entries):
        weighted = realify(-responses[:, j, np.newaxis] * phi)
        rhs_j = np.concatenate([responses[:, j].real, responses[:, j].imag])
        blocks.append(weighted - q1 @ (q1.T @ weighted))
        rhs_blocks.append(rhs_j - q1 @ (q1.T @ rhs_j))
    return np.vstack(blocks), np.concatenate(rhs_blocks)


def passivity_violations_reference(
    model,
    frequencies_hz,
    *,
    representation: str = "S",
    tolerance: float = 1e-8,
) -> list[PassivityViolation]:
    """Per-frequency loop oracle for :func:`~repro.vectorfitting.passivity.passivity_violations`.

    Validates its input exactly as the batched path does: empty sweeps and
    non-finite / negative tolerances raise.
    """
    freqs = _validated_sweep(frequencies_hz, tolerance)
    response = np.asarray(model.frequency_response(freqs))
    violations: list[PassivityViolation] = []
    if representation == "S":
        for f, matrix in zip(freqs, response):
            sigma_max = float(np.linalg.norm(matrix, 2))
            if sigma_max > 1.0 + tolerance:
                violations.append(PassivityViolation(float(f), sigma_max))
    elif representation in ("Z", "Y"):
        for f, matrix in zip(freqs, response):
            herm = 0.5 * (matrix + matrix.conj().T)
            min_eig = float(np.min(np.linalg.eigvalsh(herm)))
            if min_eig < -tolerance:
                violations.append(PassivityViolation(float(f), min_eig))
    else:
        raise ValueError(f"representation must be 'S', 'Z' or 'Y', got {representation!r}")
    return violations


def tangential_matrices_reference(
    data,
    *,
    right_directions,
    left_directions,
    right_indices,
    left_indices,
    include_conjugates: bool = True,
) -> dict[str, np.ndarray]:
    """Per-block oracle for :func:`~repro.core.tangential.build_tangential_data`.

    Builds one ``(point, directions, values)`` block per sample and, with
    ``include_conjugates``, an explicit conjugate block right after it, then
    concatenates the blocks with ``hstack``/``vstack`` into the compact
    matrices of eqs. (8)-(9).  Returns ``R``, ``W``, ``L``, ``V``,
    ``lambda_points`` and ``mu_points`` by
    :class:`~repro.core.tangential.TangentialData` attribute name.
    """
    blocks = {"right": [], "left": []}
    for side, directions, indices in (("right", right_directions, right_indices),
                                      ("left", left_directions, left_indices)):
        for direction, idx in zip(directions, indices):
            direction = np.asarray(direction, dtype=complex)
            if direction.ndim == 1:
                direction = direction.reshape(-1, 1)
            sample = data.samples[idx]
            point = 1j * 2.0 * np.pi * data.frequencies_hz[idx]
            if side == "right":
                block = (point, direction, sample @ direction)
            else:
                row_direction = direction.conj().T
                block = (point, row_direction, row_direction @ sample)
            blocks[side].append(block)
            if include_conjugates:
                blocks[side].append(tuple(np.conj(part) for part in block))
    right, left = blocks["right"], blocks["left"]
    return {
        "lambda_points": np.concatenate([np.full(d.shape[1], pt) for pt, d, _ in right]),
        "mu_points": np.concatenate([np.full(d.shape[0], pt) for pt, d, _ in left]),
        "R": np.hstack([d for _, d, _ in right]),
        "W": np.hstack([v for _, _, v in right]),
        "L": np.vstack([d for _, d, _ in left]),
        "V": np.vstack([v for _, _, v in left]),
    }


def real_transform_matrix_reference(block_sizes) -> np.ndarray:
    """Dense oracle for the Lemma 3.2 transform ``T`` of conjugate-paired blocks.

    :func:`~repro.core.loewner.build_loewner_pencil` writes ``T* M T`` from
    the ``+j omega`` rows without forming ``T``; this builds the
    ``(1/sqrt(2)) [[I, -jI], [I, jI]]`` block afresh for every conjugate pair
    and stacks the blocks block-diagonally, so ``T_l* L T_r`` can be formed
    densely.
    """
    sizes = tuple(int(t) for t in block_sizes)
    blocks = []
    for i in range(0, len(sizes), 2):
        eye = np.eye(sizes[i])
        blocks.append(np.block([[eye, -1j * eye], [eye, 1j * eye]]) / np.sqrt(2.0))
    return scipy.linalg.block_diag(*blocks)


def mix_rows_reference(matrix: np.ndarray, plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """``sqrt(2) T* M``: rows ``a + b`` and ``j (a - b)`` of every pair's halves."""
    a, b = matrix[plus], matrix[minus]
    mixed = np.empty(matrix.shape, dtype=complex)
    mixed[plus] = a + b
    mixed[minus] = 1j * (a - b)
    return mixed


def mix_columns_reference(matrix: np.ndarray, plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """``sqrt(2) M T``: columns ``a + b`` and ``j (b - a)`` of every pair's halves."""
    a, b = matrix[:, plus], matrix[:, minus]
    mixed = np.empty(matrix.shape, dtype=complex)
    mixed[:, plus] = a + b
    mixed[:, minus] = 1j * (b - a)
    return mixed


def real_transform_reference(pencil) -> dict[str, np.ndarray]:
    """The literal pair-by-pair ``T_l* M T_r`` of a complex pencil, real part kept.

    Mixes every row pair and then every column pair of the *full* complex
    ``L``, ``sL``, ``V`` and ``W`` and scales by ``0.5`` (``L``, ``sL``) or
    ``sqrt(0.5)`` (``V``, ``W``) -- the route real fits took before the real
    pencil was written from the ``+j omega`` half.  Returns the four real
    matrices by :class:`~repro.core.loewner.LoewnerPencil` field name.
    """
    rows = _pair_halves(pencil.left_block_sizes[0::2])
    columns = _pair_halves(pencil.right_block_sizes[0::2])
    mixed = {
        "loewner": (mix_columns_reference(mix_rows_reference(pencil.loewner, *rows),
                                          *columns), 0.5),
        "shifted_loewner": (mix_columns_reference(
            mix_rows_reference(pencil.shifted_loewner, *rows), *columns), 0.5),
        "V": (mix_rows_reference(pencil.V, *rows), np.sqrt(0.5)),
        "W": (mix_columns_reference(pencil.W, *columns), np.sqrt(0.5)),
    }
    return {name: matrix.real * factor for name, (matrix, factor) in mixed.items()}


def two_sided_realization_reference(
    pencil,
    *,
    order=None,
    rank_tolerance: float = 1e-9,
    rank_method: str = "gap",
):
    """Uncompressed oracle for the two-sided
    :func:`~repro.core.realization.svd_realization`.

    Runs :func:`economic_svd` on the full ``[L, sL]`` and ``[L; sL]``, with
    their ``2k``-long singular vectors, instead of on their triangular QR
    factors, then truncates and projects the same way.  Returns the model
    and the singular values of ``[L, sL]``.
    """
    y_full, s_row, _ = economic_svd(pencil.augmented_row_matrix())
    _, s_col, xh_full = economic_svd(pencil.augmented_column_matrix())
    limit = min(s_row.size, s_col.size)
    rank_row = _determine_order(s_row[:limit], order, rank_tolerance, rank_method)
    rank_col = _determine_order(s_col[:limit], order, rank_tolerance, rank_method)
    rank = min(rank_row, rank_col, limit)
    yh = y_full[:, :rank].conj().T
    x = xh_full[:rank, :].conj().T
    system = DescriptorSystem(
        -yh @ pencil.loewner @ x,
        -yh @ pencil.shifted_loewner @ x,
        yh @ pencil.V,
        pencil.W @ x,
        np.zeros((pencil.n_outputs, pencil.n_inputs)),
    )
    return system, s_row


def direct_realization(pencil) -> DescriptorSystem:
    """Lemma 3.1: the raw Loewner realization ``(E, A, B, C) = (-L, -sL, V, W)``.

    Only valid when the pencil is square and ``x L - sL`` is non-singular for
    every sample point ``x`` -- i.e. when the data neither under- nor
    over-samples the underlying system.  The resulting transfer function
    satisfies the tangential constraints (10) exactly; when ``t_i = m = p``
    and the directions are full rank it matches the full sample matrices (3).
    """
    if pencil.k_left != pencil.k_right:
        raise ValueError(
            "direct realization requires a square Loewner pencil "
            f"(got {pencil.k_left} x {pencil.k_right}); use svd_realization instead"
        )
    for x in np.unique(np.concatenate([pencil.lambda_points, pencil.mu_points])):
        matrix = pencil.shifted_pencil(x)
        if np.linalg.matrix_rank(matrix) < matrix.shape[0]:
            raise ValueError(
                f"x*L - sL is singular at sample point {x}; "
                "the data over-determines the system -- use svd_realization"
            )
    return DescriptorSystem(
        -pencil.loewner,
        -pencil.shifted_loewner,
        pencil.V,
        pencil.W,
        np.zeros((pencil.n_outputs, pencil.n_inputs)),
    )


def sylvester_residuals(pencil, data) -> tuple[float, float]:
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


def interpolation_residuals(tangential, system) -> tuple[np.ndarray, np.ndarray]:
    """Residual norms of the interpolation conditions (10) for a candidate model.

    Returns ``(right_residuals, left_residuals)`` -- one Frobenius residual
    ``||H(lambda_i) R_i - W_i||`` per right block of ``tangential`` and
    ``||L_i H(mu_i) - V_i||`` per left block, mirrored blocks included, in
    the order of ``lambda_points`` / ``mu_points``.  Exact interpolation
    drives these to (numerical) zero.  A descriptor system is evaluated at
    every block point in one stacked solve; anything else point by point
    through its ``transfer_function``.
    """
    right_points = tangential._blockwise(tangential.right_points)
    points = np.concatenate([right_points, tangential._blockwise(tangential.left_points)])
    if isinstance(system, DescriptorSystem):
        h = _evaluate_solve(system.E, system.A, system.B, system.C, system.D, points)
    else:
        h = np.stack([system.transfer_function(point) for point in points])
    h_right, h_left = h[: right_points.size], h[right_points.size :]
    r, w, lefts, v = tangential.R, tangential.W, tangential.L, tangential.V
    right = [np.linalg.norm(h_i @ r[:, cols] - w[:, cols])
             for h_i, cols in zip(h_right, _block_slices(tangential.right_block_sizes))]
    left = [np.linalg.norm(lefts[rows] @ h_i - v[rows])
            for h_i, rows in zip(h_left, _block_slices(tangential.left_block_sizes))]
    return np.array(right), np.array(left)


def identity_directions(n_ports: int, block_size: int, count: int) -> list[np.ndarray]:
    """``count`` right directions of ``block_size`` columns each, by the rule of
    :func:`~repro.core.directions.generate_direction_sets`' identity kind."""
    options = MftiOptions(direction_kind="identity")
    return generate_direction_sets(options, n_ports, [block_size] * count, [])[0]
