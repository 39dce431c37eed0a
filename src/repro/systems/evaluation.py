"""Shared vectorized sweep-evaluation kernel.

Every layer of the library ultimately evaluates a transfer function over a
set of complex points: sampling circuits into datasets, computing error
norms against measurement/validation grids, the recursive front-end's
hold-out residuals, and pole-residue model sweeps.  This module is the one
implementation all of them share.  A descriptor system
``H(s) = C (sE - A)^{-1} B + D`` is swept by one of three kernels:

:func:`evaluate_pointwise`
    The reference per-point loop: one dense ``(sE - A)`` solve per point,
    falling back to a least-squares solve when the pencil is exactly
    singular at a point.  This is the semantics the other two kernels are
    measured against.

``_evaluate_solve`` (the stacked solve)
    Batched stacked-pencil solves: the pencils are assembled as a
    ``(chunk, n, n)`` array and handed to ``np.linalg.solve`` in one gufunc
    call per chunk.  The per-slice LAPACK calls are identical to the loop's,
    so the results are **bitwise identical** to :func:`evaluate_pointwise`
    -- this is the kernel used wherever bit-stable reproducibility matters
    (dataset generation, content-addressed fingerprints).  A chunk
    containing a singular pencil transparently degrades to the per-point
    reference.  The chunks of one sweep can be dealt out to several lanes,
    the calling thread and a per-sweep thread pool, each with its own pencil
    buffer; every point still gets its own ``gesv`` and its own rows of the
    output, so the lane count changes no bit.  Only dataset sampling
    (:func:`repro.data.sampler.sample_system`) asks for more than one lane;
    every sweep reached through :func:`evaluate_descriptor` keeps one.

:func:`build_evaluation_plan` with ``_evaluate_with_plan`` (the plan)
    The eigendecomposition fast path.  A real spectral shift ``sigma`` turns the
    (possibly singular-``E``) pencil into the ordinary eigenproblem of
    ``K = (A - sigma E)^{-1} E``; with ``K = V diag(lambda) V^{-1}``,

    ``(sE - A)^{-1} = V diag(1 / ((s - sigma) lambda_i - 1)) V^{-1} (A - sigma E)^{-1}``

    so after an O(n^3) plan (:class:`EvaluationPlan`) every point costs only
    ``O(n m + p n m)`` -- the same Cauchy-kernel algebra as a pole-residue
    model, eq. ``H(s) = Ctilde (sI - Lambda)^{-1} Btilde + D`` in
    diagonalized coordinates.  A plan is a pure function of the system: its
    shift comes from the matrices (moved toward the smallest pole when it
    sits far above it), and it is verified against the direct solve on the
    imaginary axis at the magnitudes of its own smallest, median and largest
    finite poles, and rejected (``None``) when the pencil is
    non-diagonalizable or too ill-conditioned; points where the pencil is
    singular are repaired through the pointwise reference.

:func:`evaluate_descriptor` sweeps through the plan it is given and through
the stacked solve otherwise.  The one decision between them is made by
:meth:`DescriptorSystem.evaluate_many
<repro.systems.statespace.DescriptorSystem.evaluate_many>`, which owns the
cached plan: it passes the plan for sweeps of at least
:data:`FAST_PATH_MIN_POINTS` points when the plan verifies, and none
otherwise.  Pole-residue (Cauchy) models are served by
:func:`evaluate_cauchy`, which is the same vectorized weights-times-residues
contraction the plan uses internally.

The stacked solve goes through the :func:`repro.backends.get_backend`
record, fetched on every call; it holds ``np.linalg.solve`` itself, so the
results are unchanged by the indirection.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.backends import get_backend

__all__ = [
    "EvaluationPlan",
    "build_evaluation_plan",
    "choose_evaluation_plan",
    "evaluate_descriptor",
    "evaluate_pointwise",
    "evaluate_cauchy",
    "factor_evaluation_plan",
    "plan_probe_ratio",
    "point_solve",
    "FAST_PATH_MIN_POINTS",
    "PLAN_GUARD_TOLERANCE",
    "POLE_SPREAD_LIMIT",
    "SINGULAR_DENOMINATOR_RTOL",
    "SOLVE_BUFFER_BYTES",
    "SOLVE_CHUNK",
]

#: Shortest sweep :meth:`~repro.systems.statespace.DescriptorSystem.evaluate_many`
#: runs through the evaluation plan; shorter sweeps cannot amortize the O(n^3)
#: plan and take the stacked solve.
FAST_PATH_MIN_POINTS = 8

#: Relative agreement (vs the direct solve, at the plan's probe points) a
#: plan must achieve before the fast path is trusted for a system.
PLAN_GUARD_TOLERANCE = 1e-7

#: How far (as a ratio) a plan's shift may sit above its smallest finite pole
#: before :func:`choose_evaluation_plan` also tries their geometric mean.
POLE_SPREAD_LIMIT = 1e3

#: Most points per stacked ``np.linalg.solve`` call.
SOLVE_CHUNK = 64

#: Byte budget of one sweep's transient ``(chunk, n, n)`` pencil buffers,
#: shared by its lanes: each lane's buffer holds ``SOLVE_BUFFER_BYTES //
#: lanes`` of pencils, so a system too large for ``SOLVE_CHUNK`` pencils in
#: it solves fewer points per call (at least one), and a sweep gets no more
#: lanes than it has pencils' worth of budget.  Each point still gets its own
#: LAPACK ``gesv``, so the results depend neither on the chunk nor on the lanes.
SOLVE_BUFFER_BYTES = 8 * 2**20

#: Relative cancellation threshold below which a Cauchy-weight denominator
#: ``(s - sigma) lambda - 1`` marks the pencil (near-)singular at a point.
#: Rounding rarely makes the denominator *exactly* zero at a singular point,
#: so an ``isfinite`` check alone would let ~1e15-magnitude garbage through;
#: such points are repaired via the dense per-point reference instead.
SINGULAR_DENOMINATOR_RTOL = 1e-8


def point_solve(E: np.ndarray, A: np.ndarray, B: np.ndarray, s: complex) -> np.ndarray:
    """``(sE - A)^{-1} B`` at one point; least-squares on a singular pencil.

    This is the shared singular-pencil repair every consumer routes
    through (the pointwise reference loop here and
    :meth:`DescriptorSystem.transfer_function
    <repro.systems.statespace.DescriptorSystem.transfer_function>`); it
    *is* the bit-stability reference.
    """
    pencil = s * E - A
    try:
        return np.linalg.solve(pencil, B)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(pencil, B, rcond=None)[0]


def evaluate_pointwise(E, A, B, C, D, points) -> np.ndarray:
    """Reference per-point loop: ``H(s_i) = C (s_i E - A)^{-1} B + D``.

    This is the semantics the vectorized kernels replicate; it is kept
    (and exported) as the comparison baseline for the equivalence tests and
    the ``bench_eval_kernel`` speedup measurements.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    b = B.astype(complex)
    out = np.empty((pts.size, C.shape[0], B.shape[1]), dtype=complex)
    for i, s in enumerate(pts):
        out[i] = C @ point_solve(E, A, b, complex(s)) + D
    return out


def _evaluate_solve(E, A, B, C, D, pts: np.ndarray, *, workers: int = 1) -> np.ndarray:
    """Batched stacked-pencil solves; bitwise identical to the per-point loop.

    Every chunk's pencils ``s E - A`` are assembled in a reused buffer
    (multiply into it, subtract ``A`` in place): the same elementwise
    operations as ``s * E - A``, without two fresh ``(chunk, n, n)``
    temporaries per chunk.

    The chunks are dealt round-robin to at most ``workers`` lanes, and never
    to more lanes than there are chunks: the calling thread works the first
    lane, a per-sweep thread pool the others.  Each lane owns one buffer,
    allocated here by the calling thread (a worker's own allocations would
    stay resident in its malloc arena), and together the buffers stay
    within ``SOLVE_BUFFER_BYTES``.  A lane writes only its chunks' rows of
    the output, and an exception in any lane propagates once every lane
    has stopped.
    """
    solve = get_backend().solve
    b = B.astype(complex)
    out = np.empty((pts.size, C.shape[0], B.shape[1]), dtype=complex)
    dtype = np.result_type(pts, E, A)
    pencil_bytes = max(A.size, 1) * dtype.itemsize
    lanes = max(1, min(workers, SOLVE_BUFFER_BYTES // pencil_bytes))
    chunk = min(SOLVE_CHUNK, max(1, SOLVE_BUFFER_BYTES // lanes // pencil_bytes))
    lanes = max(1, min(lanes, -(-pts.size // chunk)))
    buffers = [np.empty((min(chunk, pts.size),) + A.shape, dtype=dtype) for _ in range(lanes)]

    def work(lane: int) -> None:
        buffer = buffers[lane]
        for lo in range(lane * chunk, pts.size, lanes * chunk):
            block = pts[lo : lo + chunk]
            n_block = block.shape[0]
            pencils = buffer[:n_block]
            np.multiply(block[:, np.newaxis, np.newaxis], E, out=pencils)
            pencils -= A
            try:
                x = solve(pencils, np.broadcast_to(b, (n_block,) + b.shape))
            except np.linalg.LinAlgError:
                # a singular pencil inside the chunk: degrade to the per-point
                # reference, which resolves exactly the singular points via lstsq
                out[lo : lo + n_block] = evaluate_pointwise(E, A, B, C, D, block)
                continue
            out[lo : lo + n_block] = np.matmul(C, x) + D

    if lanes == 1:
        work(0)
        return out
    with ThreadPoolExecutor(max_workers=lanes - 1, thread_name_prefix="solve-lane") as pool:
        others = [pool.submit(work, lane) for lane in range(1, lanes)]
        work(0)
        for lane in others:
            lane.result()
    return out


def evaluate_cauchy(poles, residues, d, points) -> np.ndarray:
    """Vectorized pole-residue (Cauchy) evaluation ``sum_n R_n / (s - a_n) + D``.

    Parameters
    ----------
    poles:
        Complex pole array of length ``n``.
    residues:
        Residue matrices, shape ``(n, p, m)``.
    d:
        Constant term ``(p, m)``.
    points:
        Complex evaluation points (used verbatim).

    Returns
    -------
    numpy.ndarray
        ``(k, p, m)`` stacked evaluations.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    poles = np.asarray(poles, dtype=complex).ravel()
    weights = 1.0 / (pts[:, np.newaxis] - poles[np.newaxis, :])  # (k, n)
    return _contract(weights, np.asarray(residues), d)


def _contract(weights: np.ndarray, residues: np.ndarray, d) -> np.ndarray:
    """``sum_n weights[:, n] residues[n] + d``: one ``(k, n) x (n, p m)`` GEMM."""
    response = np.tensordot(weights, residues, axes=(1, 0))  # (k, p, m)
    return response + np.asarray(d)[np.newaxis, :, :]


@dataclass(frozen=True)
class EvaluationPlan:
    """Precomputed shift-invert diagonalization of one descriptor system.

    Attributes
    ----------
    sigma:
        The real spectral shift used to regularise the pencil,
        ``||A||_F / ||E||_F``, or its geometric mean with the smallest pole
        when that sits far below it (:func:`choose_evaluation_plan`).  Any
        value that is not a generalized eigenvalue works; this one is on the
        scale of the system's poles and depends on nothing else, so every
        sweep through the plan is a function of the system and its points
        alone.  Being real, it keeps the plan of a real system in real
        arithmetic.
    eigenvalues:
        Eigenvalues ``lambda_i`` of ``K = (A - sigma E)^{-1} E``.  Infinite
        generalized eigenvalues of ``(A, E)`` map to ``lambda_i = 0`` and are
        handled exactly -- singular ``E`` needs no special casing.
    b_tilde:
        ``V^{-1} (A - sigma E)^{-1} B`` (``n x m``).
    c_tilde:
        ``C V`` (``p x n``).
    d:
        Feed-through term ``(p, m)``.
    """

    sigma: float
    eigenvalues: np.ndarray
    b_tilde: np.ndarray
    c_tilde: np.ndarray
    d: np.ndarray

    def _denominators(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``z = (s - sigma) lambda_i`` and the weight denominators ``z - 1``, ``(k, n)``."""
        z = (pts[:, np.newaxis] - self.sigma) * self.eigenvalues[np.newaxis, :]
        return z, z - 1.0

    def _response(self, denominators: np.ndarray) -> np.ndarray:
        """``sum_i c~_i b~_i / denominators[:, i] + D``: one GEMM over the rank-1 residues."""
        residues = self.c_tilde.T[:, :, np.newaxis] * self.b_tilde[:, np.newaxis, :]  # (n, p, m)
        with np.errstate(divide="ignore", invalid="ignore"):
            return _contract(1.0 / denominators, residues, self.d)

    def evaluate(self, points) -> np.ndarray:
        """Evaluate the transfer function at ``points`` (``(k, p, m)``).

        The ``(k, n)`` Cauchy weights are contracted once against the
        ``(n, p m)`` rank-1 residues ``c~_i (x) b~_i`` -- the contraction
        :func:`evaluate_cauchy` runs for a pole-residue model.  Points where
        the pencil is (near-)singular produce non-finite or
        cancellation-polluted values; use :func:`evaluate_descriptor` for
        the guarded version that repairs them through the pointwise
        reference (see :meth:`suspect_points`).
        """
        pts = np.asarray(points, dtype=complex).ravel()
        return self._response(self._denominators(pts)[1])

    def suspect_points(self, points) -> np.ndarray:
        """Boolean mask of points where the pencil is (near-)singular.

        A weight denominator ``(s - sigma) lambda_i - 1`` that nearly
        cancels means ``s`` sits (numerically) on a generalized eigenvalue
        of the pencil: the fast path loses up to every significant digit
        there, usually *without* overflowing to inf.  Those points must be
        evaluated through the dense reference instead.
        """
        pts = np.asarray(points, dtype=complex).ravel()
        return _suspect(*self._denominators(pts))


def _suspect(z: np.ndarray, denominators: np.ndarray) -> np.ndarray:
    """Points whose weight denominator ``z - 1`` cancels to round-off (``(k,)``)."""
    return np.any(
        np.abs(denominators) <= SINGULAR_DENOMINATOR_RTOL * (np.abs(z) + 1.0), axis=1
    )


def _pole_magnitudes(plan: EvaluationPlan) -> np.ndarray:
    """Sorted magnitudes of the plan's finite poles ``sigma + 1 / lambda_i``."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        magnitudes = np.abs(plan.sigma + 1.0 / plan.eigenvalues)
    return np.sort(magnitudes[np.isfinite(magnitudes)])


def plan_probe_ratio(plan: EvaluationPlan, E, A, B, C, D) -> tuple[Optional[complex], float]:
    """The plan's worst probe point and its mismatch as a fraction of the tolerance.

    The probes are ``j |p|`` for the smallest, median and largest of the
    plan's finite poles ``p = sigma + 1 / lambda_i`` (an infinite
    generalized eigenvalue maps to ``lambda_i = 0`` and gives none).
    Probes where the pencil is (near-)singular are excluded -- the guarded
    evaluation repairs those through the reference anyway, so they say
    nothing about the plan's quality elsewhere.  At each probe the mismatch
    is the plan's deviation from the direct solve relative to the solve's
    norm; the ratio divides the largest by :data:`PLAN_GUARD_TOLERANCE`, so
    the plan verifies iff it is at most 1.  ``(None, 0.0)`` when no probe
    remains.
    """
    magnitudes = _pole_magnitudes(plan)
    if not magnitudes.size:
        return None, 0.0
    probes = 1j * magnitudes[[0, magnitudes.size // 2, -1]]
    probes = probes[~plan.suspect_points(probes)]
    if not probes.size:
        return None, 0.0
    fast = plan.evaluate(probes)
    direct = _evaluate_solve(E, A, B, C, D, probes)
    scale = np.linalg.norm(direct.reshape(probes.size, -1), axis=1)
    mismatch = np.linalg.norm((fast - direct).reshape(probes.size, -1), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = mismatch / (PLAN_GUARD_TOLERANCE * np.maximum(scale, np.finfo(float).tiny))
    worst = int(np.argmax(np.where(np.isnan(ratios), np.inf, ratios)))
    return complex(probes[worst]), float(ratios[worst])


def factor_evaluation_plan(E, A, B, C, D, *, shift: Optional[float] = None
                           ) -> Optional[EvaluationPlan]:
    """The unverified :class:`EvaluationPlan` of a system, or ``None``.

    ``None`` when a factorization fails or yields non-finite values.  The
    shift defaults to ``||A||_F / ||E||_F`` (1.0 where that is undefined), a
    scale of the system's poles; being real, it makes the factorizations
    follow the dtype of the system's matrices: a real system gets a real
    ``eig``, a complex system the complex one.
    """
    if shift is None:
        with np.errstate(divide="ignore", invalid="ignore"):
            shift = np.linalg.norm(A) / np.linalg.norm(E)
        shift = float(shift) if np.isfinite(shift) and shift > 0.0 else 1.0
    try:
        factor = A - shift * E
        k_mat = np.linalg.solve(factor, E)
        eigenvalues, vectors = np.linalg.eig(k_mat)
        b_tilde = np.linalg.solve(vectors, np.linalg.solve(factor, B))
        c_tilde = C @ vectors
    except np.linalg.LinAlgError:
        return None
    if not (np.all(np.isfinite(eigenvalues)) and np.all(np.isfinite(b_tilde))
            and np.all(np.isfinite(c_tilde))):
        return None
    return EvaluationPlan(
        sigma=shift,
        eigenvalues=eigenvalues,
        b_tilde=b_tilde,
        c_tilde=c_tilde,
        d=np.asarray(D),
    )


def choose_evaluation_plan(E, A, B, C, D
                           ) -> tuple[Optional[EvaluationPlan], Optional[complex], float]:
    """The plan :func:`build_evaluation_plan` verifies, its worst probe and ratio.

    The plan at the default shift (:func:`factor_evaluation_plan`), unless
    that shift sits more than :data:`POLE_SPREAD_LIMIT` times above the
    plan's smallest finite pole and the plan's worst probe is at that pole:
    then a second plan is factored at their geometric mean, and the one
    with the smaller :func:`plan_probe_ratio` is kept.  A shift far above a
    pole leaves the weights at that pole to the cancellation
    ``(s - sigma) lambda - 1``, which costs the sweep digits at the low end
    of the band; when the worst probe is elsewhere, the plan's error does
    not come from there, and the second factorization is not paid for.
    ``(None, None, inf)`` when no plan factors.
    """
    plan = factor_evaluation_plan(E, A, B, C, D)
    if plan is None:
        return None, None, float("inf")
    probe, ratio = plan_probe_ratio(plan, E, A, B, C, D)
    magnitudes = _pole_magnitudes(plan)
    if (probe is not None and abs(probe) == magnitudes[0]
            and magnitudes[0] * POLE_SPREAD_LIMIT < plan.sigma):
        other = factor_evaluation_plan(E, A, B, C, D,
                                       shift=float(np.sqrt(plan.sigma * magnitudes[0])))
        if other is not None:
            other_probe, other_ratio = plan_probe_ratio(other, E, A, B, C, D)
            if np.nan_to_num(other_ratio, nan=np.inf) < np.nan_to_num(ratio, nan=np.inf):
                plan, probe, ratio = other, other_probe, other_ratio
    return plan, probe, ratio


def build_evaluation_plan(E, A, B, C, D):
    """Build and verify the :class:`EvaluationPlan` of a system, or return ``None``.

    The plan is a pure function of the five matrices
    (:func:`choose_evaluation_plan`).  It is checked against the direct
    dense solve at ``j |p|`` for the smallest, median and largest of its own
    finite poles ``p``, the ends and the middle of the band the system
    responds in; a relative disagreement beyond :data:`PLAN_GUARD_TOLERANCE`
    (:func:`plan_probe_ratio` above 1: ill-conditioned eigenvectors,
    non-diagonalizable pencil) rejects the plan so callers fall back to the
    stacked solve for this system.
    """
    plan, _, ratio = choose_evaluation_plan(E, A, B, C, D)
    return plan if ratio <= 1.0 else None


def _evaluate_with_plan(plan: EvaluationPlan, E, A, B, C, D, pts: np.ndarray) -> np.ndarray:
    """Fast-path evaluation with (near-)singular points repaired via the reference.

    The suspect-point mask reads the same denominators the weights do.
    """
    z, denominators = plan._denominators(pts)
    out = plan._response(denominators)
    bad = _suspect(z, denominators) | ~np.isfinite(out).all(axis=(1, 2))
    if np.any(bad):
        out[bad] = evaluate_pointwise(E, A, B, C, D, pts[bad])
    return out


def evaluate_descriptor(E, A, B, C, D, points, *,
                        plan: EvaluationPlan | None = None) -> np.ndarray:
    """Evaluate ``H(s) = C (sE - A)^{-1} B + D`` at many points.

    Parameters
    ----------
    E, A, B, C, D:
        The descriptor quintuple (``E`` may be singular).
    points:
        Complex points, used verbatim.
    plan:
        The system's verified :class:`EvaluationPlan` (e.g. the one cached
        on a :class:`~repro.systems.statespace.DescriptorSystem`): the sweep
        runs through it, with (near-)singular points repaired through the
        reference.  Without one, the sweep is the stacked solve, bitwise
        identical to :func:`evaluate_pointwise`.

    Returns
    -------
    numpy.ndarray
        ``(k, p, m)`` stacked evaluations.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    if plan is None:
        return _evaluate_solve(E, A, B, C, D, pts)
    return _evaluate_with_plan(plan, E, A, B, C, D, pts)
