"""Balanced truncation -- a classical projection-based reference reduction.

Balanced truncation is *not* part of the paper's algorithm, but it plays two
roles in the reproduction:

* it provides an independent, well-understood way to compress the high-order
  substrate models (the synthetic PDN) to a given order, which the ablation
  benchmarks use as a sanity reference for "how small can an accurate model
  of this data be", and
* its Hankel-singular-value machinery doubles as a minimality check on the
  models produced by the Loewner realizations.
"""

from __future__ import annotations

import numpy as np

from repro.systems.analysis import controllability_gramian, observability_gramian
from repro.systems.statespace import DescriptorSystem, StateSpace

__all__ = ["balanced_truncation"]


def balanced_truncation(
    system: DescriptorSystem,
    order: int,
    *,
    return_error_bound: bool = False,
):
    """Reduce ``system`` to the requested order by balanced truncation.

    Parameters
    ----------
    system:
        A stable system with invertible ``E`` (converted internally to
        explicit form).
    order:
        Target reduced order ``r``; must satisfy ``1 <= r <= n``.
    return_error_bound:
        When true, also return the classical twice-the-tail H-infinity error
        bound ``2 * sum(hsv[r:])``.

    Returns
    -------
    StateSpace or (StateSpace, float)
        The reduced model (and optionally the error bound).
    """
    n = system.order
    order = int(order)
    if not 1 <= order <= n:
        raise ValueError(f"order must lie in [1, {n}], got {order}")

    p = controllability_gramian(system)
    q = observability_gramian(system)
    # square-root method: P = Lp Lp^T, Q = Lq Lq^T (Cholesky with jitter fallback)
    lp = _safe_cholesky(p)
    lq = _safe_cholesky(q)
    u, s, vh = np.linalg.svd(lq.conj().T @ lp, full_matrices=False)
    hsv = s
    s_r = np.maximum(s[:order], np.finfo(float).tiny)
    t_right = lp @ vh[:order, :].conj().T @ np.diag(s_r ** -0.5)
    t_left = lq @ u[:, :order] @ np.diag(s_r ** -0.5)

    a_exp = np.linalg.solve(system.E, system.A)
    b_exp = np.linalg.solve(system.E, system.B)
    a_r = t_left.conj().T @ a_exp @ t_right
    b_r = t_left.conj().T @ b_exp
    c_r = system.C @ t_right
    reduced = StateSpace(a_r.real, b_r.real, c_r.real, np.array(system.D, dtype=float))
    if return_error_bound:
        bound = 2.0 * float(np.sum(hsv[order:]))
        return reduced, bound
    return reduced


def _safe_cholesky(matrix: np.ndarray) -> np.ndarray:
    """Cholesky factor of a (numerically) positive semi-definite matrix.

    Gramians computed from Lyapunov equations can have tiny negative
    eigenvalues from round-off; a scaled jitter restores positive
    definiteness without visibly perturbing the factorization.
    """
    import scipy.linalg

    matrix = 0.5 * (matrix + matrix.conj().T)
    scale = max(np.max(np.abs(matrix)), 1.0)
    jitter = 0.0
    for _ in range(8):
        try:
            return scipy.linalg.cholesky(matrix + jitter * np.eye(matrix.shape[0]), lower=True)
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, 1e-14 * scale)
    raise np.linalg.LinAlgError("Gramian is not positive semi-definite")
