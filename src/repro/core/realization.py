"""State-space realization from the Loewner pencil.

:func:`svd_realization` implements Lemmas 3.3-3.4 of the paper: when the
data oversamples the underlying system the pencil is singular, and the
regular part is extracted by a rank-revealing SVD followed by a two-sided
projection.  Lemma 3.1's direct realization
``(E, A, B, C, D) = (-L, -sL, V, W, 0)`` of a square, regular pencil is a
case no fit takes; the tests check it with an oracle (``tests/oracles.py``).

Lemma 3.2's real transform, the block unitary congruence that maps the
complex, conjugate-structured Loewner quantities to real matrices (so the
final model has real coefficients), is applied where the pencil is built:
``build_loewner_pencil(data, real=True)`` writes the real pencil from the
``+j omega`` blocks of the tangential data.

Two SVD flavours are provided:

* ``mode="pencil"`` follows the paper literally: one SVD of ``x0*L - sL`` with
  ``x0`` a sample point (complex in general),
* ``mode="two-sided"`` uses the singular values and vectors of ``[L, sL]``
  (rows) and ``[L; sL]`` (columns), the standard choice for noisy/redundant
  data in the Loewner literature; with real-transformed data it keeps every
  factor real.  Both SVDs run on the ``k x k`` triangular QR factors of the
  ``2k``-wide matrices, which have the same singular values and, as right
  singular vectors, the ones the projection reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.loewner import LoewnerPencil
from repro.systems.statespace import DescriptorSystem
from repro.utils.linalg import (
    economic_svd,
    numerical_rank,
    rank_from_gap,
)

__all__ = [
    "svd_realization",
    "RealizationDiagnostics",
]


@dataclass(frozen=True)
class RealizationDiagnostics:
    """Bookkeeping produced by :func:`svd_realization`.

    Attributes
    ----------
    order:
        Order of the realized model (rank kept in the truncation).
    singular_values:
        Singular values of the matrix whose SVD drove the projection
        (``x0*L - sL`` in pencil mode, ``[L, sL]`` in two-sided mode, taken
        from its triangular QR factor).
    x0:
        The shift used in pencil mode (``None`` in two-sided mode).
    mode:
        ``"pencil"`` or ``"two-sided"``.
    rank_tolerance:
        The relative tolerance that was applied when the order was determined
        automatically (``None`` when an explicit order was requested).
    """

    order: int
    singular_values: np.ndarray
    x0: Optional[complex]
    mode: str
    rank_tolerance: Optional[float]


def _determine_order(
    singular_values: np.ndarray,
    order: Optional[int],
    rank_tolerance: float,
    rank_method: str,
) -> int:
    if order is not None:
        order = int(order)
        if not 1 <= order <= singular_values.size:
            raise ValueError(
                f"requested order {order} outside [1, {singular_values.size}]"
            )
        return order
    if rank_method == "gap":
        detected = rank_from_gap(singular_values)
        if detected < singular_values.size:
            return max(detected, 1)
        # no sharp gap -- fall back to the tolerance rule
        return max(numerical_rank(singular_values, rtol=rank_tolerance), 1)
    if rank_method == "tolerance":
        return max(numerical_rank(singular_values, rtol=rank_tolerance), 1)
    raise ValueError(f"unknown rank_method {rank_method!r} (use 'gap' or 'tolerance')")


def _side_singular_vectors(pencil: LoewnerPencil, side: str) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors of one side's triangular QR factor.

    ``side`` is ``"row"`` (the factor of ``[L, sL]*``) or ``"column"`` (that
    of ``[L; sL]``).  The augmented matrix is built here and freed once it is
    factored; the factor and the unread left singular vectors go when this
    returns.  So one side's working set is gone before the other side
    allocates its own.  A real pencil's rows are not conjugated, which would
    only copy them.
    """
    if side == "row":
        augmented = pencil.augmented_row_matrix()
        if np.iscomplexobj(augmented):
            augmented = augmented.conj()
        augmented = augmented.T
    else:
        augmented = pencil.augmented_column_matrix()
    factor = np.linalg.qr(augmented, mode="r")
    del augmented
    _, s, vh = economic_svd(factor)
    return s, vh


def svd_realization(
    pencil: LoewnerPencil,
    *,
    order: Optional[int] = None,
    rank_tolerance: float = 1e-9,
    rank_method: str = "gap",
    mode: str = "two-sided",
    x0: Optional[complex] = None,
) -> tuple[DescriptorSystem, RealizationDiagnostics]:
    """Lemma 3.4: rank-revealing SVD projection of the Loewner pencil.

    Parameters
    ----------
    pencil:
        The (possibly real-transformed) Loewner pencil.
    order:
        Explicit reduced order; when omitted the order is detected from the
        singular-value profile (``rank_method``).
    rank_tolerance:
        Relative tolerance for the ``"tolerance"`` rank rule and the fallback
        of the ``"gap"`` rule.
    rank_method:
        ``"gap"`` (largest singular-value drop, matching the sharp drop the
        paper reports in Fig. 1) or ``"tolerance"``.
    mode:
        ``"pencil"`` (single SVD of ``x0*L - sL``, the paper's Algorithm 1
        step 5) or ``"two-sided"`` (SVDs of ``[L, sL]`` and ``[L; sL]``, run
        on their triangular QR factors ``R_row`` and ``R_col``, where
        ``[L, sL]* = Q R_row`` and ``[L; sL] = Q R_col``: the right singular
        vectors of ``R_row`` are the conjugated left ones of ``[L, sL]``,
        those of ``R_col`` the right ones of ``[L; sL]``).
    x0:
        Shift for pencil mode; defaults to the first right sample point.

    Returns
    -------
    (DescriptorSystem, RealizationDiagnostics)
        The projected model ``(E, A, B, C) = (-Y* L X, -Y* sL X, Y* V, W X)``
        and the diagnostics describing how the order was chosen.
    """
    if mode not in ("pencil", "two-sided"):
        raise ValueError(f"mode must be 'pencil' or 'two-sided', got {mode!r}")

    if mode == "pencil":
        shift = pencil.lambda_points[0] if x0 is None else complex(x0)
        target = pencil.shifted_pencil(shift)
        y_full, s, xh_full = economic_svd(target)
        rank = _determine_order(s, order, rank_tolerance, rank_method)
        y = y_full[:, :rank]
        x = xh_full[:rank, :].conj().T
        diag_sv = s
        used_x0: Optional[complex] = shift
    else:
        # [L, sL] = R_row* Q_row* and [L; sL] = Q_col R_col with orthonormal
        # Q columns: the triangular factors have the singular values, and as
        # right singular vectors the ones the projection reads (conjugated for
        # the rows), without the 2k-long vectors nobody reads.  One side at a
        # time, so the row side's working set is freed before the column
        # side allocates its own
        s_row, yh_full = _side_singular_vectors(pencil, "row")
        s_col, xh_full = _side_singular_vectors(pencil, "column")
        limit = min(s_row.size, s_col.size)
        rank_row = _determine_order(s_row[:limit], order, rank_tolerance, rank_method)
        rank_col = _determine_order(s_col[:limit], order, rank_tolerance, rank_method)
        rank = min(rank_row, rank_col) if order is None else int(order)
        rank = min(rank, limit)
        y = yh_full[:rank, :].conj().T
        x = xh_full[:rank, :].conj().T
        diag_sv = s_row
        used_x0 = None

    yh = y.conj().T
    e = -yh @ pencil.loewner @ x
    a = -yh @ pencil.shifted_loewner @ x
    b = yh @ pencil.V
    c = pencil.W @ x
    d = np.zeros((pencil.n_outputs, pencil.n_inputs))
    if pencil.is_real:
        e, a, b, c = (np.real_if_close(m, tol=1e6) for m in (e, a, b, c))
        e, a, b, c = (m.real if np.iscomplexobj(m) else m for m in (e, a, b, c))
    system = DescriptorSystem(e, a, b, c, d)
    diagnostics = RealizationDiagnostics(
        order=int(rank),
        singular_values=np.asarray(diag_sv, dtype=float),
        x0=used_x0,
        mode=mode,
        rank_tolerance=None if order is not None else rank_tolerance,
    )
    return system, diagnostics
