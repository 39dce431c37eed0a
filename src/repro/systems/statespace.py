"""Descriptor-system and state-space model classes.

The class hierarchy is intentionally small:

* :class:`DescriptorSystem` holds the quintuple ``(E, A, B, C, D)`` of eq. (1)
  of the paper and evaluates its transfer function
  ``H(s) = C (sE - A)^{-1} B + D`` at a scalar point, along a frequency grid
  and at arbitrary points.  ``E`` may be singular -- that is precisely the
  form the Loewner framework produces.  Its sweeps make the one choice of
  the shared kernel (:mod:`repro.systems.evaluation`): long sweeps go
  through the system's cached eigendecomposition plan, short ones (and
  systems whose plan does not verify) through the stacked solve.
* :class:`StateSpace` is the convenience subclass with ``E = I`` (a standard
  state-space model), used by the vector-fitting baseline and the circuit
  substrate when the mass matrix happens to be invertible.

Both classes are immutable value objects: all matrices are copied and
read-only, which makes them safe to share between experiments and tests.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.systems.evaluation import (
    FAST_PATH_MIN_POINTS,
    build_evaluation_plan,
    evaluate_descriptor,
    point_solve,
)
from repro.utils.validation import check_finite, ensure_2d

__all__ = ["DescriptorSystem", "StateSpace"]


def _as_readonly(array: np.ndarray) -> np.ndarray:
    out = np.array(array, copy=True)
    out.setflags(write=False)
    return out


#: Sentinel stored in the plan cache when the fast path was tried and rejected.
_PLAN_UNAVAILABLE = object()


class DescriptorSystem:
    """Linear time-invariant descriptor system ``E x' = A x + B u``, ``y = C x + D u``.

    Parameters
    ----------
    E, A:
        Square ``n x n`` matrices.  ``E`` may be singular.
    B:
        ``n x m`` input matrix.
    C:
        ``p x n`` output matrix.
    D:
        Optional ``p x m`` feed-through matrix; defaults to zero.

    Notes
    -----
    The matrices may be real or complex.  Models recovered by the Loewner
    interpolation core are complex before the real transform of Lemma 3.2 and
    real afterwards; both are represented by this class.
    """

    def __init__(self, E, A, B, C, D=None):
        A = ensure_2d(A, "A")
        n = A.shape[0]
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if E is None:
            E = np.eye(n)
        E = ensure_2d(E, "E")
        if E.shape != A.shape:
            raise ValueError(f"E shape {E.shape} must match A shape {A.shape}")
        B = ensure_2d(B, "B")
        if B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got shape {B.shape}")
        C = ensure_2d(C, "C")
        if C.shape[1] != n:
            raise ValueError(f"C must have {n} columns, got shape {C.shape}")
        p, m = C.shape[0], B.shape[1]
        if D is None:
            D = np.zeros((p, m))
        D = ensure_2d(D, "D")
        if D.shape != (p, m):
            raise ValueError(f"D must have shape {(p, m)}, got {D.shape}")
        for name, mat in (("E", E), ("A", A), ("B", B), ("C", C), ("D", D)):
            check_finite(mat, name)
        self._E = _as_readonly(E)
        self._A = _as_readonly(A)
        self._B = _as_readonly(B)
        self._C = _as_readonly(C)
        self._D = _as_readonly(D)
        # lazily built evaluation fast path (shared sweep-evaluation kernel);
        # safe to cache because the matrices are immutable and the plan is a
        # function of them alone
        self._eval_plan = None

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def E(self) -> np.ndarray:
        """Descriptor (mass) matrix ``E``."""
        return self._E

    @property
    def A(self) -> np.ndarray:
        """State matrix ``A``."""
        return self._A

    @property
    def B(self) -> np.ndarray:
        """Input matrix ``B``."""
        return self._B

    @property
    def C(self) -> np.ndarray:
        """Output matrix ``C``."""
        return self._C

    @property
    def D(self) -> np.ndarray:
        """Feed-through matrix ``D``."""
        return self._D

    @property
    def order(self) -> int:
        """State dimension ``n`` (the size of ``A``)."""
        return self._A.shape[0]

    @property
    def n_inputs(self) -> int:
        """Number of inputs ``m``."""
        return self._B.shape[1]

    @property
    def n_outputs(self) -> int:
        """Number of outputs ``p``."""
        return self._C.shape[0]

    @property
    def n_ports(self) -> int:
        """Number of ports for square systems; raises when ``m != p``."""
        if self.n_inputs != self.n_outputs:
            raise ValueError(
                "n_ports is only defined for square systems "
                f"(m={self.n_inputs}, p={self.n_outputs})"
            )
        return self.n_inputs

    @property
    def is_real(self) -> bool:
        """True when every system matrix is (numerically) real-valued."""
        return not any(
            np.iscomplexobj(mat) and np.max(np.abs(mat.imag)) > 0
            for mat in (self._E, self._A, self._B, self._C, self._D)
        )

    @property
    def shape(self) -> tuple[int, int]:
        """``(p, m)`` -- the shape of the transfer-function matrix."""
        return (self.n_outputs, self.n_inputs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "real" if self.is_real else "complex"
        return (
            f"{type(self).__name__}(order={self.order}, inputs={self.n_inputs}, "
            f"outputs={self.n_outputs}, {kind})"
        )

    def __getstate__(self):
        # the plan cache may hold an identity-based sentinel; rebuild lazily
        # on the other side instead of shipping it across pickle boundaries
        # (the rebuilt plan is the same one: it depends on the matrices alone)
        state = self.__dict__.copy()
        state["_eval_plan"] = None
        return state

    def __setstate__(self, state):
        # unpickling skips __init__, and numpy unpickles arrays writable
        self.__dict__.update(state)
        for mat in (self._E, self._A, self._B, self._C, self._D):
            mat.setflags(write=False)

    # ------------------------------------------------------------------ #
    # transfer-function evaluation
    # ------------------------------------------------------------------ #
    def transfer_function(self, s: complex) -> np.ndarray:
        """Evaluate ``H(s) = C (sE - A)^{-1} B + D`` at a single complex point."""
        x = point_solve(self._E, self._A, self._B.astype(complex), complex(s))
        return self._C @ x + self._D

    def __call__(self, s: complex) -> np.ndarray:
        """Alias for :meth:`transfer_function`."""
        return self.transfer_function(s)

    def _evaluation_plan(self):
        """The cached fast-path plan, built (and verified) on first use.

        ``None`` when the plan was rejected; the rejection is cached too.
        """
        if self._eval_plan is None:
            plan = build_evaluation_plan(self._E, self._A, self._B, self._C, self._D)
            self._eval_plan = _PLAN_UNAVAILABLE if plan is None else plan
        return None if self._eval_plan is _PLAN_UNAVAILABLE else self._eval_plan

    def frequency_response(self, frequencies_hz: Iterable[float]) -> np.ndarray:
        """Evaluate the transfer function at ``s = j 2 pi f`` for every frequency.

        Parameters
        ----------
        frequencies_hz:
            Iterable of frequencies in Hz.

        Returns
        -------
        numpy.ndarray
            Array of shape ``(k, p, m)`` with ``H(j 2 pi f_i)`` stacked along
            the first axis.
        """
        freqs = np.asarray(list(frequencies_hz), dtype=float)
        return self.evaluate_many(1j * 2.0 * np.pi * freqs)

    def evaluate_many(self, points: Iterable[complex]) -> np.ndarray:
        """Evaluate the transfer function at arbitrary complex points.

        Unlike :meth:`frequency_response` the points are used verbatim (no
        ``j 2 pi f`` mapping), which is what the interpolation core needs when
        it works with the ``lambda_i`` / ``mu_i`` sample points directly.
        This is where the shared kernel's (:mod:`repro.systems.evaluation`)
        one decision is made: a sweep of at least
        :data:`~repro.systems.evaluation.FAST_PATH_MIN_POINTS` points runs
        through the cached eigendecomposition plan when the plan verifies
        for this system, and every other sweep through the batched
        stacked-pencil solve -- bitwise identical to the per-point
        reference loop.
        """
        pts = np.asarray(list(points), dtype=complex)
        plan = self._evaluation_plan() if pts.size >= FAST_PATH_MIN_POINTS else None
        return evaluate_descriptor(self._E, self._A, self._B, self._C, self._D, pts, plan=plan)

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def to_real(self, *, rtol: float = 1e-8) -> "DescriptorSystem":
        """Drop negligible imaginary parts and return a real-valued system.

        Raises
        ------
        ValueError
            If any matrix has an imaginary part larger than ``rtol`` times its
            magnitude -- that indicates the model is genuinely complex (e.g.
            the Loewner realization before the Lemma-3.2 transform) and cannot
            be converted by simply truncating.
        """
        mats = []
        for name, mat in (("E", self._E), ("A", self._A), ("B", self._B),
                          ("C", self._C), ("D", self._D)):
            if np.iscomplexobj(mat):
                scale = np.max(np.abs(mat)) if mat.size else 0.0
                if scale > 0 and np.max(np.abs(mat.imag)) > rtol * scale:
                    raise ValueError(
                        f"matrix {name} has significant imaginary part; "
                        "apply the real transform (Lemma 3.2) before calling to_real()"
                    )
                mats.append(mat.real.copy())
            else:
                mats.append(mat.copy())
        return DescriptorSystem(*mats)

    def copy(self) -> "DescriptorSystem":
        """Return an independent copy of the system."""
        return DescriptorSystem(self._E, self._A, self._B, self._C, self._D)


class StateSpace(DescriptorSystem):
    """Standard state-space model ``x' = A x + B u``, ``y = C x + D u`` (``E = I``)."""

    def __init__(self, A, B, C, D=None):
        A = ensure_2d(A, "A")
        super().__init__(np.eye(A.shape[0]), A, B, C, D)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StateSpace(order={self.order}, inputs={self.n_inputs}, "
            f"outputs={self.n_outputs})"
        )
