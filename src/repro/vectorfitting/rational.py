"""Pole-residue rational models.

Vector fitting produces models in *pole-residue* form,

``H(s) = sum_n R_n / (s - a_n) + D``,

with matrix residues ``R_n`` sharing a common pole set.  This class stores
that form directly -- a sweep is then one vectorized Cauchy contraction
(:func:`repro.systems.evaluation.evaluate_cauchy`), O(n p m) per frequency
instead of a dense linear solve, so it has no kernel to choose -- and
converts to a real block state-space realization on demand (for time-domain
use or comparison with the Loewner models).
"""

from __future__ import annotations

import numpy as np

from repro.systems.evaluation import evaluate_cauchy
from repro.systems.statespace import StateSpace
from repro.utils.validation import ensure_2d
from repro.vectorfitting.kernels import PoleGrouping

__all__ = ["PoleResidueModel"]


class PoleResidueModel:
    """Common-pole rational matrix model ``H(s) = sum_n R_n/(s - a_n) + D``.

    Parameters
    ----------
    poles:
        Complex array of length ``n``.  Complex poles must appear in conjugate
        pairs (their residues must then also be conjugate) for the model to be
        real-valued; purely real pole sets are allowed as well.
    residues:
        Complex array of shape ``(n, p, m)``: one residue matrix per pole.
    d:
        Optional constant term ``D`` (``p x m``); defaults to zero.
    """

    def __init__(self, poles, residues, d=None):
        poles = np.asarray(poles, dtype=complex).ravel()
        residues = np.asarray(residues, dtype=complex)
        if residues.ndim == 2:
            residues = residues[:, np.newaxis, :]
        if residues.ndim != 3 or residues.shape[0] != poles.size:
            raise ValueError(
                f"residues must have shape (n_poles, p, m); got {residues.shape} "
                f"for {poles.size} poles"
            )
        p, m = residues.shape[1], residues.shape[2]
        if d is None:
            d = np.zeros((p, m))
        d = ensure_2d(d, "d")
        if d.shape != (p, m):
            raise ValueError(f"d must have shape {(p, m)}, got {d.shape}")
        self._poles = poles
        self._residues = residues
        self._d = np.asarray(d, dtype=float) if not np.iscomplexobj(d) else np.asarray(d)

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def poles(self) -> np.ndarray:
        """The common pole set (length ``n_poles``)."""
        return self._poles.copy()

    @property
    def residues(self) -> np.ndarray:
        """Residue matrices, shape ``(n_poles, p, m)``."""
        return self._residues.copy()

    @property
    def d(self) -> np.ndarray:
        """Constant (feed-through) term."""
        return np.array(self._d)

    @property
    def n_poles(self) -> int:
        """Number of poles of the rational model."""
        return int(self._poles.size)

    @property
    def order(self) -> int:
        """Alias for :attr:`n_poles` (the order of the scalar rational functions)."""
        return self.n_poles

    @property
    def n_outputs(self) -> int:
        """Number of outputs ``p``."""
        return int(self._residues.shape[1])

    @property
    def n_inputs(self) -> int:
        """Number of inputs ``m``."""
        return int(self._residues.shape[2])

    @property
    def is_stable(self) -> bool:
        """True when every pole lies strictly in the open left half-plane."""
        return bool(np.all(self._poles.real < 0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PoleResidueModel(n_poles={self.n_poles}, outputs={self.n_outputs}, "
            f"inputs={self.n_inputs})"
        )

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def transfer_function(self, s: complex) -> np.ndarray:
        """Evaluate ``H(s)`` at a single complex point."""
        s = complex(s)
        weights = 1.0 / (s - self._poles)
        return np.tensordot(weights, self._residues, axes=(0, 0)) + self._d

    def __call__(self, s: complex) -> np.ndarray:
        """Alias for :meth:`transfer_function`."""
        return self.transfer_function(s)

    def evaluate_many(self, points) -> np.ndarray:
        """Evaluate ``H`` at arbitrary complex points (shape ``(k, p, m)``).

        Pole-residue models are already diagonal, so a sweep is the
        vectorized Cauchy contraction
        (:func:`repro.systems.evaluation.evaluate_cauchy`).
        """
        return evaluate_cauchy(self._poles, self._residues, self._d, points)

    def frequency_response(self, frequencies_hz) -> np.ndarray:
        """Evaluate ``H(j 2 pi f)`` over a frequency grid (shape ``(k, p, m)``)."""
        freqs = np.asarray(frequencies_hz, dtype=float).ravel()
        return self.evaluate_many(1j * 2.0 * np.pi * freqs)

    # ------------------------------------------------------------------ #
    # conversion
    # ------------------------------------------------------------------ #
    def to_statespace(self) -> StateSpace:
        """Real block state-space realization (order ``n_poles * m`` at most).

        Real poles contribute ``m`` states with ``(A, B, C) = (a I, I, Re(R))``;
        complex pairs contribute ``2m`` states with the standard real 2x2 block
        ``[[alpha I, beta I], [-beta I, alpha I]]`` and ``C = [Re(R), Im(R)]``.
        Poles group by :meth:`~repro.vectorfitting.kernels.PoleGrouping.from_poles`;
        an unpaired complex pole makes the model non-real and raises.
        """
        m = self.n_inputs
        p = self.n_outputs
        groups = PoleGrouping.from_poles(self._poles).groups()
        a_blocks: list[np.ndarray] = []
        b_blocks: list[np.ndarray] = []
        c_blocks: list[np.ndarray] = []
        eye = np.eye(m)
        for kind, idx in groups:
            if kind == "unpaired":
                raise ValueError(
                    f"complex pole {self._poles[idx[0]]} has no conjugate partner; "
                    "the model is not real"
                )
            if kind == "real":
                pole = self._poles[idx[0]].real
                residue = self._residues[idx[0]].real
                a_blocks.append(pole * eye)
                b_blocks.append(eye)
                c_blocks.append(residue)
            else:
                pole = self._poles[idx[0]]
                if pole.imag < 0:
                    pole = np.conj(pole)
                    residue = self._residues[idx[1]]
                else:
                    residue = self._residues[idx[0]]
                alpha, beta = pole.real, pole.imag
                a_blocks.append(np.block([[alpha * eye, beta * eye],
                                          [-beta * eye, alpha * eye]]))
                b_blocks.append(np.vstack([2.0 * eye, np.zeros((m, m))]))
                c_blocks.append(np.hstack([residue.real, residue.imag]))
        n_states = sum(block.shape[0] for block in a_blocks)
        a = np.zeros((n_states, n_states))
        b = np.zeros((n_states, m))
        c = np.zeros((p, n_states))
        pos = 0
        for a_blk, b_blk, c_blk in zip(a_blocks, b_blocks, c_blocks):
            size = a_blk.shape[0]
            a[pos : pos + size, pos : pos + size] = a_blk
            b[pos : pos + size, :] = b_blk
            c[:, pos : pos + size] = c_blk
            pos += size
        return StateSpace(a, b, c, np.real(self._d))
