"""Batched post-fit passivity enforcement with a verifiable certificate.

A fitted macromodel is only deployable in a transient SI/PI simulation if it
is passive; :mod:`repro.vectorfitting.passivity` *checks* that, this module
*repairs* it.  The pipeline is the standard vector-fitting companion
(Gustavsen-style residue perturbation) built on the repository's batched
margin kernels:

1. **Sweep** -- the model is evaluated over a log-spaced check grid spanning
   the data band extended by ``band_factor`` on both sides (DC included),
   plus pole-anchored points that reach from every resonance's peak out to
   ``96`` bandwidths along its skirt, and the passivity margin of every
   frequency comes from one stacked spectral-norm / ``eigvalsh`` call
   (:func:`~repro.vectorfitting.passivity.scattering_margins` /
   :func:`~repro.vectorfitting.passivity.immittance_margins`).
2. **Localize** -- adaptive bisection refinement inserts log-midpoints around
   every sign change of the margin (and next to every violating node), so
   violation bands *between* check frequencies are caught instead of sampled
   over.
3. **Perturb** -- the offending residues receive a least-squares-minimal
   first-order update pushing ``sigma_max(S) <= 1 - slack`` (scattering)
   resp. ``lambda_min(Herm H) >= slack`` (immittance) at each violation
   band's margin minima: the local minima of every run of sub-``slack``
   margins in the refined sweep, not every point of the run
   (Grivet-Talocia, IEEE TCAS-I 2004).  Columns of the constraint system
   are scaled by each pole basis function's L2 norm over the *original
   sample frequencies*, so the minimum-norm solve preferentially spends
   perturbation where it costs the fit the least.  Poles and the
   feed-through ``D`` are never touched.
4. **Certify** -- iteration ends when the refined sweep *and* a denser
   hold-out sweep (``holdout_oversample`` times the base grid) are clean;
   the result is a :class:`PassivityCertificate` (checked band, residual
   margin, perturbation norm, hold-out error delta).  Exhausting the
   iteration budget, an asymptotically non-passive feed-through, or fit-error
   growth beyond ``max_error_growth`` raises a loud :class:`EnforcementFailed`
   instead of returning an uncertified model.

Already-passive models short-circuit: the returned model holds bitwise the
same residues and the certificate records zero iterations and zero
perturbation.  Everything here is deterministic, which is what lets sharded
and served runs merge certificates bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.options import canonical_token
from repro.utils.blas import generalized_eig
from repro.vectorfitting.kernels import PoleGrouping
from repro.vectorfitting.passivity import (
    immittance_margins,
    scattering_margins,
)
from repro.vectorfitting.rational import PoleResidueModel

__all__ = [
    "PassivitySpec",
    "PassivityCertificate",
    "EnforcementFailed",
    "PASSIVITY_METRIC_KEYS",
    "as_pole_residue",
    "passivity_margins",
    "refine_violation_bands",
    "enforce_passivity",
    "passivity_metrics",
]

#: The certificate columns :func:`passivity_metrics` produces, in export
#: order (all floats, so they ship through the shard / wire hex encoding).
PASSIVITY_METRIC_KEYS = (
    "worst_margin",
    "perturbation_norm",
    "error_delta",
    "iterations",
    "n_frequencies",
    "f_min_hz",
    "f_max_hz",
)

#: Largest margin correction requested in one perturbation round.  The
#: update is first-order in the residues, so a deep violation is walked to
#: the boundary over several rounds instead of extrapolated in one unstable
#: jump.
_MAX_MARGIN_STEP = 0.25

#: Largest relative residue change per round (trust region of the
#: linearization); a larger least-squares step is scaled back onto it.
_MAX_RELATIVE_STEP = 0.5

#: Absolute floor of the fit-error growth budget, per unit of
#: ``max_error_growth``.  The aggregate error metric is a dimensionless RMS
#: of relative errors, so a model that interpolates its samples *exactly*
#: (original error ``0.0``) would otherwise have a zero budget and every
#: repair -- however small -- would fail the gate.  With the floor, the
#: budget is ``original * (1 + g) + g * 0.02``: a strict no-growth gate at
#: ``g = 0``, and ~1% absolute relative-error allowance at the default
#: ``g = 0.5``.
_ERROR_GROWTH_FLOOR = 0.02

#: Relative singular-value cutoff of the per-round least-squares solve.
#: The constraint matrix is rank-deficient at a clustered violation band
#: (many nearby frequencies, few residue parameters); without a spectral
#: filter the min-norm solution rides near-null directions that barely
#: move the margins to first order yet destroy them at second order, so
#: the iteration diverges.  Truncating at 1e-2 of the largest singular
#: value keeps the step inside the well-conditioned sensitivity subspace.
_LSTSQ_RCOND = 1e-2


class EnforcementFailed(RuntimeError):
    """Passivity enforcement could not produce a certified model.

    Raised -- never swallowed -- when the iteration budget is exhausted with
    violations remaining, when the feed-through itself is non-passive (a
    residue update cannot fix the behaviour at infinite frequency), or when
    the repaired model's fit error grew beyond the spec's budget.
    """


@dataclass(frozen=True)
class PassivitySpec:
    """Configuration of one passivity-enforcement run (JSON-safe, fingerprintable).

    Attributes
    ----------
    representation:
        ``"S"`` (scattering, unit-disc condition) or ``"Z"`` / ``"Y"``
        (immittance, positive-real condition).
    n_check:
        Size of the base log-spaced check grid (DC is added on top).
    band_factor:
        The checked band extends from ``f_min_data / band_factor`` to
        ``f_max_data * band_factor`` -- violations often hide just outside
        the fitting band.
    slack:
        Enforcement target margin: violations are pushed to
        ``sigma_max <= 1 - slack`` (resp. ``lambda_min >= slack``), not just
        to the boundary.  A run of sweep points with margin below ``slack``
        is a violation band, and the constraints hold *at* each band's
        margin minima; the rest of the band is lifted with them (a later
        round constrains any point left behind), and between check
        frequencies the margin ripples by roughly a tenth of the repaired
        violation depth, so the slack must dominate that ripple -- the
        ``1e-3`` default holds for violations up to a few percent, and
        deeper violations warrant a proportionally larger slack.
    tolerance:
        Check tolerance (the :func:`~repro.vectorfitting.passivity.
        passivity_violations` meaning): residual margins above ``-tolerance``
        count as passive.
    max_iterations:
        Budget of perturb-and-recheck rounds before :class:`EnforcementFailed`.
    refine_levels:
        Bisection-refinement depth around margin sign changes per sweep.
    holdout_oversample:
        The hold-out verification grid is this factor denser than the base
        check grid (it must stay denser than the enforcement sweep).
    max_error_growth:
        Maximum allowed *relative* growth of the model's aggregate fit error
        on the original samples; beyond it enforcement fails loudly.
    """

    representation: str = "S"
    n_check: int = 128
    band_factor: float = 2.0
    slack: float = 1e-3
    tolerance: float = 1e-8
    max_iterations: int = 12
    refine_levels: int = 3
    holdout_oversample: int = 4
    max_error_growth: float = 0.5

    def __post_init__(self):
        if self.representation not in ("S", "Z", "Y"):
            raise ValueError(f"representation must be 'S', 'Z' or 'Y', got {self.representation!r}")
        if int(self.n_check) != self.n_check or self.n_check < 2:
            raise ValueError(f"n_check must be an integer >= 2, got {self.n_check!r}")
        if not np.isfinite(self.band_factor) or self.band_factor < 1.0:
            raise ValueError(f"band_factor must be >= 1, got {self.band_factor!r}")
        if not np.isfinite(self.slack) or not 0.0 < self.slack < 1.0:
            raise ValueError(f"slack must lie in (0, 1), got {self.slack!r}")
        if not np.isfinite(self.tolerance) or self.tolerance < 0.0:
            raise ValueError(f"tolerance must be finite and >= 0, got {self.tolerance!r}")
        if int(self.max_iterations) != self.max_iterations or self.max_iterations < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")
        if int(self.refine_levels) != self.refine_levels or self.refine_levels < 0:
            raise ValueError(f"refine_levels must be an integer >= 0, got {self.refine_levels!r}")
        if int(self.holdout_oversample) != self.holdout_oversample or self.holdout_oversample < 2:
            raise ValueError(
                "holdout_oversample must be an integer >= 2 (the hold-out grid "
                f"must be denser than the check grid), got {self.holdout_oversample!r}"
            )
        if not np.isfinite(self.max_error_growth) or self.max_error_growth < 0.0:
            raise ValueError(
                f"max_error_growth must be finite and >= 0, got {self.max_error_growth!r}"
            )
        object.__setattr__(self, "n_check", int(self.n_check))
        object.__setattr__(self, "band_factor", float(self.band_factor))
        object.__setattr__(self, "slack", float(self.slack))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "max_iterations", int(self.max_iterations))
        object.__setattr__(self, "refine_levels", int(self.refine_levels))
        object.__setattr__(self, "holdout_oversample", int(self.holdout_oversample))
        object.__setattr__(self, "max_error_growth", float(self.max_error_growth))

    def to_dict(self) -> dict:
        """JSON-safe field dict (workload kwargs, wire protocol)."""
        return {
            "representation": self.representation,
            "n_check": self.n_check,
            "band_factor": self.band_factor,
            "slack": self.slack,
            "tolerance": self.tolerance,
            "max_iterations": self.max_iterations,
            "refine_levels": self.refine_levels,
            "holdout_oversample": self.holdout_oversample,
            "max_error_growth": self.max_error_growth,
        }

    def canonical_items(self) -> list[tuple[str, str]]:
        """Exact-token field encoding (the options convention), for fingerprints."""
        return [(key, canonical_token(value)) for key, value in sorted(self.to_dict().items())]


@dataclass(frozen=True)
class PassivityCertificate:
    """The verifiable outcome of one enforcement run.

    Attributes
    ----------
    representation:
        Which passivity condition was certified (``"S"``, ``"Z"``, ``"Y"``).
    f_min_hz, f_max_hz:
        The checked band (data band extended by the spec's ``band_factor``).
    n_frequencies:
        Total number of distinct frequencies the final model was verified at
        (refined enforcement sweep plus the denser hold-out sweep).
    worst_margin:
        Smallest residual passivity margin over all verified frequencies
        (``1 - sigma_max`` for scattering, ``lambda_min`` for immittance).
        A certified model keeps this above ``-tolerance``.
    perturbation_norm:
        Frobenius norm of the total residue update relative to the original
        residue norm (``0.0`` for an already-passive model).
    error_delta:
        Change of the model's aggregate error against the hold-out reference
        (against the fit data when no reference was supplied): enforced
        minus original.
    iterations:
        Number of perturbation rounds performed (``0`` = already passive).
    """

    representation: str
    f_min_hz: float
    f_max_hz: float
    n_frequencies: int
    worst_margin: float
    perturbation_norm: float
    error_delta: float
    iterations: int

    def to_metrics(self) -> dict[str, float]:
        """The certificate as the flat float columns batch records carry."""
        return {
            "worst_margin": float(self.worst_margin),
            "perturbation_norm": float(self.perturbation_norm),
            "error_delta": float(self.error_delta),
            "iterations": float(self.iterations),
            "n_frequencies": float(self.n_frequencies),
            "f_min_hz": float(self.f_min_hz),
            "f_max_hz": float(self.f_max_hz),
        }


# --------------------------------------------------------------------------- #
# model conversion
# --------------------------------------------------------------------------- #
def as_pole_residue(model) -> PoleResidueModel:
    """Convert any fitted model into the pole-residue form enforcement edits.

    * :class:`~repro.vectorfitting.rational.PoleResidueModel` passes through,
    * objects carrying a ``.model`` pole-residue attribute (vector-fitting
      results) unwrap,
    * descriptor systems / macromodel results diagonalize through the
      generalized eigendecomposition of ``(A, E)``: with ``A V = E V diag(w)``
      the residues are ``R_n = (C v_n) ((E V)^-1 B)_n`` and the feed-through
      is ``D`` unchanged.  The QZ is ``scipy.linalg.eig(A, E)`` bit for bit,
      run on numpy's OpenBLAS (:func:`repro.utils.blas.generalized_eig`), so
      certifying a model loads no scipy.

    Raises
    ------
    EnforcementFailed
        When the pencil has infinite eigenvalues (an improper model has a
        polynomial part no residue perturbation can repair) or is too
        defective to diagonalize.
    """
    if isinstance(model, PoleResidueModel):
        return model
    inner = getattr(model, "model", None)
    if isinstance(inner, PoleResidueModel):
        return inner
    system = getattr(model, "system", model)
    for attribute in ("E", "A", "B", "C", "D"):
        if not hasattr(system, attribute):
            raise TypeError(
                f"cannot convert {type(model).__name__} to pole-residue form: "
                "expected a PoleResidueModel or a descriptor system (E, A, B, C, D)"
            )
    E = np.asarray(system.E)
    A = np.asarray(system.A)
    B = np.asarray(system.B)
    C = np.asarray(system.C)
    D = np.asarray(system.D)
    poles, V = generalized_eig(A, E)
    if not np.all(np.isfinite(poles)):
        raise EnforcementFailed(
            "the model's (A, E) pencil has infinite eigenvalues: an improper "
            "(polynomial) part cannot be repaired by residue perturbation"
        )
    EV = E @ V
    try:
        G = np.linalg.solve(EV, B)
    except np.linalg.LinAlgError as exc:
        raise EnforcementFailed(
            f"the model's eigenvector basis is numerically singular ({exc}); "
            "cannot form the pole-residue representation"
        ) from exc
    CV = C @ V
    residues = CV.T[:, :, np.newaxis] * G[:, np.newaxis, :]
    return PoleResidueModel(poles, residues, d=D)


# --------------------------------------------------------------------------- #
# margins and adaptive refinement
# --------------------------------------------------------------------------- #
def passivity_margins(model, frequencies_hz, *, representation: str = "S") -> np.ndarray:
    """Signed distance to the passivity boundary at every sweep frequency.

    Positive values mean passive with margin: ``1 - sigma_max(S)`` for
    scattering, ``lambda_min(Herm H)`` for immittance.  One batched kernel
    call per sweep (:func:`~repro.vectorfitting.passivity.scattering_margins`
    / :func:`~repro.vectorfitting.passivity.immittance_margins`).
    """
    freqs = np.asarray(frequencies_hz, dtype=float).ravel()
    response = np.asarray(model.frequency_response(freqs))
    if representation == "S":
        return 1.0 - scattering_margins(response)
    if representation in ("Z", "Y"):
        return immittance_margins(response)
    raise ValueError(f"representation must be 'S', 'Z' or 'Y', got {representation!r}")


def _midpoints(freqs: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Midpoints of the flagged adjacent intervals (log-mid off DC)."""
    lo, hi = freqs[:-1][active], freqs[1:][active]
    positive = lo > 0.0
    mids = np.where(positive, np.sqrt(np.where(positive, lo, 1.0) * hi), 0.5 * (lo + hi))
    return mids


def refine_violation_bands(
    model,
    frequencies_hz,
    *,
    representation: str = "S",
    levels: int = 3,
    threshold: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptively refine a check sweep around passivity-margin sign changes.

    Starting from the (sorted, deduplicated) input sweep, each level inserts
    the log-midpoint of every adjacent frequency pair whose margin crosses
    ``threshold`` or whose endpoints dip below it -- so narrow violation
    bands *between* grid nodes are localized instead of missed.  Returns the
    refined ``(frequencies, margins)`` with margins evaluated through the
    batched kernels; deterministic for fixed inputs.
    """
    freqs = np.unique(np.asarray(frequencies_hz, dtype=float).ravel())
    margins = passivity_margins(model, freqs, representation=representation)
    for _ in range(int(levels)):
        below = margins < threshold
        active = below[:-1] | below[1:]
        if not np.any(active):
            break
        mids = np.setdiff1d(_midpoints(freqs, active), freqs)
        if mids.size == 0:
            break
        new_margins = passivity_margins(model, mids, representation=representation)
        order = np.argsort(np.concatenate([freqs, mids]), kind="stable")
        freqs = np.concatenate([freqs, mids])[order]
        margins = np.concatenate([margins, new_margins])[order]
    return freqs, margins


def _band_minima(margins: np.ndarray, threshold: float) -> np.ndarray:
    """Indices of the local margin minima inside every run of sub-``threshold`` margins.

    A run is a maximal stretch of consecutive sweep points with margin below
    ``threshold``.  A flat stretch of equal margins counts as one point and
    is kept whole when it is lower than its nearest different neighbours in
    the run (a run edge competes only inwards).  Flat stretches are real:
    pole anchors and refinement midpoints can land one ulp apart, and such
    points carry bitwise-equal margins, so comparing single neighbours would
    keep a spurious minimum at every such pair on a slope.  Ascending
    indices, empty when every margin clears ``threshold``.
    """
    level = np.where(np.asarray(margins) < threshold, margins, np.inf)
    new_stretch = np.ones(level.size, dtype=bool)
    new_stretch[1:] = level[1:] != level[:-1]
    starts = np.flatnonzero(new_stretch)
    flat = np.concatenate([[np.inf], level[starts], [np.inf]])
    lowest = (flat[1:-1] < flat[:-2]) & (flat[1:-1] < flat[2:])
    return np.flatnonzero(np.repeat(lowest, np.diff(np.append(starts, level.size))))


# --------------------------------------------------------------------------- #
# the residue perturbation
# --------------------------------------------------------------------------- #
def _group_bases(groups, poles: np.ndarray, s: np.ndarray) -> list[list[np.ndarray]]:
    """Complex basis functions of every group's free parameters at points ``s``.

    Real group: ``[phi]`` (one real matrix parameter).  Conjugate pair with
    representative ``a``: ``[phi_a + phi_conj(a), j (phi_a - phi_conj(a))]``
    (the real and imaginary parts of the representative residue).  Unpaired
    complex pole: ``[phi, j phi]``.
    """
    bases: list[list[np.ndarray]] = []
    for kind, idx in groups:
        phi = 1.0 / (s - poles[idx[0]])
        if kind == "real":
            bases.append([phi])
        elif kind == "pair":
            phi_conj = 1.0 / (s - poles[idx[1]])
            bases.append([phi + phi_conj, 1j * (phi - phi_conj)])
        else:  # unpaired
            bases.append([phi, 1j * phi])
    return bases


def _apply_update(residues: np.ndarray, groups, updates: list[list[np.ndarray]]):
    """Fold the solved real parameter matrices back into the residue stack."""
    for (kind, idx), group_updates in zip(groups, updates):
        if kind == "real":
            residues[idx[0]] += group_updates[0]
        elif kind == "pair":
            delta = group_updates[0] + 1j * group_updates[1]
            residues[idx[0]] += delta
            residues[idx[1]] += np.conj(delta)
        else:
            residues[idx[0]] += group_updates[0] + 1j * group_updates[1]


def _constraint_directions(
    model: PoleResidueModel, freqs: np.ndarray, representation: str, threshold: float
):
    """Every offending singular/eigen direction at the constraint frequencies.

    The frequencies are the violation bands' margin minima
    (:func:`_band_minima`), and each contributes one constraint per
    *(frequency, violating direction)* pair: constraining only the worst
    singular value would let the second one rise through the ceiling while
    the first is pushed down.  Returns
    ``(margins, left, right, freq_index)`` flattened over all directions with
    margin below ``threshold`` (the worst direction of each frequency is
    always included); a residue update moves each margin to first order by
    ``-Re(u^H dH v)`` (scattering) resp. ``+Re(q^H dH q)`` (immittance).
    """
    response = np.asarray(model.frequency_response(freqs))
    if representation == "S":
        u_all, sigma, vh_all = np.linalg.svd(response)
        margins_all = 1.0 - sigma  # ascending severity along axis 1
        left_all = np.swapaxes(u_all, 1, 2)
        right_all = np.conj(vh_all)
    else:
        hermitian = 0.5 * (response + np.conj(np.swapaxes(response, 1, 2)))
        eigvals, eigvecs = np.linalg.eigh(hermitian)
        margins_all = eigvals  # ascending: worst first
        left_all = np.swapaxes(eigvecs, 1, 2)
        right_all = left_all
    offending = margins_all < threshold
    offending[:, 0] = True  # each constraint frequency contributes its worst
    freq_index, direction = np.nonzero(offending)
    return (
        margins_all[freq_index, direction],
        left_all[freq_index, direction],
        right_all[freq_index, direction],
        freq_index,
    )


def _solve_perturbation(
    model: PoleResidueModel,
    constraint_freqs: np.ndarray,
    spec: PassivitySpec,
    data_freqs: np.ndarray,
) -> np.ndarray:
    """One least-squares-minimal residue update enforcing the slack targets.

    Builds one real linear constraint (first-order margin change) per
    offending singular/eigen direction at every constraint frequency -- the
    margin minima of the violation bands, so a band costs a few rows instead
    of one per refined-sweep point -- over the per-group real residue
    parameters, scales every column by its basis function's L2 norm over the
    *data* frequencies (so minimum-norm in scaled coordinates approximately
    minimizes the fit perturbation), and solves with
    :func:`numpy.linalg.lstsq` (minimum-norm for the underdetermined case).
    Returns the updated residue stack.
    """
    poles = model.poles
    residues = model.residues
    p, m = residues.shape[1], residues.shape[2]
    groups = PoleGrouping.from_poles(poles).groups()

    margins, left, right, freq_index = _constraint_directions(
        model, constraint_freqs, spec.representation, spec.slack
    )
    # target: margin -> slack at every offending direction, stepping at
    # most _MAX_MARGIN_STEP per round (first-order trust region)
    deficits = np.minimum(spec.slack - margins, _MAX_MARGIN_STEP)

    s_constraint = 1j * 2.0 * np.pi * constraint_freqs[freq_index]
    s_data = 1j * 2.0 * np.pi * np.asarray(data_freqs, dtype=float).ravel()
    bases = _group_bases(groups, poles, s_constraint)
    data_bases = _group_bases(groups, poles, s_data)

    # outer[v, a, b] = conj(u_a) * v_b at constraint frequency v: the
    # sensitivity of the active singular value / eigenvalue to dH[a, b]
    outer = np.conj(left)[:, :, np.newaxis] * right[:, np.newaxis, :]
    sign = -1.0 if spec.representation == "S" else 1.0

    columns: list[np.ndarray] = []
    scales: list[float] = []
    layout: list[tuple[int, int]] = []  # (group index, parameter index)
    for g, parameter_bases in enumerate(bases):
        for k, basis in enumerate(parameter_bases):
            # d margin_v / d X_ab = sign * Re(basis_v * conj(u_a) v_b)
            block = sign * np.real(basis[:, np.newaxis, np.newaxis] * outer)
            columns.append(block.reshape(s_constraint.size, p * m))
            norm = float(np.linalg.norm(data_bases[g][k]))
            scales.append(max(norm, float(np.finfo(float).tiny)))
            layout.append((g, k))
    matrix = np.concatenate(columns, axis=1)
    scale_row = np.repeat(np.asarray(scales), p * m)
    solution, *_ = np.linalg.lstsq(matrix / scale_row, deficits, rcond=_LSTSQ_RCOND)
    solution = solution / scale_row

    updates: list[list[np.ndarray]] = [
        [np.zeros((p, m)) for _ in parameter_bases] for parameter_bases in bases
    ]
    offset = 0
    for g, k in layout:
        updates[g][k] = solution[offset : offset + p * m].reshape(p, m)
        offset += p * m
    new_residues = residues.copy()
    _apply_update(new_residues, groups, updates)
    step = float(np.linalg.norm(new_residues - residues))
    scale_limit = _MAX_RELATIVE_STEP * max(
        float(np.linalg.norm(residues)), float(np.finfo(float).tiny)
    )
    if step > scale_limit:
        new_residues = residues + (new_residues - residues) * (scale_limit / step)
    return new_residues


# --------------------------------------------------------------------------- #
# the enforcement loop
# --------------------------------------------------------------------------- #
def _check_band(data_freqs: np.ndarray, spec: PassivitySpec) -> tuple[float, float]:
    positive = data_freqs[data_freqs > 0.0]
    if positive.size == 0:
        raise ValueError("enforcement needs at least one positive data frequency")
    return float(positive.min() / spec.band_factor), float(positive.max() * spec.band_factor)


#: Bandwidth offsets of the pole-anchored check points: every resonance gets
#: samples at ``f0 * (1 + k * zeta)`` for these ``k`` (``zeta`` = relative
#: half-bandwidth), so high-Q dips narrower than the log-grid spacing are
#: sampled instead of straddled.  The geometric tail out to ``96 zeta`` covers
#: each resonance's skirt: with one constraint per violation band, narrow
#: violations a few to tens of bandwidths off a high-Q pole are otherwise left
#: to the log grid, whose spacing can be wider than the whole skirt.
_ANCHOR_SKIRT = (0.25, 0.5, 1.0, 2.0, 3.0, 6.0, 12.0, 24.0, 48.0, 96.0)
_ANCHOR_OFFSETS = (*(-k for k in reversed(_ANCHOR_SKIRT)), 0.0, *_ANCHOR_SKIRT)


def _pole_anchor_points(
    poles: np.ndarray, f_lo: float, f_hi: float, *, density: int = 1
) -> np.ndarray:
    """Deterministic check frequencies clustered around every pole resonance.

    A pole ``a`` shapes the margin most sharply near ``f0 = |a| / 2 pi`` over
    a relative bandwidth ``zeta ~ |Re a| / |a|``; a log-spaced grid coarser
    than ``zeta`` can straddle the whole dip, which is exactly the failure
    bisection refinement cannot recover from (no node ever sees the
    violation).  ``density`` subdivides every interval between adjacent
    offsets into that many equal steps for denser hold-out use.
    """
    anchors = []
    offsets = np.asarray(_ANCHOR_OFFSETS)
    if density > 1:
        steps = np.arange(density) / density
        inner = offsets[:-1, np.newaxis] + np.diff(offsets)[:, np.newaxis] * steps
        offsets = np.append(inner.ravel(), offsets[-1])
    for pole in np.asarray(poles, dtype=complex):
        magnitude = abs(pole)
        if magnitude == 0.0:
            continue
        f0 = magnitude / (2.0 * np.pi)
        zeta = min(1.0, abs(pole.real) / magnitude)
        anchors.append(f0 * (1.0 + offsets * zeta))
    if not anchors:
        return np.empty(0)
    points = np.concatenate(anchors)
    return np.unique(points[(points >= f_lo) & (points <= f_hi)])


def _check_grid(
    f_lo: float, f_hi: float, n_points: int, poles: np.ndarray = None, *, anchor_density: int = 1
) -> np.ndarray:
    """DC plus a log-spaced grid over the extended band, plus pole anchors."""
    grid = np.concatenate([[0.0], np.geomspace(f_lo, f_hi, int(n_points))])
    if poles is not None:
        grid = np.union1d(grid, _pole_anchor_points(poles, f_lo, f_hi, density=anchor_density))
    return grid


def _feedthrough_margin(model: PoleResidueModel, representation: str) -> float:
    """Margin of the model at infinite frequency (``H(j inf) = D``)."""
    d = np.atleast_2d(np.asarray(model.d, dtype=complex))
    if representation == "S":
        return 1.0 - float(np.linalg.norm(d, 2))
    hermitian = 0.5 * (d + d.conj().T)
    return float(np.min(np.linalg.eigvalsh(hermitian)))


def _aggregate_error(model, data, responses=None) -> float:
    from repro.metrics.errors import model_aggregate_error

    # the response cache only shares the model-independent reference norms
    # here: every perturbation round evaluates a *new* candidate model, so
    # memoizing those sweeps would only pollute the cache
    norms = responses.reference_norms(data) if responses is not None else None
    return float(model_aggregate_error(model, data, norms=norms))


def enforce_passivity(
    model,
    data,
    spec: PassivitySpec,
    *,
    reference=None,
    responses=None,
) -> tuple[PoleResidueModel, PassivityCertificate]:
    """Repair a fitted model into a certified passive one (or fail loudly).

    Parameters
    ----------
    model:
        The fitted model: a :class:`~repro.vectorfitting.rational.
        PoleResidueModel`, a vector-fitting result, or any descriptor-system
        carrier (:func:`as_pole_residue` handles the conversion).
    data:
        The original fit samples (:class:`~repro.data.dataset.FrequencyData`);
        the checked band derives from its frequency range and the fit-error
        growth budget is measured against it.
    spec:
        The :class:`PassivitySpec` to enforce.
    reference:
        Optional hold-out sweep; when given, the certificate's
        ``error_delta`` is measured against it instead of the fit data.
    responses:
        Optional response tally (see :class:`repro.cache.ResponseTally`);
        shares the reference-norm sweeps of ``data``/``reference`` with
        other jobs in a batch.  Never changes any value.

    Returns
    -------
    (model, certificate):
        The certified passive model (bitwise-identical residues when the
        input already passed every check) and its
        :class:`PassivityCertificate`.

    Raises
    ------
    EnforcementFailed
        See the class docstring; an uncertified model is never returned.
    """
    prm = as_pole_residue(model)
    data_freqs = np.asarray(data.frequencies_hz, dtype=float).ravel()
    f_lo, f_hi = _check_band(data_freqs, spec)
    base = _check_grid(f_lo, f_hi, spec.n_check, prm.poles)
    n_holdout = spec.n_check * spec.holdout_oversample
    holdout = _check_grid(f_lo, f_hi, n_holdout, prm.poles, anchor_density=spec.holdout_oversample)

    error_data = data if reference is None else reference
    original_error = _aggregate_error(prm, error_data, responses)
    original_fit_error = _aggregate_error(prm, data, responses)
    original_norm = float(np.linalg.norm(prm.residues))

    def verified(candidate):
        """Refined-sweep + hold-out verification of one candidate model."""
        freqs, margins = refine_violation_bands(
            candidate,
            base,
            representation=spec.representation,
            levels=spec.refine_levels,
            threshold=spec.slack,
        )
        holdout_margins = passivity_margins(candidate, holdout, representation=spec.representation)
        sweep_clean = bool(np.all(margins >= -spec.tolerance))
        holdout_clean = bool(np.all(holdout_margins >= -spec.tolerance))
        worst = float(min(margins.min(), holdout_margins.min()))
        n_checked = np.union1d(freqs, holdout).size
        return sweep_clean and holdout_clean, freqs, margins, holdout_margins, worst, n_checked

    ok, freqs, margins, _, worst, n_checked = verified(prm)
    if ok:
        certificate = PassivityCertificate(
            representation=spec.representation,
            f_min_hz=f_lo,
            f_max_hz=f_hi,
            n_frequencies=int(n_checked),
            worst_margin=worst,
            perturbation_norm=0.0,
            error_delta=0.0,
            iterations=0,
        )
        return prm, certificate

    if _feedthrough_margin(prm, spec.representation) < 0.0:
        raise EnforcementFailed(
            "the feed-through term D is itself non-passive "
            f"(margin {_feedthrough_margin(prm, spec.representation):.3e} at "
            "infinite frequency); residue perturbation cannot repair the "
            "asymptotic behaviour"
        )

    current = prm
    work_freqs, work_margins = freqs, margins
    for iteration in range(1, spec.max_iterations + 1):
        constraint_freqs = work_freqs[_band_minima(work_margins, spec.slack)]
        if constraint_freqs.size == 0:
            constraint_freqs = work_freqs[np.argsort(work_margins)[:1]]
        new_residues = _solve_perturbation(current, constraint_freqs, spec, data_freqs)
        current = PoleResidueModel(current.poles, new_residues, d=current.d)

        ok, work_freqs, work_margins, holdout_margins, worst, n_checked = verified(current)
        if not ok:
            # fold clear hold-out violations into the next round's sweep
            bad_mask = holdout_margins < -spec.tolerance
            bad = holdout[bad_mask]
            if bad.size:
                order = np.argsort(np.concatenate([work_freqs, bad]), kind="stable")
                merged = np.concatenate([work_freqs, bad])[order]
                merged_margins = np.concatenate([work_margins, holdout_margins[bad_mask]])[order]
                keep = np.concatenate([[True], np.diff(merged) > 0.0])
                work_freqs, work_margins = merged[keep], merged_margins[keep]
            continue

        enforced_fit_error = _aggregate_error(current, data, responses)
        growth_budget = (
            original_fit_error * (1.0 + spec.max_error_growth)
            + spec.max_error_growth * _ERROR_GROWTH_FLOOR
        )
        if enforced_fit_error > growth_budget + np.finfo(float).eps:
            raise EnforcementFailed(
                f"enforcement inflated the fit error from {original_fit_error:.3e} "
                f"to {enforced_fit_error:.3e}, beyond the allowed growth of "
                f"{spec.max_error_growth:.0%}; loosen max_error_growth or refit "
                "with more poles"
            )
        perturbation = float(
            np.linalg.norm(current.residues - prm.residues)
            / max(original_norm, float(np.finfo(float).tiny))
        )
        error_delta = _aggregate_error(current, error_data, responses) - original_error
        certificate = PassivityCertificate(
            representation=spec.representation,
            f_min_hz=f_lo,
            f_max_hz=f_hi,
            n_frequencies=int(n_checked),
            worst_margin=worst,
            perturbation_norm=perturbation,
            error_delta=float(error_delta),
            iterations=iteration,
        )
        return current, certificate

    raise EnforcementFailed(
        f"passivity violations remain after {spec.max_iterations} perturbation "
        f"round(s) (worst residual margin {float(work_margins.min()):.3e}); "
        "increase max_iterations, loosen slack, or refit with more poles"
    )


def passivity_metrics(
    model, data, spec: PassivitySpec, *, reference=None, responses=None
) -> dict[str, float]:
    """The certificate columns of one enforced model (the batch entry point).

    Runs :func:`enforce_passivity` and flattens the certificate into the
    :data:`PASSIVITY_METRIC_KEYS` dict carried on
    :class:`~repro.batch.jobs.JobRecord`.  An :class:`EnforcementFailed`
    propagates -- in a batch run it fails that job's record loudly instead of
    emitting an uncertified row.
    """
    _, certificate = enforce_passivity(model, data, spec, reference=reference, responses=responses)
    return certificate.to_metrics()
