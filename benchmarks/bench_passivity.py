"""Passivity benchmark: batched margin kernels + enforcement vs the loop.

The passivity-enforcement stage (:mod:`repro.vectorfitting.enforcement`)
leans entirely on the batched margin kernels of
:mod:`repro.vectorfitting.passivity`: every sweep of every perturbation
round is one call of the stacked spectral-norm kernel
:func:`~repro.utils.linalg.spectral_norms` (scattering) or one stacked
``eigvalsh`` (immittance).  The per-frequency alternative is
``passivity_violations_reference`` (``tests/oracles.py``) -- one small
LAPACK factorization per frequency inside a Python loop, kept as the
equivalence oracle.

This module measures both on a population of seeded pole-residue models
with genuine (normalized) passivity violations over a dense log sweep:

* ``reference`` -- the per-frequency oracle loop over every model,
* ``batched``   -- :func:`~repro.vectorfitting.passivity.
  passivity_violations` (identical violation lists, one stacked kernel
  call per model),

and then walks one violating model through the full enforcement stage
(:func:`~repro.vectorfitting.enforcement.enforce_passivity`), verifying the
certificate against a sweep 10x denser than the enforcement grid.

The acceptance floors (enforced here and by the CI perf gate through
``benchmarks/baselines/passivity.json``): the batched margin sweep is at
least **3x** faster than the reference loop with identical violations, and
enforcement certifies the violating model (negative margin before, margin
above ``-tolerance`` after) within the iteration budget.  Results land in
``BENCH_passivity.json``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data.dataset import FrequencyData
from repro.vectorfitting.enforcement import (
    PassivitySpec,
    enforce_passivity,
    passivity_margins,
)
from repro.vectorfitting.passivity import passivity_violations
from repro.vectorfitting.rational import PoleResidueModel

from oracles import passivity_violations_reference

#: Required batched-margin speedup over the per-frequency reference loop.
MIN_SPEEDUP = 3.0

#: Agreement demanded between the two violation lists (relative, on the
#: reported metric; the spectral-norm kernel and the per-matrix LAPACK norm
#: agree to a few ulps).
METRIC_AGREEMENT = 1e-10

N_MODELS = 4
N_PAIRS = 10
N_PORTS = 4
N_FREQS = 4096
SWEEP = (1e5, 5e9)

#: Normalized worst singular value of every generated model: a few percent
#: above the passivity boundary, the regime enforcement is documented for.
TARGET_SIGMA = 1.05


def _violating_model(seed: int) -> PoleResidueModel:
    """A seeded stable pole-residue model normalized to sigma_max ~ 1.05."""
    rng = np.random.default_rng(seed)
    f0 = rng.uniform(1e6, 1e9, N_PAIRS)
    zeta = rng.uniform(0.02, 0.3, N_PAIRS)
    w0 = 2.0 * np.pi * f0
    half = -zeta * w0 + 1j * w0 * np.sqrt(1.0 - zeta**2)
    poles = np.concatenate([half, half.conj()])
    shape = (N_PAIRS, N_PORTS, N_PORTS)
    r_half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    residues = np.concatenate([r_half, r_half.conj()]) * 1e8
    d = 0.2 * np.eye(N_PORTS)
    model = PoleResidueModel(poles, residues, d=d)
    probe = np.geomspace(*SWEEP, 2048)
    response = np.asarray(model.frequency_response(probe))
    sigma_max = float(np.linalg.svd(response, compute_uv=False)[:, 0].max())
    return PoleResidueModel(poles, residues * (TARGET_SIGMA / sigma_max), d=d)


def _timed(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def test_batched_margins_beat_reference_loop(benchmark, reportable, json_reportable):
    """Stacked-SVD margin sweeps >=3x the per-frequency loop, then enforce."""
    models = [_violating_model(seed) for seed in range(N_MODELS)]
    freqs = np.geomspace(*SWEEP, N_FREQS)

    for model in models:  # warm the evaluation plans out of the timed section
        passivity_violations(model, freqs)

    reference_lists, loop_seconds = _timed(
        lambda: [passivity_violations_reference(m, freqs) for m in models]
    )
    batched_lists, batched_seconds = _timed(
        lambda: [passivity_violations(m, freqs) for m in models]
    )

    n_violations = 0
    for ref_list, fast_list in zip(reference_lists, batched_lists):
        assert len(ref_list) == len(fast_list), (
            f"batched sweep found {len(fast_list)} violations where the "
            f"reference loop found {len(ref_list)}"
        )
        n_violations += len(ref_list)
        for ref, fast in zip(ref_list, fast_list):
            assert ref.frequency_hz == fast.frequency_hz
            assert abs(ref.metric - fast.metric) <= METRIC_AGREEMENT * abs(ref.metric)
    assert n_violations > 0, "the benchmark population must actually violate"

    speedup = loop_seconds / batched_seconds

    # the full enforcement stage on one violating model, certified against a
    # sweep 10x denser than the enforcement grid
    model = models[0]
    data_freqs = np.geomspace(1e6, 1e9, 60)
    data = FrequencyData(data_freqs, np.asarray(model.frequency_response(data_freqs)), kind="S")
    spec = PassivitySpec(
        n_check=96, band_factor=2.0, max_iterations=30, max_error_growth=5.0, holdout_oversample=2
    )
    pre_margin = float(passivity_margins(model, np.geomspace(*SWEEP, 1024)).min())
    (enforced, certificate), enforce_seconds = _timed(lambda: enforce_passivity(model, data, spec))
    dense_freqs = np.geomspace(certificate.f_min_hz, certificate.f_max_hz, 10 * spec.n_check)
    dense = np.concatenate([[0.0], dense_freqs])
    residual = float(passivity_margins(enforced, dense, representation=spec.representation).min())
    assert residual >= -spec.tolerance, (
        f"enforced model still dips to {residual:.3e} on the 10x sweep"
    )

    results = {
        "n_models": N_MODELS,
        "n_ports": N_PORTS,
        "n_poles": 2 * N_PAIRS,
        "n_frequencies": N_FREQS,
        "n_violations": n_violations,
        "reference_seconds": loop_seconds,
        "batched_seconds": batched_seconds,
        "speedup": speedup,
        "pre_margin": pre_margin,
        "enforce_seconds": enforce_seconds,
        "enforce_iterations": certificate.iterations,
        "certificate_margin": certificate.worst_margin,
        "dense_residual_margin": residual,
        "perturbation_norm": certificate.perturbation_norm,
    }
    lines = [
        "passivity: batched margin kernels vs per-frequency reference loop",
        f"population  {N_MODELS} models, {N_PORTS} ports, {2 * N_PAIRS} poles, "
        f"{N_FREQS} frequencies, {n_violations} violations",
        f"reference   {loop_seconds:7.3f}s   batched {batched_seconds:7.3f}s   ({speedup:5.1f}x)",
        f"enforcement pre-margin {pre_margin:+.3e} -> residual {residual:+.3e} "
        f"in {certificate.iterations} round(s), {enforce_seconds:.3f}s",
    ]
    reportable("passivity.txt", "\n".join(lines))
    json_reportable("passivity", results)
    benchmark.extra_info["speedup"] = f"{speedup:.1f}x"
    benchmark.pedantic(
        lambda: [passivity_violations(m, freqs) for m in models],
        rounds=3,
        iterations=1,
    )

    assert speedup >= MIN_SPEEDUP, (
        f"batched margin sweep only {speedup:.1f}x faster than the "
        f"per-frequency loop (required: {MIN_SPEEDUP:.0f}x)"
    )
