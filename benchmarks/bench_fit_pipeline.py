"""Fit-pipeline benchmark: batched vector-fitting kernels vs the per-entry loops.

The evaluation side runs on one vectorized kernel;
:mod:`repro.vectorfitting.kernels` does the same for the vector-fitting
side.  This module measures both halves of those kernels on the shared
PDN / transmission-line workloads:

* ``vf inner loop`` -- the pole-structured kernels executed on every
  vector-fitting relocation iteration (group walk, partial-fraction basis,
  relocation companion form, residue reconstruction): the looped reference
  implementations (``*_reference`` in ``tests/oracles.py``, one Python step
  per pole group exactly like the pre-batched code) against the batched
  kernels operating on a :class:`~repro.vectorfitting.kernels.PoleGrouping` built
  once per iteration.
  Acceptance floor: **>= 3x** per workload (reference ~5-7x), with bitwise
  identical outputs.

* ``vf projection`` -- the fast-VF per-entry LS projection, batched into
  two large GEMMs by :func:`~repro.vectorfitting.kernels.vf_scaling_blocks`.  This
  stage is BLAS-bound (the per-entry GEMMs of the reference are already
  large), so the batching buys a single kernel call per iteration rather
  than flops; the floor is simply "not slower" and the agreement with the
  looped reference is checked to round-off.

A cold end-to-end ``vector_fit`` of each workload is reported alongside for
context.  Results land in ``BENCH_fit_pipeline.json``, gated by
``baselines/fit_pipeline.json`` in CI.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.circuits.mna import netlist_to_descriptor
from repro.circuits.transmission_line import lumped_transmission_line
from repro.data import add_measurement_noise, linear_frequencies, sample_scattering
from repro.experiments.example2 import Example2Config, build_pdn_datasets
from repro.utils.linalg import realify
from repro.vectorfitting.fitting import vector_fit
from repro.vectorfitting.kernels import (
    PoleGrouping,
    partial_fraction_basis,
    relocation_matrices,
    residues_from_coefficients,
    vf_scaling_blocks,
)
from repro.vectorfitting.poles import initial_poles, sort_poles

from oracles import (
    partial_fraction_basis_reference,
    relocation_matrices_reference,
    residues_from_coefficients_reference,
    vf_scaling_blocks_reference,
)

#: Required batched-vs-looped speedup of the pole-structured VF kernels.
MIN_KERNEL_SPEEDUP = 3.0

#: The BLAS-bound projection stage must simply not get slower when batched;
#: the floor is far below the ~1x reference so shared-runner timing noise on
#: this wall-clock ratio cannot flake the build (a real regression -- e.g. an
#: accidental quadratic copy -- lands well under it).
MIN_PROJECTION_SPEEDUP = 0.5

#: Timed repetitions (pole kernels are micro-scale, so they get many rounds).
KERNEL_ROUNDS = 200
PROJECTION_ROUNDS = 10

#: Pole counts per workload (PDN matches the Table-1 setting).
VF_POLES = {"pdn": 24, "tline": 16}


@pytest.fixture(scope="module")
def workloads():
    """The shared noisy PDN and transmission-line measurement sets."""
    cfg = Example2Config(n_samples=100, n_validation=120)
    pdn_data, _, _ = build_pdn_datasets(cfg)
    line = netlist_to_descriptor(lumped_transmission_line(0.1, 40))
    line_data = add_measurement_noise(
        sample_scattering(line, linear_frequencies(1e6, 5e9, 100),
                          label="transmission line"),
        relative_level=1e-6, seed=5)
    return {"pdn": pdn_data, "tline": line_data}


def _timed(fn, rounds=1):
    started = time.perf_counter()
    for _ in range(rounds):
        value = fn()
    return value, (time.perf_counter() - started) / rounds


def test_vf_inner_loop_speedup(benchmark, workloads, reportable, json_reportable):
    """Batched pole-structured VF kernels beat the per-group loops >=3x."""
    rows = []
    results = {}
    rng = np.random.default_rng(0)
    for name, data in workloads.items():
        n_poles = VF_POLES[name]
        freqs = data.frequencies_hz
        s_points = 1j * 2.0 * np.pi * freqs
        p, m = data.n_outputs, data.n_inputs
        n_entries = p * m
        responses = data.samples.reshape(data.n_samples, n_entries)
        poles = sort_poles(initial_poles(n_poles, float(freqs[0]), float(freqs[-1])))
        coeffs = rng.normal(size=(n_poles + 1, n_entries))

        # --- pole-structured kernels: one grouping + batched ops per iteration
        def run_batched():
            grouping = PoleGrouping.from_poles(poles)
            phi = partial_fraction_basis(s_points, poles, grouping)
            a_mat, b_vec = relocation_matrices(poles, grouping)
            residues = residues_from_coefficients(coeffs, poles, grouping, (p, m))
            return phi, a_mat, b_vec, residues

        # --- the pre-batched cost model: every helper re-walks the pole groups
        def run_reference():
            phi = partial_fraction_basis_reference(s_points, poles)
            a_mat, b_vec = relocation_matrices_reference(poles)
            residues = residues_from_coefficients_reference(coeffs, poles, (p, m))
            return phi, a_mat, b_vec, residues

        batched_out, kernel_batched = _timed(run_batched, KERNEL_ROUNDS)
        reference_out, kernel_looped = _timed(run_reference, KERNEL_ROUNDS)
        for got, want in zip(batched_out, reference_out):
            assert np.array_equal(got, want), (
                f"{name}: batched pole kernels are not bitwise identical to the loops")

        # --- per-entry LS projection (BLAS-bound; batched = one kernel call)
        grouping = PoleGrouping.from_poles(poles)
        phi = partial_fraction_basis(s_points, poles, grouping)
        phi1_real = realify(np.hstack([phi, np.ones((s_points.size, 1))]))
        q1, _ = np.linalg.qr(phi1_real)
        (a_loop, b_loop), proj_looped = _timed(
            lambda: vf_scaling_blocks_reference(phi, responses, q1), PROJECTION_ROUNDS)
        (a_batch, b_batch), proj_batched = _timed(
            lambda: vf_scaling_blocks(phi, responses, q1), PROJECTION_ROUNDS)
        a_scale = max(float(np.max(np.abs(a_loop))), np.finfo(float).tiny)
        b_scale = max(float(np.max(np.abs(b_loop))), np.finfo(float).tiny)
        agreement = max(float(np.max(np.abs(a_batch - a_loop))) / a_scale,
                        float(np.max(np.abs(b_batch - b_loop))) / b_scale)
        assert agreement <= 1e-9, (
            f"{name}: batched projection drifted {agreement:.2e} from the looped reference")

        fit, fit_seconds = _timed(lambda: vector_fit(data, n_poles, n_iterations=5))
        kernel_speedup = kernel_looped / kernel_batched
        projection_speedup = proj_looped / proj_batched
        results[name] = {
            "n_entries": int(n_entries),
            "n_poles": int(n_poles),
            "n_samples": int(data.n_samples),
            "kernel_looped_us": 1e6 * kernel_looped,
            "kernel_batched_us": 1e6 * kernel_batched,
            "kernel_speedup": kernel_speedup,
            "projection_looped_ms": 1e3 * proj_looped,
            "projection_batched_ms": 1e3 * proj_batched,
            "projection_speedup": projection_speedup,
            "projection_agreement_rel": agreement,
            "cold_fit_seconds": fit_seconds,
            "cold_fit_iterations": int(fit.n_iterations),
        }
        rows.append(
            f"{name:6s} entries={n_entries:4d} poles={n_poles:3d}  "
            f"kernels {1e6 * kernel_looped:6.0f}us -> {1e6 * kernel_batched:6.0f}us "
            f"({kernel_speedup:4.1f}x)  projection {1e3 * proj_looped:7.2f}ms -> "
            f"{1e3 * proj_batched:7.2f}ms ({projection_speedup:4.2f}x)  "
            f"cold fit {fit_seconds:6.3f}s"
        )

    benchmark.pedantic(lambda: vector_fit(workloads["pdn"], VF_POLES["pdn"],
                                          n_iterations=3),
                       rounds=2, iterations=1)

    reportable("fit_pipeline_vf.txt", "\n".join(
        ["vector-fitting inner loop: batched kernels vs per-group/per-entry loops"]
        + rows))
    json_reportable("fit_pipeline", {
        "kernel_rounds": KERNEL_ROUNDS,
        "projection_rounds": PROJECTION_ROUNDS,
        "min_kernel_speedup": MIN_KERNEL_SPEEDUP,
        "min_projection_speedup": MIN_PROJECTION_SPEEDUP,
        "vf_inner_loop": results,
    })
    benchmark.extra_info.update({
        name: f"{entry['kernel_speedup']:.1f}x kernels"
        for name, entry in results.items()
    })

    for name, entry in results.items():
        assert entry["kernel_speedup"] >= MIN_KERNEL_SPEEDUP, (
            f"{name}: batched VF inner-loop kernels only "
            f"{entry['kernel_speedup']:.1f}x faster than the per-group loops "
            f"(required: {MIN_KERNEL_SPEEDUP:.0f}x)")
        assert entry["projection_speedup"] >= MIN_PROJECTION_SPEEDUP

