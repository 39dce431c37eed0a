"""Evaluation-kernel benchmark: vectorized sweeps vs the per-point loop.

The shared sweep-evaluation kernel (:mod:`repro.systems.evaluation`) is the
one code path every layer uses to evaluate transfer functions.  This module
measures it on the same two workload systems as the shared batch grid
(:func:`repro.experiments.workloads.mixed_batch_jobs`) -- the 14-port PDN
and the lossy lumped transmission line -- over dense validation sweeps:

* ``loop``        -- the per-point reference (one dense solve per point,
  :func:`~repro.systems.evaluation.evaluate_pointwise`),
* ``solve``       -- the batched stacked-pencil solve (bitwise equal to
  loop, ``_evaluate_solve``),
* ``kernel cold`` -- ``evaluate_many`` on a fresh system, which sweeps
  through the eigendecomposition plan: plan construction *included* in the
  timing,
* ``kernel warm`` -- ``evaluate_many`` with the plan already cached.

The acceptance floor (enforced here and by the CI perf gate through
``benchmarks/baselines/eval_kernel.json``): the cold kernel sweep is at
least **5x** faster than the loop on each workload, while agreeing with it
to a tiny relative error (reported; typically ``1e-11`` .. ``1e-8``).
Results land in ``BENCH_eval_kernel.json`` for the perf-regression gate.

Before anything is timed, each workload system's plan is chosen and checked
at its probe points (:func:`~repro.systems.evaluation.choose_evaluation_plan`,
the plan and check :func:`~repro.systems.evaluation.build_evaluation_plan`
applies):
a rejected plan fails the bench naming the probe, its mismatch and the
tolerance, instead of surfacing as a ~1x cold speedup.  The worst probe's
mismatch as a fraction of the tolerance is exported, for information only,
as ``plan_probe_ratio``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.circuits.mna import netlist_to_descriptor
from repro.circuits.pdn import power_distribution_network
from repro.circuits.transmission_line import lumped_transmission_line
from repro.experiments.example2 import Example2Config
from repro.data import linear_frequencies
from repro.systems.evaluation import (
    PLAN_GUARD_TOLERANCE,
    _evaluate_solve,
    choose_evaluation_plan,
    evaluate_pointwise,
)

#: Required cold-sweep (plan construction included) speedup per workload.
MIN_COLD_SPEEDUP = 5.0

#: Required sup per-point relative agreement between kernel and loop.
MAX_AGREEMENT_ERROR = 1e-6

#: Dense validation sweep length per workload.
N_POINTS = 480


def _workloads():
    """The shared PDN + transmission-line systems with dense sweeps."""
    cfg = Example2Config()
    pdn = power_distribution_network(cfg.pdn)
    tline = netlist_to_descriptor(lumped_transmission_line(0.1, 40))
    return {
        "pdn": (pdn, linear_frequencies(cfg.f_min_hz, cfg.f_max_hz, N_POINTS)),
        "tline": (tline, linear_frequencies(1e6, 5e9, N_POINTS)),
    }


def _timed(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def _verified_probe_ratio(name: str, system) -> float:
    """The plan's worst probe mismatch over the tolerance; fails when rejected."""
    plan, probe, ratio = choose_evaluation_plan(
        system.E, system.A, system.B, system.C, system.D)
    assert plan is not None, f"{name}: the evaluation plan's factorizations failed"
    assert ratio <= 1.0, (
        f"{name}: evaluation plan rejected at probe s = {probe:.6g}: relative "
        f"mismatch {ratio * PLAN_GUARD_TOLERANCE:.3e} > tolerance "
        f"{PLAN_GUARD_TOLERANCE:.1e}")
    return ratio


def _sup_relative(got: np.ndarray, want: np.ndarray) -> float:
    k = want.shape[0]
    scale = np.maximum(np.linalg.norm(want.reshape(k, -1), axis=1), np.finfo(float).tiny)
    return float(np.max(np.linalg.norm((got - want).reshape(k, -1), axis=1) / scale))


def test_eval_kernel_speedup(benchmark, reportable, json_reportable):
    """Cold vectorized sweeps beat the per-point loop >=5x on both workloads."""
    rows = []
    results = {}
    workloads = _workloads()
    probe_ratios = {name: _verified_probe_ratio(name, system)
                    for name, (system, _) in workloads.items()}
    for name, (system, freqs) in workloads.items():
        points = 1j * 2.0 * np.pi * freqs

        reference, loop_seconds = _timed(lambda: evaluate_pointwise(
            system.E, system.A, system.B, system.C, system.D, points))
        solve_out, solve_seconds = _timed(lambda: _evaluate_solve(
            system.E, system.A, system.B, system.C, system.D, points))
        assert np.array_equal(solve_out, reference), (
            f"{name}: batched solve is not bitwise identical to the loop")

        cold_system = system.copy()  # fresh plan cache: plan build is timed
        cold_out, cold_seconds = _timed(lambda: cold_system.evaluate_many(points))
        warm_out, warm_seconds = _timed(lambda: cold_system.evaluate_many(points))
        assert np.array_equal(cold_out, warm_out)

        agreement = _sup_relative(cold_out, reference)
        assert agreement <= MAX_AGREEMENT_ERROR, (
            f"{name}: kernel drifted {agreement:.2e} from the loop reference")

        speedup_cold = loop_seconds / cold_seconds
        speedup_warm = loop_seconds / warm_seconds
        results[name] = {
            "n_states": system.order,
            "n_ports": system.n_inputs,
            "n_points": int(points.size),
            "loop_seconds": loop_seconds,
            "solve_seconds": solve_seconds,
            "kernel_cold_seconds": cold_seconds,
            "kernel_warm_seconds": warm_seconds,
            "speedup_cold": speedup_cold,
            "speedup_warm": speedup_warm,
            "agreement_rel": agreement,
            "plan_probe_ratio": probe_ratios[name],
        }
        rows.append(
            f"{name:6s} n={system.order:4d} k={points.size:5d}  "
            f"loop {loop_seconds:7.3f}s  solve {solve_seconds:7.3f}s  "
            f"cold {cold_seconds:7.3f}s ({speedup_cold:5.1f}x)  "
            f"warm {warm_seconds:7.3f}s ({speedup_warm:5.1f}x)  "
            f"agree {agreement:.1e}  probe {probe_ratios[name]:.3f}"
        )

    # the pytest-benchmark record: one extra warm sweep of the larger system
    pdn_system, pdn_freqs = _workloads()["pdn"]
    pdn_points = 1j * 2.0 * np.pi * pdn_freqs
    pdn_system.evaluate_many(pdn_points)  # build the plan outside the timer
    benchmark.pedantic(lambda: pdn_system.evaluate_many(pdn_points),
                       rounds=3, iterations=1)

    reportable("eval_kernel.txt", "\n".join(
        ["evaluation kernel: vectorized sweeps vs per-point loop"] + rows))
    json_reportable("eval_kernel", {
        "n_points": N_POINTS,
        "min_cold_speedup": MIN_COLD_SPEEDUP,
        "max_agreement_error": MAX_AGREEMENT_ERROR,
        "workloads": results,
    })
    benchmark.extra_info.update({
        name: f"{entry['speedup_cold']:.1f}x cold" for name, entry in results.items()
    })

    for name, entry in results.items():
        assert entry["speedup_cold"] >= MIN_COLD_SPEEDUP, (
            f"{name}: cold kernel sweep only {entry['speedup_cold']:.1f}x faster "
            f"than the loop (required: {MIN_COLD_SPEEDUP:.0f}x)"
        )


@pytest.mark.parametrize("workload", ["pdn", "tline"])
def test_kernel_matches_loop_on_validation_sweeps(workload):
    """Equivalence guard at benchmark scale (independent of the timings)."""
    system, freqs = _workloads()[workload]
    points = 1j * 2.0 * np.pi * freqs[:64]
    reference = evaluate_pointwise(system.E, system.A, system.B, system.C,
                                   system.D, points)
    assert np.array_equal(
        _evaluate_solve(system.E, system.A, system.B, system.C, system.D, points), reference)
    assert _sup_relative(system.evaluate_many(points), reference) <= MAX_AGREEMENT_ERROR
