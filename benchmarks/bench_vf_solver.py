"""Fast-VF solve-stage benchmark: compact Cholesky-QR reduction vs stacked lstsq.

Each vector-fitting iteration solves one tall least-squares system for the
shared scaling coefficients: ``E`` projected per-entry blocks of ``2N`` rows
stacked into an ``E*2N x n`` matrix.  The compact path
(:func:`repro.core.assembly._vf_compact_reduce`) reduces every block to its
small R-factor through one batched GEMM + batched Cholesky and solves a
``E(n+1) x n`` system instead -- the ``repro.core.assembly`` docstrings
explain why the R-stack shares the stacked system's singular values.

This module gates exactly that solve stage: both solvers are timed on
**precomputed** projected inputs (the fast-VF projection is shared by both
public paths and is excluded), at the paper's Table-1 port counts:

* ``pdn14``  -- 14 ports (196 matrix entries), the Table-1 PDN scale,
* ``ports20`` -- 20 ports (400 entries), the largest Table-1 system.

The acceptance floor (enforced here and by the CI perf gate through
``benchmarks/baselines/vf_solver.json``): the compact reduction is at least
**2x** faster than the stacked ``lstsq`` on each workload while agreeing
with it to ``1e-10`` relative.  Results land in ``BENCH_vf_solver.json``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.assembly import (
    VF_COMPACT_CONDITION_LIMIT,
    PoleGrouping,
    _vf_compact_reduce,
    _vf_scaling_projected,
    partial_fraction_basis,
    vf_scaling_blocks,
)
from repro.utils.linalg import realify

#: Required compact-vs-stacked speedup of the solve stage per workload.
MIN_SOLVE_SPEEDUP = 2.0

#: Required relative agreement between the compact and stacked solutions.
MAX_AGREEMENT_ERROR = 1e-10

#: Frequency samples per workload (the paper's sweeps use ~100).
N_SAMPLES = 100

#: Common poles per workload (Table-1 orders land at 10-30 poles).
N_POLES = 22

#: Timing repeats; the minimum is reported (robust to scheduler noise).
N_REPEATS = 3

WORKLOADS = {"pdn14": 14, "ports20": 20}


def _workload(n_ports: int, seed: int):
    """Projected fast-VF inputs for one synthetic ``n_ports``-port system."""
    rng = np.random.default_rng(seed)
    n_pairs = N_POLES // 2
    alpha = -0.5 - rng.random(n_pairs)
    beta = 1.0 + 29.0 * rng.random(n_pairs)
    poles = np.empty(N_POLES, dtype=complex)
    poles[0::2] = alpha + 1j * beta
    poles[1::2] = alpha - 1j * beta
    s_points = 1j * np.linspace(0.5, 30.0, N_SAMPLES)
    n_entries = n_ports * n_ports
    responses = rng.standard_normal((N_SAMPLES, n_entries)) + 1j * rng.standard_normal(
        (N_SAMPLES, n_entries)
    )

    grouping = PoleGrouping.from_poles(poles)
    phi = partial_fraction_basis(s_points, poles, grouping)
    phi1_real = realify(np.hstack([phi, np.ones((N_SAMPLES, 1))]))
    q1, _ = np.linalg.qr(phi1_real)
    return phi, responses, q1


def _min_seconds(fn) -> tuple:
    """(last value, best wall-clock over ``N_REPEATS`` runs)."""
    best = np.inf
    value = None
    for _ in range(N_REPEATS):
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return value, best


def test_vf_solver_speedup(benchmark, reportable, json_reportable):
    """The compact solve stage beats the stacked lstsq >=2x on both workloads."""
    rows = []
    results = {}
    for name, n_ports in WORKLOADS.items():
        phi, responses, q1 = _workload(n_ports, seed=20260808 + n_ports)

        # precompute both solver inputs: the shared projection is not timed
        a_stacked, b_stacked = vf_scaling_blocks(phi, responses, q1)
        projected, rhs_projected = _vf_scaling_projected(phi, responses, q1)
        blocks = np.ascontiguousarray(np.transpose(projected, (1, 0, 2)))
        rhs = np.ascontiguousarray(rhs_projected.T)

        reference, stacked_seconds = _min_seconds(
            lambda: np.linalg.lstsq(a_stacked, b_stacked, rcond=None)[0]
        )
        compact, compact_seconds = _min_seconds(
            lambda: _vf_compact_reduce(blocks, rhs, VF_COMPACT_CONDITION_LIMIT)
        )

        agreement = float(
            np.linalg.norm(compact - reference) / np.linalg.norm(reference)
        )
        assert agreement <= MAX_AGREEMENT_ERROR, (
            f"{name}: compact solution drifted {agreement:.2e} from the "
            f"stacked lstsq reference"
        )

        speedup = stacked_seconds / compact_seconds
        results[name] = {
            "n_ports": n_ports,
            "n_entries": int(responses.shape[1]),
            "n_samples": N_SAMPLES,
            "n_poles": N_POLES,
            "stacked_rows": int(a_stacked.shape[0]),
            "stacked_seconds": stacked_seconds,
            "compact_seconds": compact_seconds,
            "speedup": speedup,
            "agreement_rel": agreement,
        }
        rows.append(
            f"{name:8s} E={responses.shape[1]:4d} rows={a_stacked.shape[0]:6d}  "
            f"lstsq {stacked_seconds:7.4f}s  compact {compact_seconds:7.4f}s "
            f"({speedup:4.1f}x)  agree {agreement:.1e}"
        )

    # the pytest-benchmark record: the compact stage on the larger workload
    phi, responses, q1 = _workload(WORKLOADS["ports20"], seed=20260808 + 20)
    projected, rhs_projected = _vf_scaling_projected(phi, responses, q1)
    blocks = np.ascontiguousarray(np.transpose(projected, (1, 0, 2)))
    rhs = np.ascontiguousarray(rhs_projected.T)
    benchmark.pedantic(
        lambda: _vf_compact_reduce(blocks, rhs, VF_COMPACT_CONDITION_LIMIT),
        rounds=3,
        iterations=1,
    )

    reportable(
        "vf_solver.txt",
        "\n".join(["fast-VF solve stage: compact reduction vs stacked lstsq"] + rows),
    )
    json_reportable(
        "vf_solver",
        {
            "min_solve_speedup": MIN_SOLVE_SPEEDUP,
            "max_agreement_error": MAX_AGREEMENT_ERROR,
            "workloads": results,
        },
    )
    benchmark.extra_info.update(
        {name: f"{entry['speedup']:.1f}x" for name, entry in results.items()}
    )

    for name, entry in results.items():
        assert entry["speedup"] >= MIN_SOLVE_SPEEDUP, (
            f"{name}: compact solve stage only {entry['speedup']:.2f}x faster "
            f"than the stacked lstsq (required: {MIN_SOLVE_SPEEDUP:.0f}x)"
        )
