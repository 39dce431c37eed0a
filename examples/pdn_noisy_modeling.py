"""Example 2 of the paper: macromodeling a noisy 14-port power-distribution network.

Builds the synthetic PDN (the substitute for the paper's measured INC board,
see :mod:`repro.circuits.pdn`), samples 100 noisy scattering matrices on a
uniform and on an ill-conditioned (high-frequency-clustered) grid, and compares VFTI, MFTI-1
(t = 2, 3) and the recursive MFTI-2 -- the Loewner rows of Table 1.  Set
``INCLUDE_VECTOR_FITTING = True`` to add the (slower) VF rows.

All Loewner fits run as one grid through the batch engine; build it as
``BatchEngine(executor="thread")`` (or ``"process"``) in :func:`main` to fit
both tests' rows in parallel instead of serially.

Run with ``python examples/pdn_noisy_modeling.py`` (about half a minute).
"""

from __future__ import annotations

from repro.batch import BatchEngine
from repro.experiments.example2 import Example2Config, table1_experiment
from repro.experiments.reporting import format_table

#: Add the Vector Fitting rows (n = 140 and n = 280, 10 iterations); roughly
#: 30 extra seconds.
INCLUDE_VECTOR_FITTING = False


def main() -> None:
    config = Example2Config()
    engine = BatchEngine()
    print("Example 2 workload: synthetic 14-port PDN, "
          f"{config.n_samples} samples per test over "
          f"[{config.f_min_hz:.0e}, {config.f_max_hz:.0e}] Hz, "
          f"noise level {config.noise_level:.0e}")
    print(f"batch executor: {engine.executor} ({engine.n_workers} worker(s))\n")

    table = table1_experiment(config, include_vector_fitting=INCLUDE_VECTOR_FITTING,
                              engine=engine)

    for test, description in (("test1", "Test 1 -- 100 uniformly distributed samples"),
                              ("test2", "Test 2 -- 100 ill-conditioned (clustered) samples")):
        rows = table.rows_for(test)
        print(format_table(
            ["algorithm", "reduced order", "time (s)", "error vs measurement",
             "error vs ground truth"],
            [[r.algorithm, r.reduced_order, r.time_seconds, r.error_vs_measurement,
              r.error_vs_truth] for r in rows],
            title=description,
        ))
        best = table.best_error(test)
        print(f"best ground-truth accuracy: {best.algorithm} "
              f"({best.error_vs_truth:.2e})\n")

    print("Shape of the paper's Table 1: MFTI is one to two orders of magnitude more "
          "accurate than VFTI on both tests, accuracy improves from t=2 to t=3, and the "
          "recursive MFTI-2 reaches near-MFTI accuracy with a smaller model.")


if __name__ == "__main__":
    main()
