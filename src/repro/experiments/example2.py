"""Example 2 of the paper: noisy interpolation of a 14-port PDN (Table 1).

Table 1 compares five algorithm settings on two sampling regimes of a 14-port
power-distribution network:

* **Test 1** -- 100 uniformly distributed frequency samples,
* **Test 2** -- 100 poorly distributed samples concentrated in the
  high-frequency band (ill-conditioned data),

for Vector Fitting (10 iterations, two pole counts), VFTI, MFTI-1 (Algorithm 1
with ``t_i = 2`` and ``t_i = 3``) and MFTI-2 (recursive Algorithm 2).  The
columns are the reduced model order, the CPU time and the relative error.

The measured INC-board data used in the paper is proprietary, so the workload
is the synthetic 14-port PDN of :mod:`repro.circuits.pdn` sampled over
1 MHz - 10 GHz with additive measurement noise (the substitution is documented
in ``DESIGN.md``).  Errors are reported both against the noisy measurement set
(the paper's metric) and against a dense noise-free validation sweep of the
underlying network, which is the fairer comparison when a ground-truth
simulator is available.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.batch.engine import BatchEngine
from repro.cache.fitcache import FitCache
from repro.batch.jobs import FitJob
from repro.circuits.pdn import PdnConfiguration, power_distribution_network
from repro.core.options import MftiOptions, RecursiveOptions, VftiOptions
from repro.data import (
    add_measurement_noise,
    clustered_frequencies,
    linear_frequencies,
    sample_scattering,
)
from repro.data.dataset import FrequencyData
from repro.metrics.errors import aggregate_error
from repro.vectorfitting import vector_fit

__all__ = [
    "Example2Config",
    "Table1Row",
    "Table1Data",
    "build_pdn_datasets",
    "build_pdn_measurement",
    "loewner_table1_jobs",
    "table1_experiment",
]


@dataclass(frozen=True)
class Example2Config:
    """Parameters of the Example-2 (Table 1) reproduction.

    Attributes
    ----------
    pdn:
        Configuration of the synthetic PDN (defaults to the 14-port board).
    n_samples:
        Number of sampled frequencies per test (paper: 100).
    f_min_hz, f_max_hz:
        Measurement band.
    noise_level:
        Relative measurement-noise level injected into the samples.
    noise_seed:
        Seed of the noise realisation (kept fixed so both tests and all
        methods see identical noise).
    vf_pole_counts:
        The two Vector-Fitting pole counts of the table.
    vf_iterations:
        Pole-relocation iterations (paper: 10).
    mfti_block_sizes:
        The two MFTI-1 block sizes (paper: ``t_i = 2`` and ``t_i = 3``).
    rank_tolerance:
        Relative singular-value tolerance used by the Loewner realizations on
        this noisy data (the gap rule is not meaningful once the profile hits
        the noise floor).
    recursive:
        Options of the MFTI-2 run (threshold, block of samples per iteration).
    n_validation:
        Size of the dense noise-free validation sweep.
    """

    pdn: PdnConfiguration = field(default_factory=lambda: PdnConfiguration(
        grid_rows=6, grid_cols=6,
    ))
    n_samples: int = 100
    f_min_hz: float = 1e6
    f_max_hz: float = 2.5e9
    noise_level: float = 2e-4
    noise_seed: int = 77
    vf_pole_counts: tuple[int, ...] = (140, 280)
    vf_iterations: int = 10
    mfti_block_sizes: tuple[int, ...] = (2, 3)
    rank_tolerance: float = 2e-4
    recursive: RecursiveOptions = field(default_factory=lambda: RecursiveOptions(
        block_size=2,
        samples_per_iteration=8,
        initial_samples=16,
        error_threshold=1e-2,
        rank_method="tolerance",
        rank_tolerance=2e-4,
    ))
    n_validation: int = 300


@dataclass(frozen=True)
class Table1Row:
    """One row of (our reproduction of) Table 1."""

    algorithm: str
    test: str
    reduced_order: int
    time_seconds: float
    error_vs_measurement: float
    error_vs_truth: float


@dataclass(frozen=True)
class Table1Data:
    """All rows of the Table-1 reproduction plus the workloads used."""

    rows: tuple[Table1Row, ...]
    test1_data: FrequencyData = field(repr=False)
    test2_data: FrequencyData = field(repr=False)
    validation_data: FrequencyData = field(repr=False)

    def rows_for(self, test: str) -> tuple[Table1Row, ...]:
        """All rows belonging to ``"test1"`` or ``"test2"``."""
        return tuple(row for row in self.rows if row.test == test)

    def best_error(self, test: str) -> Table1Row:
        """The row with the smallest ground-truth error in the given test."""
        rows = self.rows_for(test)
        return min(rows, key=lambda r: r.error_vs_truth)


def build_pdn_measurement(config: Example2Config | None = None):
    """Build the PDN, its Test-1 measurement set and the clean validation sweep.

    Returns ``(system, test1, validation)``: the network, noisy scattering
    data on the uniform grid, and a dense noise-free sweep of the same
    network.  Callers that never read Test 2 (the mixed workload grid) stop
    here; :func:`build_pdn_datasets` adds it.
    """
    cfg = config or Example2Config()
    system = power_distribution_network(cfg.pdn)
    uniform = linear_frequencies(cfg.f_min_hz, cfg.f_max_hz, cfg.n_samples)
    validation_freqs = linear_frequencies(cfg.f_min_hz, cfg.f_max_hz, cfg.n_validation)
    test1_clean = sample_scattering(system, uniform, system_kind="Z", label="pdn test1")
    validation = sample_scattering(system, validation_freqs, system_kind="Z",
                                   label="pdn validation")
    test1 = add_measurement_noise(test1_clean, relative_level=cfg.noise_level,
                                  seed=cfg.noise_seed)
    return system, test1, validation


def build_pdn_datasets(config: Example2Config | None = None):
    """Build the Test-1 / Test-2 measurement sets and the clean validation sweep.

    Returns ``(test1, test2, validation)`` where the first two are noisy
    scattering data on the uniform / clustered grids and the third is a dense
    noise-free sweep of the same network.
    """
    cfg = config or Example2Config()
    system, test1, validation = build_pdn_measurement(cfg)
    clustered = clustered_frequencies(cfg.f_min_hz, cfg.f_max_hz, cfg.n_samples)
    test2_clean = sample_scattering(system, clustered, system_kind="Z", label="pdn test2")
    test2 = add_measurement_noise(test2_clean, relative_level=cfg.noise_level,
                                  seed=cfg.noise_seed + 1)
    return test1, test2, validation


def loewner_table1_jobs(
    cfg: Example2Config,
    test_name: str,
    data: FrequencyData,
    validation: FrequencyData,
) -> list[FitJob]:
    """The Loewner rows of Table 1 for one test, as a batch job grid.

    Both the driver below and ``benchmarks/bench_table1.py`` build their job
    grids here, so the interactive table and the benchmark sweep are the same
    workload by construction.
    """
    jobs = [FitJob(
        data,
        method="vfti",
        options=VftiOptions(rank_method="tolerance", rank_tolerance=cfg.rank_tolerance),
        label="VFTI",
        tags={"test": test_name, "algorithm": "VFTI"},
        reference=validation,
    )]
    for block in cfg.mfti_block_sizes:
        jobs.append(FitJob(
            data,
            method="mfti",
            options=MftiOptions(block_size=block, rank_method="tolerance",
                                rank_tolerance=cfg.rank_tolerance),
            label=f"MFTI-1 t={block}",
            tags={"test": test_name, "algorithm": f"MFTI-1 t={block}"},
            reference=validation,
        ))
    jobs.append(FitJob(
        data,
        method="mfti-recursive",
        options=cfg.recursive,
        label="MFTI-2 (recursive)",
        tags={"test": test_name, "algorithm": "MFTI-2 (recursive)"},
        reference=validation,
    ))
    return jobs


def _vf_row(
    algorithm: str,
    test: str,
    n_poles: int,
    n_iterations: int,
    data: FrequencyData,
    validation: FrequencyData,
) -> Table1Row:
    fit = vector_fit(data, n_poles, n_iterations=n_iterations)
    response_fit = fit.frequency_response(data.frequencies_hz)
    response_val = fit.frequency_response(validation.frequencies_hz)
    return Table1Row(
        algorithm=algorithm,
        test=test,
        reduced_order=fit.n_poles,
        time_seconds=fit.elapsed_seconds,
        error_vs_measurement=aggregate_error(response_fit, data.samples),
        error_vs_truth=aggregate_error(response_val, validation.samples),
    )


def table1_experiment(
    config: Example2Config | None = None,
    *,
    include_vector_fitting: bool = True,
    engine: BatchEngine | None = None,
    cache: Optional[FitCache] = None,
) -> Table1Data:
    """Run all algorithm settings of Table 1 on both tests and collect the rows.

    ``include_vector_fitting=False`` skips the (comparatively slow) VF rows,
    which is convenient for quick checks and for the test-suite.  All Loewner
    rows of both tests run as one batch through ``engine`` (default: the
    serial reference executor), so passing a pooled engine parallelises the
    whole table.  A shared ``cache`` makes repeated regenerations (parameter
    studies, re-runs of the benchmark suite) replay identical fits instead of
    recomputing them.
    """
    cfg = config or Example2Config()
    test1, test2, validation = build_pdn_datasets(cfg)
    datasets = {"test1": test1, "test2": test2}

    jobs = [
        job
        for test_name, data in datasets.items()
        for job in loewner_table1_jobs(cfg, test_name, data, validation)
    ]
    runner = engine or BatchEngine()
    if cache is not None:
        runner = replace(runner, cache=cache)
    batch = runner.run(jobs).raise_failures(context="Table-1 job")

    rows: list[Table1Row] = []
    for test_name, data in datasets.items():
        if include_vector_fitting:
            for n_poles in cfg.vf_pole_counts:
                rows.append(_vf_row(
                    f"VF ({cfg.vf_iterations} iterations) n={n_poles}",
                    test_name, n_poles, cfg.vf_iterations, data, validation,
                ))
        for record in batch.with_tag("test", test_name):
            rows.append(Table1Row(
                algorithm=record.label,
                test=test_name,
                reduced_order=record.order,
                time_seconds=record.result.elapsed_seconds,
                error_vs_measurement=record.error_vs_data,
                error_vs_truth=record.error_vs_reference,
            ))
    return Table1Data(
        rows=tuple(rows),
        test1_data=test1,
        test2_data=test2,
        validation_data=validation,
    )
