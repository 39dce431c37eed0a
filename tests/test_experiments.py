"""Tests for the experiment drivers (scaled-down versions of the paper settings)."""

import numpy as np
import pytest

from repro.circuits.pdn import PdnConfiguration
from repro.core.options import RecursiveOptions
from repro.data import sample_scattering
from repro.experiments.ablations import (
    recursive_parameter_ablation,
    svd_mode_ablation,
    weighting_ablation,
)
from repro.experiments.example1 import (
    Example1Config,
    bode_experiment,
    sample_requirement_sweep,
    singular_value_experiment,
)
from repro.experiments.example2 import (
    Example2Config,
    build_pdn_datasets,
    build_pdn_measurement,
    table1_experiment,
)
from repro.experiments.minimal_sampling import minimal_sampling_experiment
from repro.experiments.reporting import format_series, format_table


@pytest.fixture(scope="module")
def small_example1():
    """Scaled-down Example-1 configuration (order 40, 8 ports, 8 samples)."""
    return Example1Config(order=40, n_ports=8, n_samples=8, seed=99)


class TestExample1:
    def test_figure1_shape_matches_paper(self, small_example1):
        """MFTI shows a sharp drop at order + rank(D); VFTI does not (Fig. 1)."""
        fig1 = singular_value_experiment(small_example1)
        assert fig1.mfti_detected_order == fig1.true_order_with_feedthrough
        assert fig1.mfti_drop_ratio() > 1e6
        assert fig1.vfti_drop_ratio() < 1e4
        assert fig1.vfti_detected_order < fig1.true_order

    def test_figure2_mfti_fits_vfti_does_not(self, small_example1):
        """The Bode comparison of Fig. 2: MFTI matches the original, VFTI fails."""
        fig2 = bode_experiment(small_example1, n_validation=40)
        assert fig2.mfti_error < 1e-6
        assert fig2.vfti_error > 1e-2
        assert fig2.frequencies_hz.shape == (40,)
        assert fig2.original_magnitude.shape == (40,)
        assert np.allclose(fig2.mfti_magnitude, fig2.original_magnitude, rtol=1e-3)

    def test_sample_requirement_sweep(self):
        """MFTI needs roughly 1/p of the samples VFTI needs (Theorem 3.5)."""
        config = Example1Config(order=24, n_ports=6, seed=5)
        results = sample_requirement_sweep(
            config,
            tolerance=1e-5,
            mfti_counts=[4, 6, 8],
            vfti_counts=[10, 30, 64],
            n_validation=30,
        )
        assert results["mfti"].samples_needed is not None
        assert results["mfti"].samples_needed <= 8
        assert (results["vfti"].samples_needed is None
                or results["vfti"].samples_needed >= 4 * results["mfti"].samples_needed)


@pytest.fixture(scope="module")
def small_example2():
    """Scaled-down Example-2 configuration: 6-port PDN, 40 samples."""
    return Example2Config(
        pdn=PdnConfiguration(n_ports=6, grid_rows=4, grid_cols=5, n_decaps=5, n_bulk_caps=1),
        n_samples=40,
        f_min_hz=1e6,
        f_max_hz=2e9,
        noise_level=2e-4,
        vf_pole_counts=(30,),
        vf_iterations=3,
        rank_tolerance=2e-4,
        recursive=RecursiveOptions(block_size=2, samples_per_iteration=4, initial_samples=8,
                                   error_threshold=1e-2, rank_method="tolerance",
                                   rank_tolerance=2e-4),
        n_validation=60,
    )


class TestExample2:
    def test_datasets_have_requested_shape(self, small_example2):
        test1, test2, validation = build_pdn_datasets(small_example2)
        assert test1.n_samples == 40
        assert test2.n_samples == 40
        assert test1.n_ports == 6
        assert validation.n_samples == 60
        # test 2 is clustered towards the top of the band
        split = 1e6 + 0.7 * (2e9 - 1e6)
        assert np.count_nonzero(test2.frequencies_hz >= split) > np.count_nonzero(
            test1.frequencies_hz >= split)

    def test_measurement_helper_builds_the_table1_datasets_bitwise(self, small_example2):
        # the mixed workload grid samples only Test 1 and the validation sweep
        test1, _, validation = build_pdn_datasets(small_example2)
        _, alone1, alone_validation = build_pdn_measurement(small_example2)
        for built, alone in ((test1, alone1), (validation, alone_validation)):
            assert built.samples.tobytes() == alone.samples.tobytes()
            assert built.frequencies_hz.tobytes() == alone.frequencies_hz.tobytes()

    def test_table1_shape(self, small_example2):
        """MFTI beats VFTI on both tests; accuracy improves with the block size."""
        table = table1_experiment(small_example2, include_vector_fitting=False)
        assert len(table.rows) == 8  # 4 algorithms x 2 tests
        for test in ("test1", "test2"):
            rows = {row.algorithm: row for row in table.rows_for(test)}
            vfti_row = rows["VFTI"]
            t2_row = rows["MFTI-1 t=2"]
            t3_row = rows["MFTI-1 t=3"]
            recursive_row = rows["MFTI-2 (recursive)"]
            assert t3_row.error_vs_measurement < vfti_row.error_vs_measurement
            assert t3_row.error_vs_measurement <= t2_row.error_vs_measurement * 1.5
            assert recursive_row.error_vs_measurement < vfti_row.error_vs_measurement
            assert t3_row.reduced_order >= t2_row.reduced_order >= vfti_row.reduced_order
        assert table.best_error("test1").algorithm.startswith("MFTI")

    def test_table1_with_vector_fitting_row(self, small_example2):
        table = table1_experiment(small_example2, include_vector_fitting=True)
        vf_rows = [row for row in table.rows if row.algorithm.startswith("VF ")]
        assert len(vf_rows) == 2  # one pole count x 2 tests
        for row in vf_rows:
            assert row.reduced_order == 30
            assert row.time_seconds > 0
            assert np.isfinite(row.error_vs_measurement)
            assert np.isfinite(row.error_vs_truth)


class TestMinimalSamplingExperiment:
    def test_theorem_predictions_hold(self):
        result = minimal_sampling_experiment(order=24, n_ports=6, seed=3, tolerance=1e-5,
                                             n_validation=30)
        assert result.feedthrough_rank == 6
        assert result.predicted_mfti_samples >= 5
        assert result.mfti_samples_needed is not None
        assert result.mfti_samples_needed <= result.predicted_mfti_samples + 2
        # VFTI needs at least order(Gamma) samples
        assert (result.vfti_samples_needed is None
                or result.vfti_samples_needed >= result.system_order)
        assert result.saving_factor > 2.0
        # the singular-value drops confirm rank(L) ~ order and rank(sL) ~ order + rank(D)
        assert abs(result.loewner_rank - result.system_order) <= result.feedthrough_rank
        assert abs(result.pencil_rank - (result.system_order + result.feedthrough_rank)) <= 2


@pytest.fixture(scope="module")
def ablation_workload():
    from repro.systems.random_systems import random_stable_system
    from repro.data import add_measurement_noise, log_frequencies

    system = random_stable_system(order=16, n_ports=4, feedthrough=0.1, seed=41)
    data = sample_scattering(system, log_frequencies(1e2, 1e6, 24))
    noisy = add_measurement_noise(data, relative_level=1e-4, seed=2)
    reference = sample_scattering(system, log_frequencies(1e2, 1e6, 50))
    return noisy, reference


class TestAblations:
    def test_weighting_ablation_monotone_trend(self, ablation_workload):
        noisy, reference = ablation_workload
        rows = weighting_ablation(noisy, reference, block_sizes=[1, 2, 4], rank_tolerance=1e-4)
        assert [row.setting for row in rows] == ["t=1", "t=2", "t=4"]
        assert rows[-1].error <= rows[0].error
        assert rows[-1].order >= rows[0].order

    def test_svd_mode_ablation_rows(self, ablation_workload):
        noisy, reference = ablation_workload
        rows = svd_mode_ablation(noisy, reference, block_size=2, rank_tolerance=1e-4)
        assert len(rows) == 4
        assert rows[0].setting.startswith("two-sided")
        assert all(np.isfinite(row.error) for row in rows)

    def test_recursive_ablation_grid(self, ablation_workload):
        noisy, reference = ablation_workload
        rows = recursive_parameter_ablation(noisy, reference,
                                            samples_per_iteration=(2, 4),
                                            thresholds=(1e-1, 1e-3),
                                            rank_tolerance=1e-4)
        assert len(rows) == 4
        assert all(row.extra >= 1 for row in rows)


class TestMonteCarloJobs:
    """The seeded Monte-Carlo noise-study grid (cache-friendly by construction)."""

    #: Tiny study: 2 draws x 1 method over a small PDN, fast enough for tier 1.
    KWARGS = dict(n_draws=2, methods=("mfti",), pdn_samples=24, pdn_validation=30,
                  grid_rows=4, grid_cols=4)

    def test_grid_shape_and_tags(self):
        from repro.experiments.workloads import monte_carlo_jobs

        jobs = monte_carlo_jobs(**self.KWARGS)
        assert len(jobs) == 2
        for draw, job in enumerate(jobs):
            assert job.tags["study"] == "monte-carlo"
            assert job.tags["draw"] == draw
            assert job.tags["seed"] == 1000 + draw
            assert job.reference is not None

    def test_draws_share_fingerprints_across_rebuilds(self):
        """Seeded draws are content-deterministic: rebuilding the grid yields
        identical dataset fingerprints (the property that makes the study
        dedupe through the fit cache), while distinct draws differ."""
        from repro.cache import dataset_fingerprint
        from repro.experiments.workloads import monte_carlo_jobs

        first = [dataset_fingerprint(job.data) for job in monte_carlo_jobs(**self.KWARGS)]
        second = [dataset_fingerprint(job.data) for job in monte_carlo_jobs(**self.KWARGS)]
        assert first == second
        assert len(set(first)) == len(first)  # independent noise per draw

    def test_rerun_replays_from_cache(self):
        from repro.batch import BatchEngine
        from repro.cache import FitCache
        from repro.experiments.workloads import monte_carlo_jobs

        cache = FitCache()
        engine = BatchEngine(cache=cache)
        cold = engine.run(monte_carlo_jobs(**self.KWARGS))
        assert cold.n_failed == 0, cold.failures
        assert cold.n_cache_misses == cold.n_jobs
        warm = engine.run(monte_carlo_jobs(**self.KWARGS))  # rebuilt grid, same content
        assert warm.n_cache_hits == warm.n_jobs

    def test_validates_arguments(self):
        from repro.experiments.workloads import monte_carlo_jobs

        with pytest.raises(ValueError):
            monte_carlo_jobs(n_draws=0)
        with pytest.raises(ValueError):
            monte_carlo_jobs(methods=())
        with pytest.raises(ValueError):
            monte_carlo_jobs(**{**self.KWARGS, "methods": ("no-such-method",)})


class TestPortSweepJobs:
    """The port-sweep named grid (vary n_ports / direction counts)."""

    #: Tiny sweep: 2 port counts x (vfti + 2 mfti + full) = 8 cheap jobs.
    KWARGS = dict(port_counts=(2, 4), block_sizes=(1, 2), order=12,
                  n_samples=16, n_validation=24)

    def test_grid_shape_and_tags(self):
        from repro.experiments.workloads import port_sweep_jobs

        jobs = port_sweep_jobs(**self.KWARGS)
        assert len(jobs) == 8  # per port count: vfti + t=1 + t=2 + full
        by_ports = {}
        for job in jobs:
            assert job.tags["study"] == "port-sweep"
            assert job.reference is not None
            by_ports.setdefault(job.tags["n_ports"], []).append(job)
        assert sorted(by_ports) == [2, 4]
        for n_ports, members in by_ports.items():
            directions = [job.tags["directions"] for job in members]
            assert directions == [1, 1, 2, "full"]
            # every job of one port count shares one (noisy) dataset
            assert len({job.data.fingerprint() for job in members}) == 1

    def test_block_sizes_clamped_and_deduplicated(self):
        from repro.experiments.workloads import port_sweep_jobs

        jobs = port_sweep_jobs(**{**self.KWARGS, "port_counts": (2,),
                                  "block_sizes": (1, 2, 3, 8)})
        labels = [job.label for job in jobs]
        # t=3 and t=8 clamp to the 2-port limit and collapse into t=2
        assert labels == ["ports2/vfti", "ports2/mfti-t1", "ports2/mfti-t2",
                         "ports2/mfti-full"]

    def test_deterministic_across_rebuilds(self):
        """Seeded system + noise: rebuilt grids are content-identical, and
        distinct port counts draw distinct systems -- the properties that
        make the grid shardable and cache-stable."""
        from repro.batch import ShardPlan
        from repro.cache import dataset_fingerprint
        from repro.experiments.workloads import port_sweep_jobs

        first = [dataset_fingerprint(job.data) for job in port_sweep_jobs(**self.KWARGS)]
        second = [dataset_fingerprint(job.data) for job in port_sweep_jobs(**self.KWARGS)]
        assert first == second
        assert len(set(first)) == 2  # one dataset per port count
        assert (ShardPlan.from_jobs(port_sweep_jobs(**self.KWARGS), 2)
                == ShardPlan.from_jobs(port_sweep_jobs(**self.KWARGS), 2))

    def test_jobs_run_clean_and_full_information_wins(self):
        from repro.batch import BatchEngine
        from repro.experiments.workloads import port_sweep_jobs

        result = BatchEngine().run(port_sweep_jobs(**self.KWARGS))
        assert result.n_failed == 0, result.failures
        for records in (result.with_tag("n_ports", 2), result.with_tag("n_ports", 4)):
            by_directions = {record.tags["directions"]: record for record in records}
            # more directions per sample never hurt on lightly-noised data
            assert (by_directions["full"].error_vs_reference
                    <= by_directions[1].error_vs_reference * 1.5)

    def test_registry_exposes_all_named_grids(self):
        from repro.experiments.workloads import WORKLOADS, workload_jobs

        assert set(WORKLOADS) == {"mixed_batch_jobs", "monte_carlo_jobs",
                                  "passive_macromodel_jobs", "port_sweep_jobs",
                                  "time_domain_jobs"}
        jobs = workload_jobs("port_sweep_jobs", **self.KWARGS)
        assert len(jobs) == 8
        with pytest.raises(ValueError, match="unknown workload"):
            workload_jobs("no-such-grid")

    def test_validates_arguments(self):
        from repro.experiments.workloads import port_sweep_jobs

        with pytest.raises(ValueError):
            port_sweep_jobs(port_counts=())
        with pytest.raises(ValueError):
            port_sweep_jobs(port_counts=(0,))
        with pytest.raises(ValueError):
            port_sweep_jobs(block_sizes=())


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.0], ["bb", 0.5]], title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1]
        assert len(lines) == 5

    def test_format_table_row_length_check(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1.0]])

    def test_format_series(self):
        text = format_series([1.0, 2.0], {"y": np.array([3.0, 4.0])}, x_label="f")
        assert "f" in text
        assert "3" in text

    def test_float_formatting(self):
        text = format_table(["x"], [[1.23456789e-8]])
        assert "e-08" in text
