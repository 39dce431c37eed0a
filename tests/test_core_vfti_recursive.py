"""Tests for the VFTI baseline and the recursive Algorithm 2."""

import pytest

from repro.core import RecursiveOptions, VftiOptions, mfti, recursive_mfti, vfti
from repro.data import add_measurement_noise, log_frequencies, sample_scattering
from repro.systems.random_systems import random_stable_system


class TestVfti:
    def test_undersampled_data_fails_for_vfti_but_not_mfti(self, small_data, dense_data):
        """The paper's core comparison: 8 samples recover the system via MFTI only."""
        mfti_err = mfti(small_data).aggregate_error(dense_data)
        vfti_err = vfti(small_data).aggregate_error(dense_data)
        assert mfti_err < 1e-8
        assert vfti_err > 1e-2
        assert vfti_err / max(mfti_err, 1e-300) > 1e4

    def test_vfti_recovers_with_enough_samples(self, dense_data):
        """Given ~order(Gamma) samples VFTI does recover the system."""
        system = random_stable_system(order=12, n_ports=3, feedthrough=0.1, seed=13)
        reference = sample_scattering(system, log_frequencies(1e1, 1e5, 40))
        count = 2 * (system.order + 3)  # comfortably above order + rank(D)
        data = sample_scattering(system, log_frequencies(1e1, 1e5, count))
        result = vfti(data)
        assert result.aggregate_error(reference) < 1e-7

    def test_vfti_is_mfti_with_unit_blocks(self, small_data):
        """VFTI and MFTI with t=1 and matching directions build pencils of the same size."""
        v = vfti(small_data)
        m = mfti(small_data, block_size=1)
        assert (v.tangential.k_left, v.tangential.k_right) == (
            m.tangential.k_left, m.tangential.k_right)

    def test_vfti_metadata(self, small_data):
        result = vfti(small_data, options=VftiOptions(direction_start=1))
        assert result.method == "vfti"
        assert result.metadata["direction_start"] == 1

    def test_vfti_interface_errors(self, small_data, small_system):
        with pytest.raises(ValueError):
            vfti(small_data, options=VftiOptions(), direction_start=1)
        with pytest.raises(ValueError):
            vfti(sample_scattering(small_system, [1e3]))
        with pytest.raises(ValueError):
            VftiOptions(direction_start=-1)


class TestRecursiveMfti:
    @pytest.fixture(scope="class")
    def noisy_oversampled(self):
        system = random_stable_system(order=16, n_ports=4, feedthrough=0.1, seed=23)
        clean = sample_scattering(system, log_frequencies(1e1, 1e5, 30))
        reference = sample_scattering(system, log_frequencies(1e1, 1e5, 60))
        noisy = add_measurement_noise(clean, relative_level=1e-4, seed=5)
        return system, noisy, reference

    def test_converges_below_threshold(self, noisy_oversampled):
        _, noisy, reference = noisy_oversampled
        options = RecursiveOptions(block_size=2, samples_per_iteration=3,
                                   error_threshold=1e-3,
                                   rank_method="tolerance", rank_tolerance=1e-4)
        result = recursive_mfti(noisy, options=options)
        recursion = result.metadata["recursion"]
        assert recursion.n_iterations >= 1
        assert recursion.converged
        assert result.aggregate_error(reference) < 5e-2

    def test_runs_two_svds_per_iteration(self, noisy_oversampled, svd_calls):
        """Each refinement iteration runs only the two realization SVDs."""
        _, noisy, _ = noisy_oversampled
        result = recursive_mfti(noisy, options=RecursiveOptions(
            block_size=2, samples_per_iteration=3, error_threshold=1e-3,
            rank_method="tolerance", rank_tolerance=1e-4))
        n_iterations = result.metadata["recursion"].n_iterations
        assert n_iterations >= 2
        assert len(svd_calls) == 2 * n_iterations

    def test_uses_fewer_samples_than_available(self, noisy_oversampled):
        _, noisy, _ = noisy_oversampled
        options = RecursiveOptions(block_size=2, samples_per_iteration=2,
                                   error_threshold=5e-2,
                                   rank_method="tolerance", rank_tolerance=1e-4)
        result = recursive_mfti(noisy, options=options)
        assert result.n_samples_used < noisy.n_samples // 2

    def test_tight_threshold_uses_more_samples(self, noisy_oversampled):
        _, noisy, _ = noisy_oversampled
        loose = recursive_mfti(noisy, options=RecursiveOptions(
            block_size=2, samples_per_iteration=2, error_threshold=1e-1,
            rank_method="tolerance", rank_tolerance=1e-4))
        tight = recursive_mfti(noisy, options=RecursiveOptions(
            block_size=2, samples_per_iteration=2, error_threshold=1e-6,
            rank_method="tolerance", rank_tolerance=1e-4))
        assert tight.n_samples_used >= loose.n_samples_used

    def test_iteration_history_is_recorded(self, noisy_oversampled):
        _, noisy, _ = noisy_oversampled
        result = recursive_mfti(noisy, options=RecursiveOptions(
            block_size=2, samples_per_iteration=2, error_threshold=1e-6,
            max_iterations=3, rank_method="tolerance", rank_tolerance=1e-4))
        recursion = result.metadata["recursion"]
        assert recursion.n_iterations == 3
        assert not recursion.converged
        counts = [it.n_samples_used for it in recursion.iterations]
        assert counts == sorted(counts)

    def test_spread_selection_mode(self, noisy_oversampled):
        _, noisy, reference = noisy_oversampled
        result = recursive_mfti(noisy, options=RecursiveOptions(
            block_size=2, samples_per_iteration=3, error_threshold=1e-3,
            selection="spread", rank_method="tolerance", rank_tolerance=1e-4))
        assert result.aggregate_error(reference) < 1e-1

    def test_selected_pairs_recorded(self, noisy_oversampled):
        _, noisy, _ = noisy_oversampled
        result = recursive_mfti(noisy, options=RecursiveOptions(
            block_size=1, samples_per_iteration=2, error_threshold=1e-2,
            rank_method="tolerance", rank_tolerance=1e-4))
        pairs = result.metadata["selected_pairs"]
        assert len(pairs) == result.n_samples_used
        assert len(set(pairs)) == len(pairs)

    def test_interface_validation(self, small_data, noisy_data):
        with pytest.raises(ValueError):
            recursive_mfti(noisy_data, options=RecursiveOptions(), error_threshold=1e-3)
        with pytest.raises(ValueError):
            RecursiveOptions(samples_per_iteration=0)
        with pytest.raises(ValueError):
            RecursiveOptions(selection="random")
        with pytest.raises(ValueError):
            RecursiveOptions(max_iterations=0)
        with pytest.raises(ValueError):
            RecursiveOptions(error_threshold=-1.0)

    def test_requires_at_least_four_samples(self, small_system):
        data = sample_scattering(small_system, log_frequencies(1e2, 1e3, 3))
        with pytest.raises(ValueError):
            recursive_mfti(data)


#: The sample pairs the mixed grid's two recursive jobs select: the hold-out
#: residuals run through each iteration's evaluation plan, a pure function of
#: its model, so the active-learning selection is pinned.
PINNED_SELECTIONS = {
    "pdn/mfti-recursive": (87, (0, 1, 8, 9, 16, 17, 22, 23, 24, 25, 32, 33, 40, 41, 44, 48,
                                49, 52, 53, 55, 56, 57, 60, 61, 62, 63, 64, 65, 66, 67, 68, 69)),
    "tline/mfti-recursive": (50, (0, 1, 2, 8, 9, 10, 16, 17, 24, 25, 32, 33, 40, 41, 48, 49)),
}


def test_workload_recursive_selections_are_pinned():
    from repro.core import run_fit
    from repro.experiments.workloads import mixed_batch_jobs

    jobs = {job.label: job for job in mixed_batch_jobs()}
    for label, (order, pairs) in PINNED_SELECTIONS.items():
        job = jobs[label]
        result = run_fit(job.data, method=job.method, options=job.options)
        assert (result.order, result.metadata["selected_pairs"]) == (order, pairs), label
