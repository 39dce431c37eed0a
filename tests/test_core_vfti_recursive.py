"""Tests for the VFTI baseline and the recursive Algorithm 2."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RecursiveOptions, VftiOptions, mfti, recursive_mfti, vfti
from repro.core._pipeline import realize_from_tangential
from repro.core.directions import prepare_block_directions
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
        assert len(result.metadata["selected_pairs"]) < noisy.n_samples // 2

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
        assert result.n_samples_used == 2 * len(pairs)  # 30 samples: no unpaired extra
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

    @pytest.mark.parametrize("max_iterations", [1, 2, 3])
    def test_stop_at_max_iterations_reports_the_realized_selection(
            self, noisy_oversampled, max_iterations):
        """The pairs picked after the last realization are not reported as used."""
        _, noisy, _ = noisy_oversampled
        result = recursive_mfti(noisy, options=RecursiveOptions(
            block_size=2, samples_per_iteration=2, error_threshold=1e-9,
            max_iterations=max_iterations, rank_method="tolerance", rank_tolerance=1e-4))
        recursion = result.metadata["recursion"]
        assert not recursion.converged
        assert recursion.n_iterations == max_iterations
        realized = 2 * max_iterations
        assert recursion.iterations[-1].n_samples_used == realized
        assert result.n_samples_used == 2 * realized
        assert len(result.metadata["selected_pairs"]) == realized
        assert result.tangential.n_right_samples == realized


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def recursive_problems(draw):
    """A small sampled system and recursive options over every knob the loop reads."""
    n_ports = draw(st.integers(1, 3))
    data = sample_scattering(
        random_stable_system(order=draw(st.integers(2, 10)), n_ports=n_ports,
                             feedthrough=0.1, seed=draw(st.integers(0, 2**16))),
        log_frequencies(1e1, 1e5, draw(st.integers(4, 16))))
    if draw(st.booleans()):
        data = add_measurement_noise(data, relative_level=1e-3, seed=draw(st.integers(0, 99)))
    real_output = draw(st.booleans())
    options = RecursiveOptions(
        real_output=real_output,
        include_conjugates=real_output or draw(st.booleans()),
        block_size=draw(st.integers(1, n_ports)),
        samples_per_iteration=draw(st.integers(1, 4)),
        initial_samples=draw(st.none() | st.integers(1, 5)),
        max_iterations=draw(st.integers(1, 4)),
        error_threshold=draw(st.sampled_from([0.0, 1e-6, 1e-2])),
        selection=draw(st.sampled_from(["worst", "spread"])),
        rank_method="tolerance",
        rank_tolerance=1e-8,
    )
    return data, options


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(recursive_problems())
def test_recursive_model_is_the_one_shot_realization_of_its_selection(problem):
    """The returned model is, bit for bit, the realization of the interpolation
    set it reports, and the reported pairs are the ones that set holds."""
    data, options = problem
    result = recursive_mfti(data, options=options)

    one_shot = realize_from_tangential(result.tangential, result.metadata["options"],
                                       method="mfti-recursive",
                                       n_samples_used=result.n_samples_used)
    for name in ("E", "A", "B", "C", "D"):
        assert _same_bits(getattr(result.system, name), getattr(one_shot.system, name)), name

    pairs = result.metadata["selected_pairs"]
    assert len(pairs) == len(set(pairs))
    assert result.metadata["recursion"].iterations[-1].n_samples_used == len(pairs)
    assert result.n_samples_used == result.tangential.n_sample_matrices
    plan = prepare_block_directions(options, data.n_samples, data.n_inputs, data.n_outputs)
    n_pairs = min(len(plan.right_indices), len(plan.left_indices))
    for indices, points in ((plan.right_indices, result.tangential.right_points),
                            (plan.left_indices, result.tangential.left_points)):
        samples = [indices[g] for g in sorted(set(pairs) | set(range(n_pairs, len(indices))))]
        expected = 1j * 2.0 * np.pi * data.frequencies_hz[samples]
        assert _same_bits(points, expected)


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
