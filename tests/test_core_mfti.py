"""Tests for Algorithm 1 (:func:`repro.core.mfti.mfti`) and its options."""

import numpy as np
import pytest

from repro.cli import cli_subprocess
from repro.core import MftiOptions, RecursiveOptions, mfti
from repro.core.directions import resolve_block_sizes
from repro.core.sampling import minimal_sample_count
from repro.data import log_frequencies, sample_scattering, write_touchstone
from repro.systems.random_systems import random_stable_system


class TestBlockSizeResolution:
    def test_none_uses_full_width(self):
        assert resolve_block_sizes(None, 4, 3) == [3, 3, 3, 3]

    def test_integer_broadcast(self):
        assert resolve_block_sizes(2, 3, 5) == [2, 2, 2]

    def test_sequence_passthrough(self):
        assert resolve_block_sizes([1, 2, 3], 3, 3) == [1, 2, 3]

    def test_sequence_length_mismatch(self):
        with pytest.raises(ValueError):
            resolve_block_sizes([1, 2], 3, 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            resolve_block_sizes(5, 3, 4)
        with pytest.raises(ValueError):
            resolve_block_sizes([1, 4, 1], 3, 3)
        with pytest.raises(ValueError):
            MftiOptions(block_size=[0, 1, 1])


class TestMftiRecovery:
    def test_exact_recovery_from_few_samples(self, small_system, small_data, dense_data):
        """The headline claim: recover an order-20+D system from 8 matrix samples."""
        result = mfti(small_data)
        expected_order = small_system.order + np.linalg.matrix_rank(small_system.D)
        assert result.order == expected_order
        assert result.aggregate_error(dense_data) < 1e-8

    def test_model_is_real_and_stable_enough(self, small_data):
        result = mfti(small_data)
        assert result.system.is_real

    def test_minimal_sampling_count_sufficient(self, small_system, dense_data):
        """Sampling exactly the Theorem-3.5 empirical count recovers the system."""
        estimate = minimal_sample_count(small_system.order, 4, 4, rank_d=4)
        count = estimate.empirical + estimate.empirical % 2
        data = sample_scattering(small_system, log_frequencies(1e1, 1e5, count))
        result = mfti(data)
        assert result.aggregate_error(dense_data) < 1e-6

    def test_smaller_block_size_needs_more_samples(self, small_system, dense_data):
        """With t=1 (the VFTI amount of information) 8 samples are not enough."""
        data = sample_scattering(small_system, log_frequencies(1e1, 1e5, 8))
        full = mfti(data)
        starved = mfti(data, block_size=1)
        assert full.aggregate_error(dense_data) < 1e-8
        assert starved.aggregate_error(dense_data) > 1e-3

    def test_per_sample_block_sizes(self, small_data, dense_data):
        sizes = [4, 4, 4, 4, 2, 2, 2, 2]
        result = mfti(small_data, block_size=sizes)
        assert result.metadata["block_sizes"] == tuple(sizes)
        assert result.aggregate_error(dense_data) < 1e-2

    def test_random_directions(self, small_data, dense_data):
        result = mfti(small_data, options=MftiOptions(direction_kind="random", direction_seed=3))
        assert result.aggregate_error(dense_data) < 1e-7

    def test_explicit_order(self, small_data):
        result = mfti(small_data, order=10)
        assert result.order == 10

    def test_oversampled_data_still_recovers(self, small_system, many_sample_data, dense_data):
        result = mfti(many_sample_data)
        assert result.order == small_system.order + np.linalg.matrix_rank(small_system.D)
        assert result.aggregate_error(dense_data) < 1e-7

    def test_result_metadata(self, small_data):
        result = mfti(small_data)
        assert result.method == "mfti"
        assert result.n_samples_used == small_data.n_samples
        assert result.elapsed_seconds > 0
        system = result.system
        assert not any(np.iscomplexobj(m) for m in (system.E, system.A, system.B,
                                                    system.C, system.D))
        assert not hasattr(result, "pencil")  # rebuilt on demand from the tangential data
        assert result.realization.mode == "two-sided"
        assert "order=" in result.summary() or "order" in result.summary()

    def test_interpolation_conditions_hold(self, small_data):
        """Eq. (10): the recovered model satisfies the tangential constraints."""
        result = mfti(small_data)
        right, left = result.tangential.interpolation_residuals(result.system)
        scale = np.linalg.norm(result.tangential.W)
        assert np.max(right) / scale < 1e-8
        assert np.max(left) / scale < 1e-8

    def test_full_matrix_match_when_square(self, small_data):
        """Lemma 3.1: with t = m = p the model matches every sampled matrix (eq. 3)."""
        result = mfti(small_data)
        for freq, sample in small_data:
            h = result.system.transfer_function(1j * 2 * np.pi * freq)
            assert np.linalg.norm(h - sample) / np.linalg.norm(sample) < 1e-8


class TestMftiInterface:
    def test_options_and_kwargs_exclusive(self, small_data):
        with pytest.raises(ValueError):
            mfti(small_data, options=MftiOptions(), block_size=2)

    def test_needs_two_samples(self, small_system):
        data = sample_scattering(small_system, [1e3])
        with pytest.raises(ValueError):
            mfti(data)

    def test_invalid_option_values(self):
        with pytest.raises(ValueError):
            MftiOptions(svd_mode="nope")
        with pytest.raises(ValueError):
            MftiOptions(rank_method="nope")
        with pytest.raises(ValueError):
            MftiOptions(rank_tolerance=-1.0)
        with pytest.raises(ValueError):
            MftiOptions(order=0)
        with pytest.raises(ValueError):
            MftiOptions(direction_kind="diagonal")
        with pytest.raises(ValueError):
            MftiOptions(real_output=True, include_conjugates=False)

    @pytest.mark.parametrize("block_size", [
        2.5, True, np.True_, "2", 0, -1, [2.7] * 8, [2, True], [0, 1], np.array([2.0, 2.0]),
        {"t": 2},
    ])
    @pytest.mark.parametrize("options_type", [MftiOptions, RecursiveOptions])
    def test_block_size_is_validated_where_the_options_are_built(self, options_type,
                                                                 block_size):
        with pytest.raises(ValueError, match="block_size"):
            options_type(block_size=block_size)

    @pytest.mark.parametrize("block_size", [
        None, 2, np.int64(2), [2, 3], (np.int32(1), 2), np.array([1, 2]),
    ])
    def test_integer_block_sizes_are_accepted(self, block_size):
        assert MftiOptions(block_size=block_size).block_size is block_size

    @pytest.mark.parametrize("block_size", ["2.5", "true"])
    def test_cli_refuses_a_non_integer_block_size(self, small_data, tmp_path, block_size):
        path = tmp_path / "board.s4p"
        write_touchstone(small_data, path)
        completed = cli_subprocess("fit", str(path), "--method", "mfti",
                                   "--options", f'{{"block_size": {block_size}}}')
        assert completed.returncode == 2, completed.stderr
        lines = completed.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), completed.stderr
        assert "block_size" in lines[0]

    def test_rectangular_data_supported(self, dense_data):
        """Non-square sample matrices (more outputs than inputs) still interpolate."""
        system = random_stable_system(order=10, n_ports=3, feedthrough=0.1, seed=8)
        rect = system.subsystem(outputs=[0, 1, 2], inputs=[0, 1])
        data = sample_scattering(rect, log_frequencies(1e1, 1e5, 10))
        result = mfti(data)
        reference = rect.frequency_response(data.frequencies_hz)
        err = np.linalg.norm(result.frequency_response(data.frequencies_hz) - reference)
        assert err / np.linalg.norm(reference) < 1e-6
