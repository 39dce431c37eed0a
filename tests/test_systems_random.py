"""Tests for :mod:`repro.systems.random_systems`."""

import numpy as np
import pytest

from repro.systems.analysis import finite_poles, is_stable
from repro.systems.random_systems import EXAMPLE1_SEED, example1_system, random_stable_system


class TestRandomStableSystem:
    def test_dimensions(self):
        sys_ = random_stable_system(order=12, n_ports=3, seed=0)
        assert sys_.order == 12
        assert sys_.n_ports == 3

    def test_stability(self):
        for seed in range(5):
            assert is_stable(random_stable_system(order=16, n_ports=2, seed=seed))

    def test_reproducible_with_seed(self):
        a = random_stable_system(order=10, n_ports=2, seed=42)
        b = random_stable_system(order=10, n_ports=2, seed=42)
        assert np.allclose(a.A, b.A)
        assert np.allclose(a.B, b.B)

    def test_different_seeds_differ(self):
        a = random_stable_system(order=10, n_ports=2, seed=1)
        b = random_stable_system(order=10, n_ports=2, seed=2)
        assert not np.allclose(a.A, b.A)

    def test_odd_order_supported(self):
        sys_ = random_stable_system(order=7, n_ports=2, seed=3)
        assert sys_.order == 7
        assert is_stable(sys_)

    def test_poles_within_band(self):
        f_min, f_max = 1e3, 1e6
        sys_ = random_stable_system(order=20, n_ports=2, freq_min_hz=f_min, freq_max_hz=f_max,
                                    seed=5)
        mags = np.abs(finite_poles(sys_)) / (2 * np.pi)
        assert np.all(mags >= 0.5 * f_min)
        assert np.all(mags <= 2.0 * f_max)

    def test_no_feedthrough_option(self):
        sys_ = random_stable_system(order=8, n_ports=2, feedthrough=None, seed=1)
        assert np.allclose(sys_.D, 0.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            random_stable_system(order=4, n_ports=2, freq_min_hz=1e5, freq_max_hz=1e3)
        with pytest.raises(ValueError):
            random_stable_system(order=4, n_ports=2, damping_min=0.5, damping_max=0.1)
        with pytest.raises(ValueError):
            random_stable_system(order=0, n_ports=2)

    def test_transfer_function_magnitude_reasonable(self):
        """The excitation scaling keeps responses O(1), not vanishing or exploding."""
        sys_ = random_stable_system(order=30, n_ports=4, seed=9)
        freqs = np.logspace(1, 5, 40)
        mags = np.abs(sys_.frequency_response(freqs))
        assert 1e-3 < np.max(mags) < 1e3


class TestExample1System:
    def test_example1_dimensions(self):
        sys_ = example1_system(order=30, n_ports=6)
        assert sys_.order == 30
        assert sys_.n_ports == 6

    def test_example1_default_seed_fixed(self):
        a = example1_system(order=20, n_ports=4)
        b = example1_system(order=20, n_ports=4, seed=EXAMPLE1_SEED)
        assert np.allclose(a.A, b.A)

    def test_example1_has_feedthrough(self):
        sys_ = example1_system(order=20, n_ports=4)
        assert np.linalg.matrix_rank(sys_.D) == 4
