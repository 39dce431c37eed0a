"""Tests for :mod:`repro.systems.interconnect` and the sweep conversions built on it."""

import numpy as np
import pytest

from repro.data import FrequencyData, sample_system
from repro.systems.interconnect import s_to_y, s_to_z, y_to_s, y_to_z, z_to_s, z_to_y
from repro.systems.random_systems import random_stable_system


@pytest.fixture
def z_sample(rng):
    """A random passive-ish impedance matrix sample (diagonally dominant)."""
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return z + 10.0 * np.eye(3)


class TestPointwiseConversions:
    def test_z_s_roundtrip(self, z_sample):
        assert np.allclose(s_to_z(z_to_s(z_sample)), z_sample)

    def test_y_s_roundtrip(self, z_sample):
        y = np.linalg.inv(z_sample)
        assert np.allclose(s_to_y(y_to_s(y)), y)

    def test_z_y_roundtrip(self, z_sample):
        assert np.allclose(y_to_z(z_to_y(z_sample)), z_sample)

    def test_consistency_z_vs_y_path(self, z_sample):
        """Converting Z -> S directly equals converting Z -> Y -> S."""
        assert np.allclose(z_to_s(z_sample), y_to_s(z_to_y(z_sample)))

    def test_matched_load_gives_zero_reflection(self):
        z = 50.0 * np.eye(2)
        assert np.allclose(z_to_s(z, z0=50.0), 0.0)

    def test_open_circuit_reflection(self):
        # very large impedance -> reflection coefficient ~ +1
        s = z_to_s(np.array([[1e12]]), z0=50.0)
        assert s[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_short_circuit_reflection(self):
        s = z_to_s(np.array([[1e-9]]), z0=50.0)
        assert s[0, 0] == pytest.approx(-1.0, abs=1e-6)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            z_to_s(np.ones((2, 3)))


class TestSweepConversions:
    """:meth:`FrequencyData.converted` applies the conversions to a whole sweep."""

    FREQS = np.array([1e2, 1e3, 1e4])

    def test_impedance_sweep_matches_pointwise(self):
        z_system = random_stable_system(order=12, n_ports=3, feedthrough=None, seed=2)
        # shift D so Z + z0 I is well conditioned
        z_system = z_system.with_feedthrough(5.0 * np.eye(3))
        z_sweep = sample_system(z_system, self.FREQS, kind="Z")
        s_sweep = z_sweep.converted("S")
        assert s_sweep.kind == "S"
        assert np.array_equal(s_sweep.frequencies_hz, self.FREQS)
        eye = np.eye(3)
        for z, s in zip(z_sweep.samples, s_sweep.samples):
            expected = (z - 50.0 * eye) @ np.linalg.inv(z + 50.0 * eye)
            assert np.allclose(s, expected, atol=1e-9)

    def test_admittance_sweep_matches_pointwise(self):
        y_system = random_stable_system(order=10, n_ports=2, feedthrough=None, seed=6)
        y_system = y_system.with_feedthrough(0.05 * np.eye(2))
        y_sweep = sample_system(y_system, self.FREQS, kind="Y")
        s_sweep = y_sweep.converted("S")
        eye = np.eye(2)
        for y, s in zip(y_sweep.samples, s_sweep.samples):
            expected = (eye - 50.0 * y) @ np.linalg.inv(eye + 50.0 * y)
            assert np.allclose(s, expected, atol=1e-9)
        assert np.allclose(y_sweep.converted("Z").converted("S").samples, s_sweep.samples,
                           atol=1e-9)

    def test_rectangular_sweep_rejected(self):
        data = FrequencyData(self.FREQS, np.ones((3, 2, 3)), kind="Z")
        with pytest.raises(ValueError):
            data.converted("S")

    def test_sweep_conversion_uses_the_reference_impedance(self):
        matched = FrequencyData(self.FREQS, np.stack([75.0 * np.eye(2)] * 3), kind="Z",
                                reference_impedance=75.0)
        s_sweep = matched.converted("S")
        assert s_sweep.reference_impedance == 75.0
        assert np.allclose(s_sweep.samples, 0.0)
        assert np.allclose(matched.converted("S", z0=50.0).samples, 0.2 * np.eye(2))
