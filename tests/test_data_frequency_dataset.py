"""Tests for :mod:`repro.data.frequency` and :mod:`repro.data.dataset`."""

import pickle

import numpy as np
import pytest

from repro.data.dataset import FrequencyData
from repro.data.frequency import clustered_frequencies, linear_frequencies, log_frequencies


class TestFrequencyGrids:
    def test_linear_endpoints(self):
        freqs = linear_frequencies(1e3, 1e6, 10)
        assert freqs[0] == pytest.approx(1e3)
        assert freqs[-1] == pytest.approx(1e6)
        assert freqs.size == 10
        assert np.allclose(np.diff(freqs), np.diff(freqs)[0])

    def test_log_endpoints(self):
        freqs = log_frequencies(1e2, 1e8, 7)
        assert freqs[0] == pytest.approx(1e2)
        assert freqs[-1] == pytest.approx(1e8)
        assert np.allclose(np.diff(np.log10(freqs)), 1.0)

    def test_clustered_density(self):
        freqs = clustered_frequencies(1e6, 1e9, 100, cluster_fraction=0.85,
                                      cluster_start_fraction=0.7)
        assert freqs.size == 100
        assert np.all(np.diff(freqs) > 0)
        split = 1e6 + 0.7 * (1e9 - 1e6)
        high = np.count_nonzero(freqs >= split)
        assert high >= 80  # most samples in the top 30 % of the band

    def test_clustered_validation(self):
        with pytest.raises(ValueError):
            clustered_frequencies(1e6, 1e9, 10, cluster_fraction=1.5)
        with pytest.raises(ValueError):
            clustered_frequencies(1e9, 1e6, 10)

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            linear_frequencies(0.0, 1e3, 5)
        with pytest.raises(ValueError):
            log_frequencies(1e3, 1e2, 5)


@pytest.fixture
def toy_data(rng):
    freqs = np.array([1e3, 2e3, 4e3, 8e3])
    samples = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
    return FrequencyData(freqs, samples, kind="S", label="toy")


class TestFrequencyData:
    def test_basic_properties(self, toy_data):
        assert toy_data.n_samples == 4
        assert len(toy_data) == 4
        assert toy_data.n_ports == 2
        assert toy_data.n_inputs == 2
        assert toy_data.n_outputs == 2
        assert np.allclose(toy_data.omega, 2 * np.pi * toy_data.frequencies_hz)
        assert np.allclose(toy_data.s_points.real, 0.0)

    def test_single_matrix_convenience(self):
        data = FrequencyData(np.array([1e3]), np.eye(2))
        assert data.samples.shape == (1, 2, 2)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            FrequencyData(np.array([1e3, 2e3]), np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            FrequencyData(np.array([2e3, 1e3]), np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            FrequencyData(np.array([-1.0]), np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            FrequencyData(np.array([1e3]), np.zeros((1, 2, 2)), kind="X")
        with pytest.raises(ValueError):
            FrequencyData(np.array([1e3]), np.full((1, 2, 2), np.nan))

    def test_samples_readonly(self, toy_data):
        with pytest.raises(ValueError):
            toy_data.samples[0, 0, 0] = 1.0

    def test_pickle_round_trip_keeps_arrays_readonly(self, toy_data):
        clone = pickle.loads(pickle.dumps(toy_data))
        assert np.array_equal(clone.samples, toy_data.samples)
        assert not clone.frequencies_hz.flags.writeable
        assert not clone.samples.flags.writeable

    def test_iteration(self, toy_data):
        items = list(toy_data)
        assert len(items) == 4
        freq, matrix = items[0]
        assert freq == pytest.approx(1e3)
        assert matrix.shape == (2, 2)

    def test_subset_sorts(self, toy_data):
        sub = toy_data.subset([3, 0])
        assert np.allclose(sub.frequencies_hz, [1e3, 8e3])
        assert np.allclose(sub.samples[0], toy_data.samples[0])

    def test_with_samples_replaces(self, toy_data):
        new = toy_data.with_samples(np.zeros((4, 2, 2)), label="zeros")
        assert np.allclose(new.samples, 0.0)
        assert new.label == "zeros"

    def test_conversion_roundtrip(self, rng):
        freqs = np.array([1e6, 1e7])
        z = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3)) + 20 * np.eye(3)
        data = FrequencyData(freqs, z, kind="Z")
        s = data.converted("S")
        back = s.converted("Z")
        assert s.kind == "S"
        assert np.allclose(back.samples, data.samples)

    def test_conversion_rejects_generic(self, toy_data):
        h = FrequencyData(toy_data.frequencies_hz, toy_data.samples, kind="H")
        with pytest.raises(ValueError):
            h.converted("S")

    def test_magnitude_entry(self, toy_data):
        mag = toy_data.magnitude(1, 0)
        assert np.allclose(mag, np.abs(toy_data.samples[:, 1, 0]))
