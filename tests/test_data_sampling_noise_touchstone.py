"""Tests for sampling, noise injection and Touchstone I/O."""

import dataclasses
import io
import os
import threading

import numpy as np
import pytest

from repro import backends
from repro.data.dataset import FrequencyData
from repro.data.frequency import linear_frequencies, log_frequencies
from repro.data.noise import add_measurement_noise, snr_to_sigma
from repro.data.sampler import sample_impedance, sample_scattering, sample_system
from repro.data.touchstone import read_touchstone, write_touchstone
from repro.systems.interconnect import z_to_s
from repro.systems.statespace import DescriptorSystem
from repro.utils.blas import single_thread_blas

#: A sweep long enough to span several stacked-solve chunks.
MANY_POINTS = 300


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _record_solves(monkeypatch, record) -> list:
    """Swap in a copy of the backend's stacked solve that appends ``record()`` per call."""
    numpy_backend = backends.get_backend()
    calls: list = []

    def recording_solve(a, b):
        calls.append(record())
        return numpy_backend.solve(a, b)

    monkeypatch.setitem(backends._instances, "numpy",
                        dataclasses.replace(numpy_backend, solve=recording_solve))
    return calls


class _Tagged(DescriptorSystem):
    """A subclass that adds nothing: it is swept as a DescriptorSystem."""


class _DuckSource:
    """A source offering only ``frequency_response(freqs)``, as fitted models do."""

    def __init__(self, get_threads):
        self.get_threads = get_threads
        self.threads: list = []

    def frequency_response(self, frequencies_hz):
        self.threads.append(self.get_threads())
        return np.ones((len(frequencies_hz), 1, 1), dtype=complex)


class TestSampler:
    def test_sample_system_matches_direct_evaluation(self, small_system):
        freqs = np.array([1e2, 1e3])
        data = sample_system(small_system, freqs)
        direct = small_system.transfer_function(1j * 2 * np.pi * 1e3)
        assert np.allclose(data.samples[1], direct)
        assert data.kind == "H"

    def test_sample_scattering_passthrough(self, small_system):
        freqs = np.array([1e2, 1e3, 1e4])
        data = sample_scattering(small_system, freqs)
        assert data.kind == "S"
        assert data.n_samples == 3

    def test_sample_scattering_converts_impedance(self, tiny_pdn_system):
        freqs = np.array([1e7, 1e8])
        data = sample_scattering(tiny_pdn_system, freqs, system_kind="Z")
        expected = z_to_s(tiny_pdn_system.transfer_function(1j * 2 * np.pi * 1e8))
        assert np.allclose(data.samples[1], expected)

    def test_sample_impedance_kind(self, tiny_pdn_system):
        freqs = np.array([1e7])
        assert sample_impedance(tiny_pdn_system, freqs).kind == "Z"

    def test_invalid_system_kind(self, small_system):
        with pytest.raises(ValueError):
            sample_scattering(small_system, [1e3], system_kind="Q")

    @pytest.mark.parametrize("name", ["small_system", "tiny_pdn_system"])
    def test_sample_system_equals_the_one_lane_sweep_byte_for_byte(self, request, name):
        system = request.getfixturevalue(name)
        freqs = log_frequencies(1e1, 1e9, MANY_POINTS)
        with single_thread_blas():
            one_lane = system.frequency_response(freqs, method="solve")
        assert sample_system(system, freqs).samples.tobytes() == one_lane.tobytes()

    @pytest.mark.skipif(_usable_cpus() < 2, reason="the process may use one CPU")
    def test_sample_system_fans_out_over_the_usable_cpus(self, small_system, monkeypatch):
        threads = _record_solves(monkeypatch, threading.get_ident)
        sample_system(small_system, log_frequencies(1e1, 1e5, MANY_POINTS))
        assert len(set(threads)) >= 2

    def test_every_lane_solves_with_one_blas_thread(self, small_system, monkeypatch,
                                                    two_blas_threads):
        counts = _record_solves(monkeypatch, two_blas_threads)
        sample_system(small_system, log_frequencies(1e1, 1e5, MANY_POINTS))
        assert counts and set(counts) == {1}
        assert two_blas_threads() == 2

    def test_duck_typed_source_is_swept_with_one_blas_thread(self, two_blas_threads):
        source = _DuckSource(two_blas_threads)
        data = sample_system(source, [1e3, 1e4])
        assert source.threads == [1]
        assert data.samples.shape == (2, 1, 1)
        assert two_blas_threads() == 2

    def test_type_error_in_a_subclass_sweep_propagates(self, small_system, monkeypatch):
        """No silent second sweep through the eigendecomposition fast path."""
        numpy_backend = backends.get_backend()

        def failing_solve(a, b):
            if a.shape[0] > 3:  # the fast path's plan probes, three points, still solve
                raise TypeError("stacked solve failed")
            return numpy_backend.solve(a, b)

        monkeypatch.setitem(backends._instances, "numpy",
                            dataclasses.replace(numpy_backend, solve=failing_solve))
        system = _Tagged(small_system.E, small_system.A, small_system.B,
                         small_system.C, small_system.D)
        with pytest.raises(TypeError, match="stacked solve failed"):
            sample_system(system, log_frequencies(1e1, 1e5, 24))


class TestNoise:
    def test_relative_level_scales_noise(self, small_data):
        noisy = add_measurement_noise(small_data, relative_level=1e-2, seed=1)
        diff = noisy.samples - small_data.samples
        rms_signal = np.sqrt(np.mean(np.abs(small_data.samples) ** 2))
        rms_noise = np.sqrt(np.mean(np.abs(diff) ** 2))
        assert 0.5e-2 < rms_noise / rms_signal < 2e-2

    def test_snr_specification(self, small_data):
        noisy = add_measurement_noise(small_data, snr_db=40.0, seed=2)
        diff = noisy.samples - small_data.samples
        snr = 20 * np.log10(np.sqrt(np.mean(np.abs(small_data.samples) ** 2))
                            / np.sqrt(np.mean(np.abs(diff) ** 2)))
        assert 37.0 < snr < 43.0

    def test_zero_noise_returns_same_object(self, small_data):
        assert add_measurement_noise(small_data, relative_level=0.0) is small_data

    def test_reproducible_with_seed(self, small_data):
        a = add_measurement_noise(small_data, relative_level=1e-3, seed=5)
        b = add_measurement_noise(small_data, relative_level=1e-3, seed=5)
        assert np.allclose(a.samples, b.samples)

    def test_requires_exactly_one_spec(self, small_data):
        with pytest.raises(ValueError):
            add_measurement_noise(small_data)
        with pytest.raises(ValueError):
            add_measurement_noise(small_data, relative_level=1e-3, snr_db=40.0)

    def test_snr_to_sigma_value(self):
        samples = np.ones((2, 2, 2))
        assert snr_to_sigma(samples, 20.0) == pytest.approx(0.1)


class TestTouchstone:
    def _toy_data(self, n_ports, n_freq=5, seed=0):
        rng = np.random.default_rng(seed)
        freqs = linear_frequencies(1e8, 1e9, n_freq)
        samples = rng.normal(size=(n_freq, n_ports, n_ports)) * 0.3
        samples = samples + 1j * rng.normal(size=(n_freq, n_ports, n_ports)) * 0.3
        return FrequencyData(freqs, samples, kind="S", reference_impedance=50.0)

    @pytest.mark.parametrize("fmt", ["RI", "MA", "DB"])
    @pytest.mark.parametrize("n_ports", [1, 2, 3])
    def test_roundtrip(self, tmp_path, fmt, n_ports):
        data = self._toy_data(n_ports)
        path = tmp_path / f"network.s{n_ports}p"
        write_touchstone(data, path, fmt=fmt, freq_unit="MHZ")
        loaded = read_touchstone(path)
        assert loaded.kind == "S"
        assert loaded.n_ports == n_ports
        assert np.allclose(loaded.frequencies_hz, data.frequencies_hz)
        assert np.allclose(loaded.samples, data.samples, atol=1e-8)

    def test_roundtrip_stream_requires_port_count(self):
        data = self._toy_data(3)
        buffer = io.StringIO()
        write_touchstone(data, buffer, fmt="RI")
        buffer.seek(0)
        with pytest.raises(ValueError):
            read_touchstone(buffer)
        buffer.seek(0)
        loaded = read_touchstone(buffer, n_ports=3)
        assert np.allclose(loaded.samples, data.samples, atol=1e-10)

    def test_reference_impedance_and_comment(self, tmp_path):
        data = FrequencyData(np.array([1e9]), 0.1 * np.ones((1, 2, 2)),
                             kind="S", reference_impedance=75.0)
        path = tmp_path / "net.s2p"
        write_touchstone(data, path, comment="two-line\ncomment")
        text = path.read_text()
        assert "! two-line" in text
        assert "R 75" in text
        assert read_touchstone(path).reference_impedance == pytest.approx(75.0)

    def test_z_parameter_file(self, tmp_path):
        data = FrequencyData(np.array([1e6, 2e6]), np.stack([np.eye(2) * 10.0] * 2), kind="Z")
        path = tmp_path / "imp.s2p"
        write_touchstone(data, path)
        loaded = read_touchstone(path)
        assert loaded.kind == "Z"
        assert np.allclose(loaded.samples, data.samples, atol=1e-9)

    def test_invalid_format_rejected(self, tmp_path):
        data = self._toy_data(1)
        with pytest.raises(ValueError):
            write_touchstone(data, tmp_path / "x.s1p", fmt="XY")
        with pytest.raises(ValueError):
            write_touchstone(data, tmp_path / "x.s1p", freq_unit="THZ")

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.s2p"
        path.write_text("# GHZ S RI R 50\n1.0 0.1 0.2 0.3\n")
        with pytest.raises(ValueError):
            read_touchstone(path)

    def test_comment_lines_ignored(self, tmp_path):
        path = tmp_path / "net.s1p"
        path.write_text("! header comment\n# HZ S RI R 50\n1e6 0.5 -0.25 ! trailing\n")
        loaded = read_touchstone(path)
        assert loaded.samples[0, 0, 0] == pytest.approx(0.5 - 0.25j)
