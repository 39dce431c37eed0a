"""Property-based tests (hypothesis) for the core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.directions import generate_direction_sets, orthonormal_directions
from repro.core.loewner import build_loewner_pencil
from repro.core.options import MftiOptions
from repro.core.realization import svd_realization
from repro.core.sampling import minimal_sample_count
from repro.core.tangential import build_tangential_data
from repro.data import sample_scattering
from repro.data.dataset import FrequencyData
from repro.data.frequency import clustered_frequencies, linear_frequencies, log_frequencies
from repro.systems.interconnect import s_to_z, z_to_s
from repro.systems.random_systems import random_stable_system
from repro.utils.linalg import numerical_rank

from oracles import identity_directions, sylvester_residuals

# hypothesis settings shared by the heavier properties
_slow = settings(max_examples=12, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


class TestConversionProperties:
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.floats(min_value=1.0, max_value=200.0))
    @settings(max_examples=25, deadline=None)
    def test_z_s_roundtrip(self, n_ports, seed, z0):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n_ports, n_ports)) + 1j * rng.normal(size=(n_ports, n_ports))
        z = z + (5.0 + n_ports) * np.eye(n_ports)
        assert np.allclose(s_to_z(z_to_s(z, z0), z0), z, rtol=1e-8)

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_scattering_of_passive_resistive_network_is_contractive(self, n_ports, seed):
        """S-matrices of passive resistive Z (Re(Z) PSD) have spectral norm <= 1."""
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(n_ports, n_ports))
        z = g @ g.T + 1e-3 * np.eye(n_ports)  # symmetric positive definite => passive
        s = z_to_s(z)
        assert np.linalg.norm(s, 2) <= 1.0 + 1e-9


class TestFrequencyGridProperties:
    @given(st.floats(min_value=1e2, max_value=1e6), st.floats(min_value=2.0, max_value=1e4),
           st.integers(min_value=2, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_grids_sorted_and_in_band(self, f_min, ratio, count):
        f_max = f_min * ratio
        for grid in (linear_frequencies(f_min, f_max, count),
                     log_frequencies(f_min, f_max, count),
                     clustered_frequencies(f_min, f_max, count)):
            assert grid.size == count
            assert np.all(np.diff(grid) > 0) or count == 1
            assert grid[0] >= f_min * (1 - 1e-12)
            assert grid[-1] <= f_max * (1 + 1e-12)


class TestLinalgProperties:
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_numerical_rank_of_constructed_matrix(self, size, rank, seed):
        rank = min(rank, size)
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(rng.normal(size=(size, size)))[0]
        v = np.linalg.qr(rng.normal(size=(size, size)))[0]
        s = np.zeros(size)
        s[:rank] = np.linspace(1.0, 2.0, rank)
        matrix = u @ np.diag(s) @ v
        sv = np.linalg.svd(matrix, compute_uv=False)
        assert numerical_rank(sv) == rank


class TestDirectionProperties:
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_direction_generators_orthonormal(self, n_ports, block, count, seed):
        block = min(block, n_ports)
        identity = MftiOptions(direction_kind="identity")
        for generator in (lambda: generate_direction_sets(identity, n_ports, [block] * count,
                                                          [])[0],
                          lambda: orthonormal_directions(n_ports, block, count, seed=seed)):
            for d in generator():
                assert d.shape == (n_ports, block)
                assert np.allclose(d.T @ d, np.eye(block), atol=1e-10)


class TestSamplingTheoremProperties:
    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=40))
    @settings(max_examples=50, deadline=None)
    def test_bounds_are_ordered(self, order, ports, rank_d):
        rank_d = min(rank_d, ports)
        estimate = minimal_sample_count(order, ports, ports, rank_d=rank_d)
        assert estimate.lower_bound <= estimate.upper_bound
        assert estimate.lower_bound <= estimate.empirical <= estimate.upper_bound
        assert estimate.empirical <= estimate.vfti_requirement + rank_d
        # the sample saving kicks in for genuinely multi-port systems whose
        # order dominates the port count (for ports == 1 MFTI degenerates to VFTI)
        assert ports == 1 or estimate.saving_factor >= 1.0 or order <= ports + rank_d


class TestLoewnerProperties:
    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @_slow
    def test_pipeline_invariants(self, half_order, n_ports, seed):
        """For random systems and sample counts: Sylvester residuals vanish, the real
        transform keeps singular values, and the realization interpolates when the
        data is sufficient."""
        order = 2 * half_order
        system = random_stable_system(order=order, n_ports=n_ports, feedthrough=0.1,
                                      seed=seed % 10_000)
        n_samples = max(4, int(np.ceil((order + n_ports) / n_ports)) + 2)
        n_samples += n_samples % 2
        data = sample_scattering(system, log_frequencies(1e2, 1e5, n_samples))
        directions = identity_directions(n_ports, n_ports, n_samples)
        half = n_samples // 2
        tangential = build_tangential_data(
            data,
            right_directions=directions[:half],
            left_directions=directions[half:],
        )
        pencil = build_loewner_pencil(tangential)
        res1, res2 = sylvester_residuals(pencil, tangential)
        assert res1 < 1e-10 and res2 < 1e-10

        real_pencil = build_loewner_pencil(tangential, real=True)
        s_before = np.linalg.svd(pencil.shifted_loewner, compute_uv=False)
        s_after = np.linalg.svd(real_pencil.shifted_loewner, compute_uv=False)
        assert np.allclose(s_before, s_after, rtol=1e-8)

        model, _ = svd_realization(real_pencil, rank_method="tolerance", rank_tolerance=1e-10)
        response = model.frequency_response(data.frequencies_hz)
        err = np.linalg.norm(response - data.samples) / np.linalg.norm(data.samples)
        assert err < 1e-5


class TestFrequencyDataProperties:
    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_subset_and_decimate_preserve_content(self, k, ports, seed):
        rng = np.random.default_rng(seed)
        freqs = np.cumsum(rng.uniform(1.0, 10.0, size=k))
        samples = rng.normal(size=(k, ports, ports)) + 1j * rng.normal(size=(k, ports, ports))
        data = FrequencyData(freqs, samples)
        decimated = data.decimate(2)
        assert decimated.n_samples == int(np.ceil(k / 2))
        assert np.allclose(decimated.samples[0], data.samples[0])
        subset = data.subset(range(data.n_samples))
        assert np.allclose(subset.samples, data.samples)
