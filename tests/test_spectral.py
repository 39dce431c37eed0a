"""Tests for the batched spectral time-domain pathway and its metrics.

Three layers, mirroring the module's contract:

* **unit tests** -- grid construction, analytic impulse/step responses of a
  known pole, feed-through handling, batching, gridding edge cases;
* **differential tests** -- the FFT pathway against the trapezoidal
  integrator (:mod:`repro.systems.timedomain`) under grid refinement: the
  two independent discretisations must converge to each other;
* **hypothesis properties** -- Parseval energy consistency of the raw
  transform, gridded-vs-exact evaluation at non-uniform samples, and
  FFT-vs-integrator agreement over randomly drawn stable systems;

plus the golden-fixture regression (``tests/golden/golden_timedomain.json``,
regenerable with ``python tests/test_spectral.py --regenerate``).
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import FrequencyData
from repro.metrics.timedomain import (
    TIME_DOMAIN_METRIC_KEYS,
    TimeDomainSpec,
    delay_estimate,
    impulse_error_norms,
    ringing_ratio,
    time_domain_metrics,
)
from repro.systems.random_systems import random_stable_system
from repro.systems.spectral import (
    DEFAULT_OVERSAMPLE,
    DEFAULT_WINDOW,
    build_spectral_grid,
    batch_time_responses,
    evaluate_spectrum,
    grid_nonuniform_spectrum,
    impulse_from_spectrum,
    spectral_window,
    step_from_impulse,
)
from repro.systems.statespace import StateSpace
from repro.systems.timedomain import impulse_response, step_response

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "golden_timedomain.json")

#: The documented FFT-vs-integrator tolerance band (see README "Time domain"):
#: with the grid's Nyquist rate ten times the system band, step responses of
#: the two pathways agree within this fraction of the step scale -- the
#: difference is dominated by the trapezoidal integrator's accumulated phase
#: error at resonances, so it keeps shrinking as the grid refines (the
#: convergence half of the contract, asserted separately).
STEP_AGREEMENT_BAND = 5e-2
#: Minimum factor the FFT-vs-integrator difference must shrink by when the
#: time step is refined 4x.
REFINEMENT_GAIN = 1.8


def _banded_system(order, n_ports, seed):
    """Stable draw whose dynamics fit the differential-test grids: band
    1 kHz - 100 kHz (so a dt of 5e-7 s puts Nyquist at 10x the band top) and
    damping >= 0.1 (so tails decay inside the 8x periodization window)."""
    return random_stable_system(order=order, n_ports=n_ports, feedthrough=0.1,
                                freq_min_hz=1e3, freq_max_hz=1e5,
                                damping_min=0.1, seed=seed)


def _responses(model, t_final, n_points, *, oversample=DEFAULT_OVERSAMPLE,
               window=DEFAULT_WINDOW):
    """One model's ``(time, impulse, step)`` through the batched pathway."""
    grid = build_spectral_grid(t_final, n_points, oversample=oversample)
    impulse, step = batch_time_responses([model], grid, window=window)
    return grid.time, impulse[0], step[0]


@pytest.fixture
def lowpass():
    """H(s) = 1 / (s + 1): impulse exp(-t), step 1 - exp(-t)."""
    return StateSpace([[-1.0]], [[1.0]], [[1.0]])


# --------------------------------------------------------------------------- #
# grids
# --------------------------------------------------------------------------- #
class TestSpectralGrid:
    def test_grid_shapes_and_scales(self):
        grid = build_spectral_grid(1.0, 101, oversample=4)
        assert grid.n_points == 101
        assert grid.time[0] == 0.0 and grid.time[-1] == pytest.approx(1.0)
        assert grid.dt == pytest.approx(1.0 / 100)
        # next power of two above oversample * n_points
        assert grid.n_fft == 512
        assert grid.frequencies_hz.size == grid.n_fft // 2 + 1
        # rfft grid runs from DC to Nyquist of the time step
        assert grid.frequencies_hz[0] == 0.0
        assert grid.frequencies_hz[-1] == pytest.approx(0.5 / grid.dt)

    @pytest.mark.parametrize("kwargs", [
        {"t_final": 0.0, "n_points": 10},
        {"t_final": -1.0, "n_points": 10},
        {"t_final": 1.0, "n_points": 1},
        {"t_final": 1.0, "n_points": 2.5},
        {"t_final": 1.0, "n_points": 10, "oversample": 0},
        {"t_final": 1.0, "n_points": 10, "oversample": 1.5},
    ])
    def test_invalid_grid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            build_spectral_grid(**kwargs)

    def test_window_validation(self):
        grid = build_spectral_grid(1.0, 16)
        assert np.all(spectral_window(grid, "none") == 1.0)
        lanczos = spectral_window(grid, "lanczos")
        assert lanczos[0] == pytest.approx(1.0)
        assert 0.0 <= lanczos[-1] < 0.01
        with pytest.raises(ValueError):
            spectral_window(grid, "hann")

    def test_spectrum_shape_validation(self):
        grid = build_spectral_grid(1.0, 16)
        with pytest.raises(ValueError):
            impulse_from_spectrum(np.zeros((7, 1, 1), dtype=complex), grid)


# --------------------------------------------------------------------------- #
# analytic responses
# --------------------------------------------------------------------------- #
class TestAnalyticResponses:
    def test_impulse_matches_exponential(self, lowpass):
        time, impulse, _ = _responses(lowpass, t_final=5.0, n_points=501)
        expected = np.exp(-time)
        # the default Lanczos window smears the t = 0 jump over the first
        # couple of samples (its trade against Gibbs ringing); skip those
        assert np.max(np.abs(impulse[3:, 0, 0] - expected[3:])) < 5e-3

    def test_raw_transform_puts_half_jump_at_zero(self, lowpass):
        # without windowing, Fourier inversion converges to the jump
        # midpoint: the t = 0 sample carries h(0+) / 2
        _, impulse, _ = _responses(lowpass, t_final=5.0, n_points=501, window="none")
        assert impulse[0, 0, 0] == pytest.approx(0.5, abs=5e-2)

    def test_step_matches_analytic_with_feedthrough(self):
        # H(s) = 0.7 + 3 / (s + 2): step 0.7 + 1.5 (1 - exp(-2 t))
        sys_ = StateSpace([[-2.0]], [[1.0]], [[3.0]], [[0.7]])
        time, _, step = _responses(sys_, t_final=4.0, n_points=401)
        expected = 0.7 + 1.5 * (1.0 - np.exp(-2.0 * time))
        assert step[0, 0, 0] == pytest.approx(0.7)  # instantaneous feed-through
        assert np.max(np.abs(step[:, 0, 0] - expected)) < 1e-2

    def test_oversampling_suppresses_wraparound(self, lowpass):
        # a horizon much shorter than the decay makes periodization visible
        # in the tail; the oversampled transform must beat the critically
        # sampled one there (raw transform: the window is a separate knob)
        def tail_error(oversample):
            time, impulse, _ = _responses(
                lowpass, t_final=2.0, n_points=201, oversample=oversample,
                window="none")
            tail = time > 1.0
            return np.max(np.abs(impulse[tail, 0, 0] - np.exp(-time[tail])))

        assert tail_error(8) < 0.1 * tail_error(1)

    def test_batch_matches_single_model_path(self):
        systems = [random_stable_system(order=8, n_ports=2, seed=seed)
                   for seed in (1, 2, 3)]
        grid = build_spectral_grid(1e-4, 64)
        impulse, step = batch_time_responses(systems, grid)
        assert impulse.shape == (3, 64, 2, 2)
        assert step.shape == (3, 64, 2, 2)
        for k, system in enumerate(systems):
            spectrum = evaluate_spectrum(system, grid)
            single_imp = impulse_from_spectrum(
                spectrum * spectral_window(grid)[:, np.newaxis, np.newaxis], grid)
            single_step = step_from_impulse(single_imp, grid, feedthrough=system.D)
            np.testing.assert_array_equal(impulse[k], single_imp)
            np.testing.assert_array_equal(step[k], single_step)

    def test_batch_validation(self):
        grid = build_spectral_grid(1.0, 16)
        with pytest.raises(ValueError):
            batch_time_responses([], grid)
        mixed = [random_stable_system(order=4, n_ports=1, seed=0),
                 random_stable_system(order=4, n_ports=2, seed=0)]
        with pytest.raises(ValueError):
            batch_time_responses(mixed, grid)


# --------------------------------------------------------------------------- #
# differential: FFT pathway vs trapezoidal integrator under refinement
# --------------------------------------------------------------------------- #
class TestAgainstIntegrator:
    @staticmethod
    def _step_difference(system, n_points, t_final=2e-3):
        _, integrated = step_response(system, t_final=t_final, n_points=n_points)
        _, _, spectral = _responses(system, t_final=t_final, n_points=n_points)
        return float(np.max(np.abs(spectral[:, :, 0] - integrated)))

    def test_step_agreement_tightens_under_refinement(self, lowpass):
        coarse = self._step_difference(lowpass, 101, t_final=5.0)
        fine = self._step_difference(lowpass, 801, t_final=5.0)
        assert fine < coarse
        assert fine < 5e-3

    def test_impulse_agreement_on_fine_grid(self, lowpass):
        time, integrated = impulse_response(lowpass, t_final=5.0, n_points=2001)
        _, spectral, _ = _responses(lowpass, t_final=5.0, n_points=2001)
        peak = float(np.max(np.abs(integrated)))
        # both discretisations approximate the t = 0 jump differently
        # (discrete pulse vs half-jump); compare away from it
        diff = np.max(np.abs(spectral[5:, :, 0] - integrated[5:]))
        assert diff < 2e-2 * peak

    def test_resonant_difference_converges_under_refinement(self):
        """A lightly damped band-limited system: integrator phase error
        dominates the pathway difference and must shrink under refinement."""
        system = _banded_system(order=10, n_ports=2, seed=777)
        coarse = self._step_difference(system, 2001)
        fine = self._step_difference(system, 8001)
        assert fine * REFINEMENT_GAIN < coarse
        assert fine < STEP_AGREEMENT_BAND

    def test_mimo_step_agreement(self):
        system = _banded_system(order=20, n_ports=4, seed=3)
        t_final, n_points = 2e-3, 4001
        _, _, spectral = _responses(system, t_final, n_points)
        scale = max(float(np.max(np.abs(spectral))), 1.0)
        for input_index in range(system.n_inputs):
            _, integrated = step_response(system, t_final, n_points,
                                          input_index=input_index)
            diff = float(np.max(np.abs(spectral[:, :, input_index] - integrated)))
            assert diff < STEP_AGREEMENT_BAND * scale


# --------------------------------------------------------------------------- #
# NUFFT-style gridding
# --------------------------------------------------------------------------- #
class TestGridding:
    def test_gridding_matches_exact_evaluation_in_band(self, small_system):
        grid = build_spectral_grid(2e-4, 128)
        exact = evaluate_spectrum(small_system, grid)
        # dense non-uniform (log-spaced) samples covering the whole rfft band
        freqs = np.logspace(np.log10(grid.frequencies_hz[1] / 2),
                            np.log10(grid.frequencies_hz[-1]), 600)
        samples = small_system.frequency_response(freqs)
        gridded = grid_nonuniform_spectrum(freqs, samples, grid,
                                           feedthrough=small_system.D,
                                           taper_fraction=0.0)
        scale = float(np.max(np.abs(exact)))
        assert np.max(np.abs(gridded[1:] - exact[1:])) < 2e-2 * scale

    def test_grid_points_on_samples_are_exact(self, small_system):
        # sampling AT a subset of the rfft grid makes the linear kernel an
        # interpolation through the nodes: those grid points come back exact
        grid = build_spectral_grid(1e-4, 64)
        taken = grid.frequencies_hz[1::3]
        samples = small_system.frequency_response(taken)
        gridded = grid_nonuniform_spectrum(taken, samples, grid,
                                           feedthrough=small_system.D,
                                           taper_fraction=0.0)
        exact = evaluate_spectrum(small_system, grid)
        np.testing.assert_allclose(gridded[1::3], exact[1::3], rtol=1e-9, atol=1e-12)

    def test_unsorted_samples_are_sorted(self, lowpass):
        grid = build_spectral_grid(1.0, 32)
        freqs = np.linspace(0.01, grid.frequencies_hz[-1], 50)
        samples = lowpass.frequency_response(freqs)
        rng = np.random.default_rng(0)
        order = rng.permutation(freqs.size)
        shuffled = grid_nonuniform_spectrum(freqs[order], samples[order], grid)
        sorted_ = grid_nonuniform_spectrum(freqs, samples, grid)
        np.testing.assert_array_equal(shuffled, sorted_)

    def test_taper_rolls_band_edge_to_zero(self, lowpass):
        grid = build_spectral_grid(1.0, 32)
        f_hi = grid.frequencies_hz[-1] / 2
        freqs = np.linspace(0.01, f_hi, 40)
        samples = np.ones((40, 1, 1), dtype=complex)
        gridded = grid_nonuniform_spectrum(freqs, samples, grid, taper_fraction=0.2)
        band = grid.frequencies_hz <= f_hi
        # the last in-band grid point sits at the very band edge: tapered ~ 0
        assert abs(gridded[band][-1, 0, 0]) < abs(gridded[band][0, 0, 0]) * 0.2
        # everything above the band is exactly zero
        assert np.all(gridded[~band] == 0.0)

    def test_gridding_validation(self):
        grid = build_spectral_grid(1.0, 16)
        with pytest.raises(ValueError):
            grid_nonuniform_spectrum([1.0], np.ones((1, 1, 1)), grid)
        with pytest.raises(ValueError):
            grid_nonuniform_spectrum([1.0, 1.0], np.ones((2, 1, 1)), grid)
        with pytest.raises(ValueError):
            grid_nonuniform_spectrum([1.0, 2.0], np.ones((2, 1, 1)), grid,
                                     taper_fraction=1.0)
        with pytest.raises(ValueError):
            grid_nonuniform_spectrum([1.0, 2.0], np.ones((3, 1, 1)), grid)


# --------------------------------------------------------------------------- #
# time-domain metrics
# --------------------------------------------------------------------------- #
class TestTimeDomainMetrics:
    def test_self_comparison_is_zero_error(self, small_system):
        freqs = np.logspace(2, 6, 120)
        data = FrequencyData(freqs, small_system.frequency_response(freqs))
        metrics = time_domain_metrics(small_system, data,
                                      TimeDomainSpec(t_final=2e-4, n_points=96))
        assert set(metrics) == set(TIME_DOMAIN_METRIC_KEYS)
        assert metrics["impulse_l2"] == 0.0
        assert metrics["impulse_linf"] == 0.0
        assert metrics["step_l2"] == 0.0
        assert metrics["delay_error_seconds"] == 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TimeDomainSpec(t_final=0.0)
        with pytest.raises(ValueError):
            TimeDomainSpec(t_final=1.0, n_points=1)
        with pytest.raises(ValueError):
            TimeDomainSpec(t_final=1.0, oversample=0)
        with pytest.raises(ValueError):
            TimeDomainSpec(t_final=1.0, taper_fraction=1.0)

    def test_spec_canonical_items_are_stable(self):
        spec = TimeDomainSpec(t_final=0.5, n_points=64)
        items = spec.canonical_items()
        assert items == TimeDomainSpec(**spec.to_dict()).canonical_items()
        assert [key for key, _ in items] == sorted(spec.to_dict())

    def test_error_norms_shape_mismatch(self):
        with pytest.raises(ValueError):
            impulse_error_norms(np.zeros((4, 1, 1)), np.zeros((5, 1, 1)))

    def test_delay_estimate_sees_transport_delay(self):
        time = np.linspace(0.0, 1.0, 101)
        early = np.zeros((101, 1, 1))
        early[1] = 1.0
        late = np.zeros((101, 1, 1))
        late[60] = 1.0
        assert delay_estimate(time, early) < 0.05
        assert delay_estimate(time, late) == pytest.approx(0.6)
        assert delay_estimate(time, np.zeros((101, 1, 1))) == 0.0

    def test_ringing_ratio_flags_oscillating_tail(self):
        time = np.linspace(0.0, 1.0, 200)
        settled = np.ones((200, 1, 1))
        ringing = 1.0 + 0.3 * np.sin(40 * np.pi * time)[:, None, None]
        assert ringing_ratio(settled) == 0.0
        assert ringing_ratio(ringing) > 0.1


# --------------------------------------------------------------------------- #
# hypothesis properties
# --------------------------------------------------------------------------- #
class TestProperties:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), order=st.integers(2, 16))
    def test_parseval_energy_consistency(self, seed, order):
        """Raw (unwindowed) transform: frequency and time energies agree."""
        system = random_stable_system(order=order, n_ports=2, seed=seed)
        grid = build_spectral_grid(1e-4, 64)
        spectrum = evaluate_spectrum(system, grid)
        impulse = impulse_from_spectrum(spectrum, grid, crop=False)
        time_energy = grid.dt * np.sum(impulse**2, axis=0)
        # the rfft-grid sum over both half-axes; irfft keeps only the real
        # part of the DC and Nyquist bins (n_fft is a power of two)
        weights = np.full(spectrum.shape[0], 2.0)
        weights[[0, -1]] = 1.0
        magnitude2 = np.abs(spectrum) ** 2
        magnitude2[[0, -1]] = spectrum[[0, -1]].real ** 2
        df = 1.0 / (grid.n_fft * grid.dt)
        freq_energy = df * np.einsum("kpm,k->pm", magnitude2, weights)
        np.testing.assert_allclose(time_energy, freq_energy, rtol=1e-10, atol=1e-30)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_fft_integrator_agreement_random_systems(self, seed):
        """Pathway difference: inside the band at 4001 points, and shrinking
        under refinement, over randomly drawn band-limited stable systems."""
        system = _banded_system(order=10, n_ports=2, seed=seed)
        coarse = TestAgainstIntegrator._step_difference(system, 2001)
        fine = TestAgainstIntegrator._step_difference(system, 8001)
        assert fine * REFINEMENT_GAIN < coarse
        assert fine < STEP_AGREEMENT_BAND

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), stride=st.integers(2, 5))
    def test_gridded_vs_exact_at_node_frequencies(self, seed, stride):
        """Sampling at rfft nodes makes the linear gridding kernel exact there."""
        system = random_stable_system(order=6, n_ports=1, seed=seed)
        grid = build_spectral_grid(1e-4, 64)
        taken = grid.frequencies_hz[1::stride]
        samples = system.frequency_response(taken)
        gridded = grid_nonuniform_spectrum(taken, samples, grid,
                                           feedthrough=system.D,
                                           taper_fraction=0.0)
        exact = evaluate_spectrum(system, grid)
        np.testing.assert_allclose(gridded[1::stride], exact[1::stride],
                                   rtol=1e-9, atol=1e-12)


# --------------------------------------------------------------------------- #
# golden regression
# --------------------------------------------------------------------------- #
GOLDEN_RTOL = 1e-6


def _golden_cases():
    """Deterministic (system, spec) cases pinned by the golden fixture."""
    cases = {}
    for name, seed, order in (("siso-6", 11, 6), ("mimo-10", 23, 10)):
        n_ports = 1 if name.startswith("siso") else 2
        system = random_stable_system(order=order, n_ports=n_ports,
                                      feedthrough=0.1, seed=seed)
        cases[name] = system
    return cases


def _golden_payload():
    payload = {}
    for name, system in _golden_cases().items():
        t_final, n_points = 2e-4, 48
        _, impulse, step = _responses(system, t_final, n_points)
        freqs = np.logspace(2, 6, 80)
        data = FrequencyData(freqs, system.frequency_response(freqs))
        metrics = time_domain_metrics(
            system, data, TimeDomainSpec(t_final=t_final, n_points=n_points))
        payload[name] = {
            "impulse_00": impulse[:, 0, 0].tolist(),
            "step_00": step[:, 0, 0].tolist(),
            "metrics": metrics,
        }
    return payload


class TestGoldenTimedomain:
    def test_against_golden_fixture(self):
        if not os.path.exists(GOLDEN_PATH):
            pytest.fail(
                f"golden fixture missing; run: python {os.path.relpath(__file__)} "
                "--regenerate"
            )
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            golden = json.load(handle)
        payload = _golden_payload()
        assert set(payload) == set(golden)
        for name, expected in golden.items():
            actual = payload[name]
            np.testing.assert_allclose(actual["impulse_00"], expected["impulse_00"],
                                       rtol=GOLDEN_RTOL, atol=1e-12)
            np.testing.assert_allclose(actual["step_00"], expected["step_00"],
                                       rtol=GOLDEN_RTOL, atol=1e-12)
            for key in TIME_DOMAIN_METRIC_KEYS:
                assert actual["metrics"][key] == pytest.approx(
                    expected["metrics"][key], rel=1e-4, abs=1e-12)


def regenerate():
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(_golden_payload(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print("usage: python tests/test_spectral.py --regenerate")
