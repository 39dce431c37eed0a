"""Tests for the vector-fitting baseline (:mod:`repro.vectorfitting`)."""

import numpy as np
import pytest

from repro.data import log_frequencies, sample_scattering
from repro.metrics import aggregate_error
from repro.systems.random_systems import random_stable_system
from repro.vectorfitting.fitting import vector_fit
from repro.vectorfitting.passivity import (
    immittance_margins,
    passivity_violations,
    scattering_margins,
)
from repro.vectorfitting.poles import initial_poles
from repro.vectorfitting.rational import PoleResidueModel

from oracles import passivity_violations_reference


class TestInitialPoles:
    def test_count_and_pairing(self):
        poles = initial_poles(6, 1e3, 1e6)
        assert poles.size == 6
        assert np.allclose(poles[0::2], np.conj(poles[1::2]))

    def test_odd_count_gets_real_pole(self):
        poles = initial_poles(5, 1e3, 1e6)
        assert np.sum(np.abs(poles.imag) < 1e-12) == 1

    def test_all_stable(self):
        assert np.all(initial_poles(10, 1e2, 1e8).real < 0)

    def test_band_coverage(self):
        poles = initial_poles(8, 1e3, 1e6)
        imag = np.abs(poles.imag[poles.imag != 0])
        assert imag.min() == pytest.approx(2 * np.pi * 1e3)
        assert imag.max() == pytest.approx(2 * np.pi * 1e6)

    def test_log_spacing_option(self):
        poles = initial_poles(8, 1e2, 1e8, spacing="log")
        imag = np.sort(np.abs(poles.imag[poles.imag > 0]))
        ratios = imag[1:] / imag[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-6)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            initial_poles(4, 1e6, 1e3)
        with pytest.raises(ValueError):
            initial_poles(4, 1e3, 1e6, spacing="geometric")


class TestPoleResidueModel:
    def test_evaluation_matches_definition(self):
        poles = np.array([-1.0 + 2.0j, -1.0 - 2.0j])
        residue = np.array([[0.5 + 0.25j]])
        residues = np.stack([residue, residue.conj()])
        model = PoleResidueModel(poles, residues, d=[[0.1]])
        s = 1j * 3.0
        expected = residue / (s - poles[0]) + residue.conj() / (s - poles[1]) + 0.1
        assert np.allclose(model.transfer_function(s), expected)
        assert np.allclose(model(s), expected)

    def test_frequency_response_shape(self):
        poles = np.array([-10.0])
        residues = np.ones((1, 2, 3))
        model = PoleResidueModel(poles, residues)
        assert model.frequency_response([1.0, 2.0, 3.0]).shape == (3, 2, 3)
        assert model.n_outputs == 2
        assert model.n_inputs == 3
        assert model.order == 1

    def test_stability_flag(self):
        stable = PoleResidueModel(np.array([-1.0]), np.ones((1, 1, 1)))
        unstable = PoleResidueModel(np.array([1.0]), np.ones((1, 1, 1)))
        assert stable.is_stable
        assert not unstable.is_stable

    def test_to_statespace_matches_rational_form(self):
        poles = np.array([-5.0, -1.0 + 4.0j, -1.0 - 4.0j])
        rng = np.random.default_rng(0)
        r_real = rng.normal(size=(1, 2, 2))
        r_complex = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        residues = np.concatenate([r_real, [r_complex], [r_complex.conj()]])
        model = PoleResidueModel(poles, residues, d=rng.normal(size=(2, 2)))
        ss = model.to_statespace()
        freqs = np.array([0.1, 1.0, 3.0])
        assert np.allclose(ss.frequency_response(freqs), model.frequency_response(freqs),
                           atol=1e-10)

    def test_unpaired_complex_pole_rejected_in_conversion(self):
        model = PoleResidueModel(np.array([-1.0 + 1j]), np.ones((1, 1, 1)))
        with pytest.raises(ValueError):
            model.to_statespace()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PoleResidueModel(np.array([-1.0, -2.0]), np.ones((1, 2, 2)))
        with pytest.raises(ValueError):
            PoleResidueModel(np.array([-1.0]), np.ones((1, 2, 2)), d=np.ones((3, 3)))


class TestVectorFit:
    @pytest.fixture(scope="class")
    def workload(self):
        system = random_stable_system(order=12, n_ports=2, feedthrough=0.1, seed=31)
        freqs = log_frequencies(1e1, 1e5, 60)
        data = sample_scattering(system, freqs)
        return system, data

    def test_fit_accuracy_with_enough_poles(self, workload):
        system, data = workload
        result = vector_fit(data, n_poles=14, n_iterations=8)
        response = result.frequency_response(data.frequencies_hz)
        assert aggregate_error(response, data.samples) < 1e-4
        assert result.model.is_stable

    def test_more_poles_improve_or_match_accuracy(self, workload):
        _, data = workload
        few = vector_fit(data, n_poles=6, n_iterations=6)
        many = vector_fit(data, n_poles=14, n_iterations=6)
        err_few = aggregate_error(few.frequency_response(data.frequencies_hz), data.samples)
        err_many = aggregate_error(many.frequency_response(data.frequencies_hz), data.samples)
        assert err_many <= err_few

    def test_result_metadata(self, workload):
        _, data = workload
        result = vector_fit(data, n_poles=10, n_iterations=4)
        assert result.n_poles == 10
        assert result.order == 10
        assert 1 <= result.n_iterations <= 4
        assert len(result.pole_history) == result.n_iterations
        assert result.elapsed_seconds > 0
        assert "vector-fitting" in result.summary()

    def test_starting_poles_respected(self, workload):
        _, data = workload
        start = initial_poles(8, 1e1, 1e5)
        result = vector_fit(data, n_poles=8, starting_poles=start, n_iterations=3)
        assert result.n_poles == 8

    def test_invalid_arguments(self, workload):
        _, data = workload
        with pytest.raises(ValueError):
            vector_fit(data, n_poles=0)
        with pytest.raises(ValueError):
            vector_fit(data, n_poles=4, starting_poles=initial_poles(6, 1e1, 1e5))

    def test_siso_fit(self, siso_system):
        data = sample_scattering(siso_system, log_frequencies(1e1, 1e5, 40))
        result = vector_fit(data, n_poles=8, n_iterations=8)
        err = aggregate_error(result.frequency_response(data.frequencies_hz), data.samples)
        assert err < 1e-5


class TestPassivity:
    def test_contractive_model_is_passive(self):
        model = PoleResidueModel(np.array([-10.0]), 0.01 * np.ones((1, 1, 1)), d=[[0.5]])
        freqs = np.logspace(-1, 2, 50)
        assert passivity_violations(model, freqs, representation="S") == []

    def test_violation_detected(self):
        model = PoleResidueModel(np.array([-1.0]), np.ones((1, 1, 1)) * 5.0, d=[[0.9]])
        freqs = np.logspace(-2, 1, 50)
        violations = passivity_violations(model, freqs, representation="S")
        assert violations
        assert violations[0].metric > 1.0

    def test_immittance_check(self):
        passive = PoleResidueModel(np.array([-1.0]), np.ones((1, 1, 1)), d=[[1.0]])
        freqs = np.logspace(-1, 1, 20)
        assert passivity_violations(passive, freqs, representation="Z") == []

    def test_invalid_representation(self):
        model = PoleResidueModel(np.array([-1.0]), np.ones((1, 1, 1)))
        with pytest.raises(ValueError):
            passivity_violations(model, [1.0], representation="T")
        with pytest.raises(ValueError):
            passivity_violations_reference(model, [1.0], representation="T")


class TestBatchedPassivityKernel:
    """The stacked SVD / eigvalsh path against the per-frequency oracle."""

    def _mimo_model(self, seed=0, n_ports=3):
        system = random_stable_system(order=12, n_ports=n_ports,
                                      feedthrough=0.4, seed=seed)
        return system

    @pytest.mark.parametrize("representation", ["S", "Z"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_violations_match_reference_loop(self, representation, seed):
        model = self._mimo_model(seed=seed)
        freqs = np.logspace(0, 6, 80)
        fast = passivity_violations(model, freqs, representation=representation,
                                    tolerance=1e-8)
        slow = passivity_violations_reference(model, freqs,
                                              representation=representation,
                                              tolerance=1e-8)
        assert len(fast) == len(slow)
        for a, b in zip(fast, slow):
            assert a.frequency_hz == b.frequency_hz
            assert a.metric == pytest.approx(b.metric, rel=1e-12, abs=1e-14)

    def test_scattering_margins_match_per_matrix_norms(self):
        model = self._mimo_model(seed=5)
        freqs = np.logspace(0, 6, 40)
        response = np.asarray(model.frequency_response(freqs))
        margins = scattering_margins(response)
        expected = np.array([np.linalg.norm(matrix, 2) for matrix in response])
        np.testing.assert_allclose(margins, expected, rtol=1e-12)

    def test_immittance_margins_match_per_matrix_eigs(self):
        model = self._mimo_model(seed=6)
        freqs = np.logspace(0, 6, 40)
        response = np.asarray(model.frequency_response(freqs))
        margins = immittance_margins(response)
        expected = np.array([
            np.min(np.linalg.eigvalsh(0.5 * (matrix + matrix.conj().T)))
            for matrix in response
        ])
        np.testing.assert_allclose(margins, expected, rtol=1e-12, atol=1e-14)

    def test_empty_sweep(self):
        assert scattering_margins(np.empty((0, 2, 2))).size == 0
        assert immittance_margins(np.empty((0, 2, 2))).size == 0

    def test_non_finite_response_raises_instead_of_a_nan_margin(self):
        # a NaN margin compares False, so it would hide a violation
        response = np.ones((3, 2, 2), dtype=complex)
        response[1, 0, 1] = np.inf
        with pytest.raises(np.linalg.LinAlgError, match="1 of 3 matrices hold non-finite"):
            scattering_margins(response)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            scattering_margins(np.ones((2, 2)))
        with pytest.raises(ValueError):
            immittance_margins(np.ones((3, 2, 3)))  # non-square
