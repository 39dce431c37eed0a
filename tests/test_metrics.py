"""Tests for :mod:`repro.metrics`."""

import numpy as np
import pytest

from repro.core import mfti
from repro.metrics.errors import (
    aggregate_error,
    model_errors,
    relative_error_per_frequency,
)
from repro.metrics.validation import validate_model


class TestErrorMetrics:
    def test_zero_error_for_identical(self, small_data):
        errors = relative_error_per_frequency(small_data.samples, small_data.samples)
        assert np.allclose(errors, 0.0)
        assert aggregate_error(small_data.samples, small_data.samples) == 0.0

    def test_known_relative_error(self):
        reference = np.stack([np.eye(2)])
        model = np.stack([np.eye(2) * 1.1])
        errors = relative_error_per_frequency(model, reference)
        assert errors[0] == pytest.approx(0.1)

    def test_spectral_norm_used(self):
        """The per-frequency error is based on the matrix 2-norm, not Frobenius."""
        reference = np.stack([np.eye(2)])
        perturbation = np.array([[0.1, 0.0], [0.0, 0.1]])
        errors = relative_error_per_frequency(reference + perturbation, reference)
        assert errors[0] == pytest.approx(0.1)  # Frobenius would give 0.1*sqrt(2)

    def test_zero_reference_falls_back_to_absolute(self):
        reference = np.zeros((1, 2, 2))
        model = np.stack([np.eye(2)])
        assert relative_error_per_frequency(model, reference)[0] == pytest.approx(1.0)

    def test_aggregate_is_rms_of_per_frequency(self):
        reference = np.stack([np.eye(2), np.eye(2)])
        model = np.stack([np.eye(2) * 1.1, np.eye(2) * 0.9])
        agg = aggregate_error(model, reference)
        assert agg == pytest.approx(0.1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            relative_error_per_frequency(np.zeros((1, 2, 2)), np.zeros((2, 2, 2)))

    def test_2d_samples_promoted(self):
        assert relative_error_per_frequency(np.eye(2), np.eye(2)).shape == (1,)

    def test_model_errors_helper(self, small_system, small_data):
        errors = model_errors(small_system, small_data)
        assert np.allclose(errors, 0.0, atol=1e-12)


class TestValidation:
    def test_validate_true_system_is_perfect(self, small_system, small_data):
        report = validate_model(small_system, small_data)
        assert report.aggregate_error < 1e-12
        assert report.max_error < 1e-12
        assert report.is_stable
        assert report.order == small_system.order
        assert "stable" in report.summary()

    def test_validate_recovered_model(self, small_data, dense_data):
        result = mfti(small_data)
        report = validate_model(result.system, dense_data)
        assert report.aggregate_error < 1e-8
        assert report.per_frequency_error.shape == (dense_data.n_samples,)

    def test_skip_stability_check(self, small_system, small_data):
        report = validate_model(small_system, small_data, check_stability=False)
        assert np.isnan(report.spectral_abscissa)
        assert not report.is_stable  # nan compares False against 0
