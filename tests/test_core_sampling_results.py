"""Tests for Theorem 3.5 helpers and the result value objects."""

import numpy as np
import pytest

from repro.core import mfti
from repro.core.results import RecursiveDiagnostics, RecursiveIteration
from repro.core.sampling import minimal_sample_count


class TestMinimalSampleCount:
    def test_empirical_value_matches_theorem(self):
        estimate = minimal_sample_count(150, 30, 30, rank_d=30)
        assert estimate.empirical == 6  # (150 + 30) / 30
        assert estimate.lower_bound == 5
        assert estimate.upper_bound == 6
        assert estimate.vfti_requirement == 150
        assert estimate.saving_factor == pytest.approx(25.0)

    def test_rectangular_uses_min_dimension(self):
        estimate = minimal_sample_count(20, 4, 10, rank_d=0)
        assert estimate.empirical == 5

    def test_block_size_rescales(self):
        full = minimal_sample_count(24, 6, 6, rank_d=0)
        half = minimal_sample_count(24, 6, 6, rank_d=0, block_size=3)
        assert full.empirical == 4
        assert half.empirical == 8

    def test_block_size_bounds(self):
        with pytest.raises(ValueError):
            minimal_sample_count(10, 4, 4, block_size=5)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            minimal_sample_count(0, 2, 2)
        with pytest.raises(ValueError):
            minimal_sample_count(10, 2, 2, rank_d=-1)


class TestMacromodelResult:
    def test_errors_and_aggregate(self, small_data, dense_data):
        result = mfti(small_data)
        errors = result.errors_against(dense_data)
        assert errors.shape == (dense_data.n_samples,)
        agg = result.aggregate_error(dense_data)
        assert agg == pytest.approx(float(np.linalg.norm(errors) / np.sqrt(errors.size)))

    def test_frequency_response_shape(self, small_data):
        result = mfti(small_data)
        response = result.frequency_response([1e2, 1e3])
        assert response.shape == (2, 4, 4)

    def test_order_property(self, small_data):
        result = mfti(small_data)
        assert result.order == result.system.order

    def test_summary_mentions_method(self, small_data):
        assert "mfti" in mfti(small_data).summary()


class TestRecursiveDiagnostics:
    def _history(self):
        return (
            RecursiveIteration(0, 4, 20, 1e-1, 2e-1),
            RecursiveIteration(1, 8, 30, 1e-3, 2e-3),
        )

    def test_properties(self):
        diag = RecursiveDiagnostics(iterations=self._history(), converged=True, threshold=1e-2)
        assert diag.n_iterations == 2
