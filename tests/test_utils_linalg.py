"""Tests for :mod:`repro.utils.linalg`."""

import numpy as np
import pytest

from repro.utils.linalg import (
    block_diag,
    economic_svd,
    numerical_rank,
    rank_from_gap,
    realify,
    singular_value_gaps,
    spectral_norms,
)


class TestBlockDiag:
    def test_two_blocks(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0]])
        out = block_diag([a, b])
        assert out.shape == (3, 3)
        assert np.allclose(out[:2, :2], a)
        assert out[2, 2] == 5.0
        assert np.allclose(out[:2, 2], 0.0)

    def test_rectangular_blocks(self):
        out = block_diag([np.ones((2, 3)), np.ones((1, 2))])
        assert out.shape == (3, 5)

    def test_complex_dtype_preserved(self):
        out = block_diag([np.eye(2), 1j * np.eye(2)])
        assert np.iscomplexobj(out)

    def test_empty_sequence(self):
        out = block_diag([])
        assert out.shape == (0, 0)

    def test_one_dimensional_block_treated_as_row(self):
        out = block_diag([np.array([1.0, 2.0])])
        assert out.shape == (1, 2)


class TestEconomicSvd:
    def test_reconstruction(self, rng):
        matrix = rng.normal(size=(6, 4))
        u, s, vh = economic_svd(matrix)
        assert np.allclose(u @ np.diag(s) @ vh, matrix)

    def test_sorted_descending(self, rng):
        matrix = rng.normal(size=(5, 5))
        _, s, _ = economic_svd(matrix)
        assert np.all(np.diff(s) <= 1e-12)


class TestRankDetection:
    def test_numerical_rank_exact(self):
        s = np.array([1.0, 0.5, 1e-14])
        assert numerical_rank(s, rtol=1e-10) == 2

    def test_numerical_rank_empty(self):
        assert numerical_rank(np.array([])) == 0

    def test_gap_detection(self):
        s = np.array([10.0, 5.0, 2.0, 1e-10, 1e-11])
        assert rank_from_gap(s) == 3

    def test_gap_detection_no_gap_returns_full(self):
        s = np.array([4.0, 3.0, 2.0, 1.0])
        assert rank_from_gap(s) == 4

    def test_singular_value_gaps(self):
        s = np.array([8.0, 4.0, 1.0])
        gaps = singular_value_gaps(s)
        assert np.allclose(gaps, [2.0, 4.0])

    def test_singular_value_gaps_requires_1d(self):
        with pytest.raises(ValueError):
            singular_value_gaps(np.eye(2))


class TestRealify:
    def test_complex_least_squares_with_real_unknowns(self, rng):
        """``[Re A; Im A] x = [Re b; Im b]`` recovers the real ``x`` of ``A x = b``."""
        a = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        x = rng.normal(size=(3, 1))
        stacked = realify(a)
        assert stacked.shape == (16, 3) and stacked.dtype == np.float64
        assert np.array_equal(stacked[:8], a.real) and np.array_equal(stacked[8:], a.imag)
        solution = np.linalg.lstsq(stacked, realify(a @ x), rcond=None)[0]
        np.testing.assert_allclose(solution, x, rtol=1e-12, atol=1e-12)


def _svd_norms(stack):
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def _random_stack(rng, shape, dtype):
    stack = rng.normal(size=shape)
    if dtype is complex:
        stack = stack + 1j * rng.normal(size=shape)
    return stack


class TestSpectralNorms:
    # smaller side 1, 2, 3 and 14, each wide, tall and (where possible) square
    SHAPES = [(1, 1), (1, 6), (6, 1), (2, 2), (2, 7), (7, 2), (3, 3), (3, 8), (8, 3),
              (14, 14), (14, 20), (20, 14)]

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_svd(self, rng, shape, dtype):
        stack = _random_stack(rng, (25, *shape), dtype)
        np.testing.assert_allclose(spectral_norms(stack), _svd_norms(stack), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("shape", [(1, 4), (2, 2), (5, 2), (3, 3), (3, 7), (14, 14)])
    def test_slices_scaled_from_1e_minus_300_to_1e300(self, rng, shape, dtype):
        scales = np.repeat([1e-300, 1.0, 1e300], 4)
        stack = _random_stack(rng, (scales.size, *shape), dtype) * scales[:, None, None]
        norms = spectral_norms(stack)
        np.testing.assert_allclose(norms, _svd_norms(stack), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (14, 14)])
    def test_zero_slices_give_zero(self, rng, shape):
        stack = _random_stack(rng, (4, *shape), complex)
        stack[[0, 2]] = 0.0
        norms = spectral_norms(stack)
        assert norms[0] == 0.0 and norms[2] == 0.0
        np.testing.assert_allclose(norms[[1, 3]], _svd_norms(stack[[1, 3]]), rtol=1e-13)

    def test_empty_stack(self):
        assert spectral_norms(np.empty((0, 3, 3), dtype=complex)).shape == (0,)

    def test_rejects_a_non_stack(self):
        with pytest.raises(ValueError, match="stack"):
            spectral_norms(np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
    def test_non_finite_entry_raises_naming_the_count(self, rng, bad):
        stack = _random_stack(rng, (4, 2, 3), complex)
        stack[2, 1, 0] = bad
        with pytest.raises(np.linalg.LinAlgError, match="1 of 4 matrices hold non-finite"):
            spectral_norms(stack)

    def test_bitwise_equal_under_one_and_four_blas_threads(self, rng, openblas_threads):
        get_threads, set_threads = openblas_threads
        stacks = [_random_stack(rng, (200, *shape), complex)
                  for shape in [(2, 2), (3, 3), (4, 9), (14, 14)]]
        previous = get_threads()
        try:
            set_threads(1)
            single = [spectral_norms(stack) for stack in stacks]
            set_threads(4)
            multi = [spectral_norms(stack) for stack in stacks]
        finally:
            set_threads(previous)
        for one, four in zip(single, multi):
            assert one.tobytes() == four.tobytes()
