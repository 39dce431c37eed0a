"""Tests for :mod:`repro.utils.validation` and :mod:`repro.utils.rng`."""

import numpy as np
import pytest

from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_finite,
    check_nonnegative_integer,
    check_positive_integer,
    check_square,
    ensure_1d,
    ensure_2d,
)


class TestIntegerChecks:
    def test_positive_integer_ok(self):
        assert check_positive_integer(np.int64(4), "n") == 4

    def test_positive_integer_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_integer(0, "n")

    def test_positive_integer_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_integer(True, "n")

    def test_positive_integer_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_integer(2.0, "n")

    def test_nonnegative_accepts_zero(self):
        assert check_nonnegative_integer(0, "n") == 0

    def test_nonnegative_rejects_negative(self):
        with pytest.raises(ValueError):
            check_nonnegative_integer(-1, "n")


class TestFinite:
    def test_check_finite_rejects_nan(self):
        with pytest.raises(ValueError):
            check_finite(np.array([1.0, np.nan]), "x")

    def test_check_finite_rejects_inf(self):
        with pytest.raises(ValueError):
            check_finite(np.array([np.inf]), "x")


class TestArrayCoercion:
    def test_ensure_1d_from_scalar(self):
        assert ensure_1d(3.0, "x").shape == (1,)

    def test_ensure_1d_rejects_matrix(self):
        with pytest.raises(ValueError):
            ensure_1d(np.eye(2), "x")

    def test_ensure_1d_coerces_to_the_requested_dtype(self):
        assert ensure_1d([1, 2], "x", dtype=float).dtype == np.float64
        with pytest.raises(TypeError):
            ensure_1d([1.0 + 1.0j], "x", dtype=float)

    def test_ensure_2d_from_vector(self):
        assert ensure_2d([1.0, 2.0], "x").shape == (1, 2)

    def test_ensure_2d_from_scalar(self):
        assert ensure_2d(5.0, "x").shape == (1, 1)

    def test_ensure_2d_rejects_3d(self):
        with pytest.raises(ValueError):
            ensure_2d(np.zeros((2, 2, 2)), "x")

    def test_check_square(self):
        assert check_square(np.eye(3), "m").shape == (3, 3)
        with pytest.raises(ValueError):
            check_square(np.ones((2, 3)), "m")


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_seed_reproducible(self):
        a = ensure_rng(42).normal(size=5)
        b = ensure_rng(42).normal(size=5)
        assert np.allclose(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_invalid_seed_type(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")
