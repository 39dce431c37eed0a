"""Tests for :mod:`repro.systems.analysis`."""

import numpy as np
import pytest

from repro.systems.analysis import finite_poles, is_stable, poles, spectral_abscissa
from repro.systems.statespace import DescriptorSystem, StateSpace


@pytest.fixture
def two_pole_system():
    """Two real poles at -1 and -3."""
    return StateSpace(np.diag([-1.0, -3.0]), [[1.0], [1.0]], [[1.0, 1.0]])


class TestPoles:
    def test_explicit_poles(self, two_pole_system):
        p = np.sort(finite_poles(two_pole_system).real)
        assert np.allclose(p, [-3.0, -1.0])

    def test_descriptor_infinite_pole(self):
        # singular E produces an infinite eigenvalue
        e = np.diag([1.0, 0.0])
        a = np.diag([-1.0, -1.0])
        sys_ = DescriptorSystem(e, a, np.ones((2, 1)), np.ones((1, 2)))
        all_poles = poles(sys_)
        assert np.sum(np.isinf(all_poles)) == 1
        assert np.allclose(finite_poles(sys_), [-1.0])

    def test_descriptor_poles_match_the_explicit_form(self, small_system, rng):
        # an invertible E: (T E, T A, T B, C) keeps the poles of (E, A, B, C)
        n = small_system.order
        t = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        descriptor = DescriptorSystem(t @ small_system.E, t @ small_system.A,
                                      t @ small_system.B, small_system.C, small_system.D)
        expected = finite_poles(small_system)
        found = finite_poles(descriptor)
        assert found.shape == expected.shape
        distance = np.min(np.abs(found[:, None] - expected[None, :]), axis=0)
        assert np.all(distance <= 1e-8 * np.abs(expected))
        assert is_stable(descriptor)
        assert spectral_abscissa(descriptor) == pytest.approx(spectral_abscissa(small_system),
                                                              rel=1e-8)

    def test_random_system_is_stable(self, small_system):
        assert is_stable(small_system)
        assert spectral_abscissa(small_system) < 0

    def test_spectral_abscissa_matches_max_real(self, two_pole_system):
        assert spectral_abscissa(two_pole_system) == pytest.approx(-1.0)

    def test_unstable_detected(self):
        sys_ = StateSpace([[1.0]], [[1.0]], [[1.0]])
        assert not is_stable(sys_)
