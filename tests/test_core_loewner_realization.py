"""Tests for the Loewner pencil assembly and the realization lemmas."""

import numpy as np
import pytest

from repro.core import run_fit
from repro.core.directions import identity_directions
from repro.core.loewner import build_loewner_pencil, sylvester_residuals
from repro.core.realization import (
    direct_realization,
    real_transform_matrix,
    svd_realization,
    to_real_data,
)
from repro.core.tangential import build_tangential_data
from repro.data import sample_scattering
from repro.data.frequency import log_frequencies
from repro.systems.random_systems import random_stable_system

from oracles import real_transform_matrix_reference


@pytest.fixture(scope="module")
def setup():
    """System, sampled data and full-block tangential data for the Loewner tests."""
    system = random_stable_system(order=14, n_ports=3, feedthrough=0.2, seed=21)
    data = sample_scattering(system, log_frequencies(1e2, 1e5, 8))
    directions = identity_directions(3, 3, 4, offset_stride=False)
    tangential = build_tangential_data(
        data, right_directions=directions, left_directions=directions,
    )
    pencil = build_loewner_pencil(tangential)
    return system, data, tangential, pencil


class TestLoewnerPencil:
    def test_shapes(self, setup):
        _, _, tangential, pencil = setup
        assert pencil.loewner.shape == (tangential.k_left, tangential.k_right)
        assert pencil.shifted_loewner.shape == pencil.loewner.shape
        assert pencil.is_square
        assert pencil.n_inputs == 3
        assert pencil.n_outputs == 3

    def test_sylvester_equations_hold(self, setup):
        """Eq. (13): the assembled pencil satisfies both Sylvester equations."""
        _, _, tangential, pencil = setup
        res_l, res_sl = sylvester_residuals(pencil, tangential)
        assert res_l < 1e-12
        assert res_sl < 1e-12

    def test_rank_bound_of_lemma_33(self, setup):
        """Lemma 3.3: rank(x*L - sL) <= order + rank(D)."""
        system, _, _, pencil = setup
        bound = system.order + np.linalg.matrix_rank(system.D)
        for x in pencil.sample_points[:3]:
            rank = np.linalg.matrix_rank(pencil.shifted_pencil(x), tol=1e-8)
            assert rank <= bound

    def test_singular_value_profiles(self, setup):
        _, _, _, pencil = setup
        profiles = pencil.singular_values()
        assert set(profiles) == {"loewner", "shifted_loewner", "pencil"}
        for values in profiles.values():
            assert np.all(np.diff(values) <= 1e-12)

    def test_augmented_matrices(self, setup):
        _, _, _, pencil = setup
        assert pencil.augmented_row_matrix().shape == (pencil.k_left, 2 * pencil.k_right)
        assert pencil.augmented_column_matrix().shape == (2 * pencil.k_left, pencil.k_right)


class TestRealTransform:
    def test_transform_matrix_is_unitary(self):
        t = real_transform_matrix((2, 2, 1, 1))
        assert t.shape == (6, 6)
        assert np.allclose(t.conj().T @ t, np.eye(6), atol=1e-12)

    def test_transform_matrix_validation(self):
        with pytest.raises(ValueError):
            real_transform_matrix((2, 1))
        with pytest.raises(ValueError):
            real_transform_matrix((2, 2, 1))
        with pytest.raises(ValueError,
                           match=r"conjugate pair 2 has mismatched block sizes \(3, 2\)"):
            real_transform_matrix((2, 2, 1, 1, 3, 2))

    @pytest.mark.parametrize("sizes", [(3, 3, 1, 1, 2, 2, 1, 1), (1, 1), (2, 2, 2, 2, 4, 4)])
    def test_transform_matrix_equals_per_pair_oracle_bitwise(self, sizes):
        got = real_transform_matrix(sizes)
        want = real_transform_matrix_reference(sizes)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_real_transform_produces_real_pencil(self, setup):
        _, _, _, pencil = setup
        real_pencil = to_real_data(pencil)
        assert real_pencil.is_real
        for matrix in (real_pencil.loewner, real_pencil.shifted_loewner,
                       real_pencil.W, real_pencil.V):
            assert not np.iscomplexobj(matrix) or np.max(np.abs(matrix.imag)) == 0

    def test_real_transform_preserves_singular_values(self, setup):
        _, _, _, pencil = setup
        real_pencil = to_real_data(pencil)
        s_complex = np.linalg.svd(pencil.loewner, compute_uv=False)
        s_real = np.linalg.svd(real_pencil.loewner, compute_uv=False)
        assert np.allclose(s_complex, s_real, rtol=1e-9)

    def test_real_transform_idempotent(self, setup):
        _, _, _, pencil = setup
        real_pencil = to_real_data(pencil)
        assert to_real_data(real_pencil) is real_pencil

    def test_real_transform_rejects_non_symmetric_data(self, setup):
        """Without conjugate blocks the transform cannot produce real matrices."""
        system, data, _, _ = setup
        directions = identity_directions(3, 3, 4, offset_stride=False)
        tangential = build_tangential_data(
            data, right_directions=directions, left_directions=directions,
            include_conjugates=False,
        )
        pencil = build_loewner_pencil(tangential)
        with pytest.raises(ValueError):
            to_real_data(pencil)


class TestRealizations:
    def test_svd_realization_recovers_system(self, setup):
        """Lemma 3.4: the projected realization reproduces the transfer function."""
        system, data, _, pencil = setup
        real_pencil = to_real_data(pencil)
        model, diag = svd_realization(real_pencil)
        expected_order = system.order + np.linalg.matrix_rank(system.D)
        assert diag.order == expected_order
        freqs = log_frequencies(1e2, 1e5, 30)
        reference = system.frequency_response(freqs)
        response = model.frequency_response(freqs)
        err = np.linalg.norm(response - reference) / np.linalg.norm(reference)
        assert err < 1e-8
        assert model.is_real

    def test_pencil_mode_realization(self, setup):
        system, _, _, pencil = setup
        model, diag = svd_realization(pencil, mode="pencil")
        assert diag.mode == "pencil"
        assert diag.x0 is not None
        freqs = log_frequencies(1e2, 1e5, 15)
        err = (np.linalg.norm(model.frequency_response(freqs) - system.frequency_response(freqs))
               / np.linalg.norm(system.frequency_response(freqs)))
        assert err < 1e-7

    @pytest.mark.parametrize("method", ["mfti", "vfti"])
    @pytest.mark.parametrize("svd_mode,expected", [("two-sided", 2), ("pencil", 1)])
    def test_fits_run_only_the_realization_svds(self, setup, svd_calls, method,
                                                svd_mode, expected):
        """No Fig.-1 profile SVDs: ``[L sL]`` and ``[L; sL]``, or ``x0*L - sL`` alone."""
        _, data, _, _ = setup
        run_fit(data, method=method, svd_mode=svd_mode)
        assert len(svd_calls) == expected

    def test_explicit_order_truncation(self, setup):
        _, _, _, pencil = setup
        model, diag = svd_realization(to_real_data(pencil), order=6)
        assert model.order == 6
        assert diag.rank_tolerance is None

    def test_invalid_order_rejected(self, setup):
        _, _, _, pencil = setup
        with pytest.raises(ValueError):
            svd_realization(pencil, order=10_000)

    def test_invalid_mode_rejected(self, setup):
        _, _, _, pencil = setup
        with pytest.raises(ValueError):
            svd_realization(pencil, mode="bogus")

    def test_direct_realization_exact_when_square_and_regular(self):
        """Lemma 3.1 on critically sampled data: E=-L, A=-sL, B=V, C=W interpolates."""
        system = random_stable_system(order=8, n_ports=2, feedthrough=None, seed=2)
        data = sample_scattering(system, log_frequencies(1e2, 1e4, 4))
        directions = identity_directions(2, 2, 2, offset_stride=False)
        tangential = build_tangential_data(
            data, right_directions=directions, left_directions=directions,
        )
        pencil = build_loewner_pencil(tangential)
        model = direct_realization(pencil)
        assert model.order == pencil.k_right
        right, left = tangential.interpolation_residuals(model)
        assert np.max(right) < 1e-6
        assert np.max(left) < 1e-6
        # with t_i = m = p the full sample matrices are matched (eq. 3)
        for freq, sample in data:
            h = model.transfer_function(1j * 2 * np.pi * freq)
            assert np.allclose(h, sample, atol=1e-6)

    def test_direct_realization_rejects_oversampled_data(self, setup):
        _, _, _, pencil = setup
        with pytest.raises(ValueError, match="singular"):
            direct_realization(pencil)
