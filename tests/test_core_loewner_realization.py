"""Tests for the Loewner pencil assembly and the realization lemmas."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import run_fit
from repro.core._pipeline import realize_from_tangential
from repro.core.loewner import LoewnerPencil, build_loewner_pencil
from repro.core.realization import svd_realization
from repro.core.options import MftiOptions
from repro.core.tangential import _pair_halves, build_tangential_data
from repro.data import sample_scattering
from repro.data.frequency import log_frequencies
from repro.experiments.workloads import WORKLOADS
from repro.systems.evaluation import evaluate_pointwise
from repro.systems.random_systems import random_stable_system

from oracles import (
    direct_realization,
    identity_directions,
    interpolation_residuals,
    mix_columns_reference,
    mix_rows_reference,
    real_transform_matrix_reference,
    real_transform_reference,
    sylvester_residuals,
    two_sided_realization_reference,
)


@pytest.fixture(scope="module")
def setup():
    """System, sampled data and full-block tangential data for the Loewner tests."""
    system = random_stable_system(order=14, n_ports=3, feedthrough=0.2, seed=21)
    data = sample_scattering(system, log_frequencies(1e2, 1e5, 8))
    directions = identity_directions(3, 3, 4)
    tangential = build_tangential_data(
        data, right_directions=directions, left_directions=directions,
    )
    pencil = build_loewner_pencil(tangential)
    return system, data, tangential, pencil


@pytest.fixture(scope="module")
def oversampled_data(setup):
    """Full-block tangential data of 12 samples of the order-17 setup system
    (with ``rank(D)``): square, ``k_right > k_left`` and ``k_left > k_right``."""
    system = setup[0]
    data = sample_scattering(system, log_frequencies(1e2, 1e5, 12))
    layouts = {  # (right samples, left samples)
        "square": ([0, 2, 4, 6, 8, 10], [1, 3, 5, 7, 9, 11]),
        "wide": ([0, 2, 4, 6, 8, 9, 10, 11], [1, 3, 5, 7]),
        "tall": ([0, 2, 4, 6], [1, 3, 5, 7, 8, 9, 10, 11]),
    }
    return {
        shape: build_tangential_data(
            data, right_directions=[np.eye(3)] * len(right),
            left_directions=[np.eye(3)] * len(left),
            right_indices=right, left_indices=left,
        )
        for shape, (right, left) in layouts.items()
    }


@pytest.fixture(scope="module")
def workload_fits():
    """Every fit of the five ``WORKLOADS`` grids, by ``"<grid>:<job label>"``."""
    return {
        f"{name}:{job.label}": run_fit(job.data, method=job.method, options=job.options)
        for name, builder in WORKLOADS.items()
        for job in builder()
    }


def _mixed_block_tangential(data, right_sizes, left_sizes, seed=0):
    """Tangential data with one random direction block per size, conjugates included.

    Right samples come first in ``data``, left samples after them, so the two
    point sets are disjoint for any pair of size lists.
    """
    rng = np.random.default_rng(seed)
    n_ports = data.n_ports

    def directions(sizes):
        return [rng.normal(size=(n_ports, t)) + 1j * rng.normal(size=(n_ports, t))
                for t in sizes]

    n_right = len(right_sizes)
    return build_tangential_data(
        data,
        right_directions=directions(right_sizes),
        left_directions=directions(left_sizes),
        right_indices=list(range(n_right)),
        left_indices=list(range(n_right, n_right + len(left_sizes))),
    )


def _assert_equals_mixing_oracle(tangential, context):
    """The real pencil, assembled from the stored +j omega half, equals the literal
    ``T_l* M T_r`` mixing of the full complex pencil, bit for bit."""
    complex_pencil = build_loewner_pencil(tangential)
    want = real_transform_reference(complex_pencil)
    got = build_loewner_pencil(tangential, real=True)
    assert got.is_real, context
    for name, matrix in want.items():
        value = getattr(got, name)
        assert value.dtype == np.float64 and value.shape == matrix.shape, context
        assert value.tobytes() == matrix.tobytes(), (context, name)
    assert np.array_equal(got.lambda_points, complex_pencil.lambda_points)
    assert np.array_equal(got.mu_points, complex_pencil.mu_points)
    assert got.right_block_sizes == complex_pencil.right_block_sizes
    assert got.left_block_sizes == complex_pencil.left_block_sizes


class TestLoewnerPencil:
    def test_shapes(self, setup):
        _, _, tangential, pencil = setup
        assert pencil.loewner.shape == (tangential.k_left, tangential.k_right)
        assert pencil.shifted_loewner.shape == pencil.loewner.shape
        assert pencil.k_left == pencil.k_right
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
        points = np.unique(np.concatenate([pencil.lambda_points, pencil.mu_points]))
        for x in points[:3]:
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
        """The pair mixing scaled by ``1/sqrt(2)`` is the unitary ``T`` of Lemma 3.2."""
        t = mix_columns_reference(np.eye(6), *_pair_halves((2, 1))) / np.sqrt(2.0)
        assert t.shape == (6, 6)
        assert np.allclose(t.conj().T @ t, np.eye(6), atol=1e-12)

    @pytest.mark.parametrize("sizes", [(3, 3, 1, 1, 2, 2, 1, 1), (1, 1), (2, 2, 2, 2, 4, 4)])
    def test_transform_matrix_equals_per_pair_oracle_bitwise(self, sizes):
        """Mixing the identity's rows and columns pair by pair gives the dense
        oracle's ``T*`` and ``T`` entry for entry (signed zeros aside)."""
        halves = _pair_halves(sizes[0::2])
        eye = np.eye(sum(sizes))
        want = real_transform_matrix_reference(sizes)
        assert np.array_equal(mix_columns_reference(eye, *halves) / np.sqrt(2.0), want)
        assert np.array_equal(mix_rows_reference(eye, *halves) / np.sqrt(2.0), want.conj().T)

    @pytest.mark.parametrize("right_sizes,left_sizes", [
        ((1, 2, 3), (3, 2, 1)),     # square, mixed block sizes
        ((1, 2, 3, 2), (3, 1)),     # k_right > k_left
        ((2,), (1, 3, 3, 2)),       # k_left > k_right
    ])
    def test_real_pencil_matches_dense_oracle(self, setup, right_sizes, left_sizes):
        """``build_loewner_pencil(t, real=True)`` is ``T_l* L T_r``, ``T_l* sL T_r``,
        ``T_l* V`` and ``W T_r`` of the complex pencil, formed with the dense
        oracle ``T``, to 1e-14 relative (Frobenius)."""
        _, data, _, _ = setup
        tangential = _mixed_block_tangential(data, right_sizes, left_sizes)
        pencil = build_loewner_pencil(tangential)
        real_pencil = build_loewner_pencil(tangential, real=True)
        t_left = real_transform_matrix_reference(pencil.left_block_sizes)
        t_right = real_transform_matrix_reference(pencil.right_block_sizes)
        tl_h = t_left.conj().T
        expected = {
            "loewner": tl_h @ pencil.loewner @ t_right,
            "shifted_loewner": tl_h @ pencil.shifted_loewner @ t_right,
            "V": tl_h @ pencil.V,
            "W": pencil.W @ t_right,
        }
        for name, want in expected.items():
            got = getattr(real_pencil, name)
            assert got.dtype == np.float64, name
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), name

    def test_real_transform_produces_real_pencil(self, setup):
        _, _, tangential, _ = setup
        real_pencil = build_loewner_pencil(tangential, real=True)
        assert real_pencil.is_real
        for matrix in (real_pencil.loewner, real_pencil.shifted_loewner,
                       real_pencil.W, real_pencil.V):
            assert not np.iscomplexobj(matrix) or np.max(np.abs(matrix.imag)) == 0

    def test_real_transform_preserves_singular_values(self, setup):
        _, _, tangential, pencil = setup
        real_pencil = build_loewner_pencil(tangential, real=True)
        s_complex = np.linalg.svd(pencil.loewner, compute_uv=False)
        s_real = np.linalg.svd(real_pencil.loewner, compute_uv=False)
        assert np.allclose(s_complex, s_real, rtol=1e-9)


class TestRealAssembly:
    """The fit path writes the real pencil from the +j omega half (Lemma 3.2)."""

    def test_half_assembly_equals_mixing_oracle_on_every_workload_fit(self, workload_fits):
        assert len(workload_fits) == 50
        for label, result in workload_fits.items():
            _assert_equals_mixing_oracle(result.tangential, label)

    @settings(max_examples=30, deadline=None)
    @given(right_sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4),
           left_sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4),
           seed=st.integers(0, 2**31 - 1))
    def test_half_assembly_equals_mixing_oracle_property(self, setup, right_sizes,
                                                         left_sizes, seed):
        """Mixed block sizes, random complex directions, any k_left / k_right."""
        _, data, _, _ = setup
        tangential = _mixed_block_tangential(data, right_sizes, left_sizes, seed)
        _assert_equals_mixing_oracle(tangential, (right_sizes, left_sizes, seed))

    def test_real_pencil_needs_conjugate_pairs(self, setup):
        _, data, _, _ = setup
        directions = identity_directions(3, 3, 4)
        unpaired = build_tangential_data(
            data, right_directions=directions, left_directions=directions,
            include_conjugates=False,
        )
        with pytest.raises(ValueError, match="conjugate-paired"):
            build_loewner_pencil(unpaired, real=True)

    @pytest.mark.parametrize("real", [True, False])
    def test_result_tangential_rebuilds_the_realized_pencil(self, setup, real):
        """The fit keeps no pencil; the one ``real_output`` names, rebuilt from
        ``result.tangential``, realizes the returned model bit for bit."""
        _, _, tangential, _ = setup
        options = MftiOptions(real_output=real, rank_method="tolerance", rank_tolerance=1e-8)
        result = realize_from_tangential(tangential, options, method="mfti",
                                         n_samples_used=8)
        pencil = build_loewner_pencil(result.tangential, real=real)
        assert pencil.is_real == real
        system, _ = svd_realization(pencil, order=options.order,
                                    rank_tolerance=options.rank_tolerance,
                                    rank_method=options.rank_method,
                                    mode=options.svd_mode, x0=options.x0)
        assert result.system.A.dtype == (np.float64 if real else np.complex128)
        for name in ("E", "A", "B", "C", "D"):
            expected, got = getattr(system, name), getattr(result.system, name)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name

    def test_real_fit_peaks_below_the_complex_build(self, workload_fits):
        """``pdn/mfti-t3`` (k = 420): the fit's pencil-plus-realization peak is at
        most 0.75x that of building the complex pencil and mixing it into the
        real one (the oracle route)."""
        result = workload_fits["mixed_batch_jobs:pdn/mfti-t3"]
        tangential, options = result.tangential, result.metadata["options"]
        assert tangential.k_left == 420

        def fit():
            return realize_from_tangential(tangential, options, method="mfti",
                                           n_samples_used=result.n_samples_used).system

        def complex_then_transform():
            pencil = build_loewner_pencil(tangential)
            real = dataclasses.replace(pencil, is_real=True, **real_transform_reference(pencil))
            return svd_realization(
                real, order=options.order,
                rank_tolerance=options.rank_tolerance, rank_method=options.rank_method,
                mode=options.svd_mode, x0=options.x0)[0]

        peaks = {}
        for name, run in (("real", fit), ("complex", complex_then_transform)):
            tracemalloc.start()
            system = run()
            peaks[name] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert np.array_equal(system.A, result.system.A), name
        assert peaks["real"] <= 0.75 * peaks["complex"], peaks


class TestRealizations:
    def test_svd_realization_recovers_system(self, setup):
        """Lemma 3.4: the projected realization reproduces the transfer function."""
        system, data, tangential, _ = setup
        model, diag = svd_realization(build_loewner_pencil(tangential, real=True))
        expected_order = system.order + np.linalg.matrix_rank(system.D)
        assert diag.order == expected_order
        freqs = log_frequencies(1e2, 1e5, 30)
        reference = system.frequency_response(freqs)
        response = model.frequency_response(freqs)
        err = np.linalg.norm(response - reference) / np.linalg.norm(reference)
        assert err < 1e-8
        assert model.is_real

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("shape", ["square", "wide", "tall"])
    @pytest.mark.parametrize("rank_method,order", [
        ("gap", None), ("tolerance", None), ("gap", 10),
    ])
    def test_two_sided_matches_uncompressed_oracle(self, oversampled_data, shape, real,
                                                   rank_method, order):
        """The SVDs of the QR factors give what the SVDs of the full ``[L, sL]``
        and ``[L; sL]`` give: singular values, order and transfer function."""
        pencil = build_loewner_pencil(oversampled_data[shape], real=real)
        model, diag = svd_realization(pencil, order=order, rank_method=rank_method)
        reference, s_ref = two_sided_realization_reference(
            pencil, order=order, rank_method=rank_method)
        assert diag.singular_values.shape == s_ref.shape
        assert np.max(np.abs(diag.singular_values - s_ref)) <= 1e-12 * s_ref[0]
        assert diag.order == model.order == reference.order == (order or 17)
        assert model.is_real == real
        points = np.unique(np.concatenate([pencil.lambda_points, pencil.mu_points]))
        got = evaluate_pointwise(model.E, model.A, model.B, model.C, model.D, points)
        want = evaluate_pointwise(reference.E, reference.A, reference.B, reference.C,
                                  reference.D, points)
        rel = np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
        assert np.max(rel) <= 1e-9

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
        _, _, tangential, _ = setup
        model, diag = svd_realization(build_loewner_pencil(tangential, real=True), order=6)
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

    @pytest.mark.parametrize("k", [100, 420])
    def test_two_sided_realization_holds_each_side_alone(self, k):
        """The traced peak of a real full-rank realization stays within 3.5x the
        bytes of ``L`` and ``sL``: each side's augmented matrix and triangular
        factor are freed before the other side allocates (4.5x when both
        sides' working sets are held together)."""
        rng = np.random.default_rng(k)
        points = 1j * np.arange(1.0, k + 1.0)
        pencil = LoewnerPencil(
            loewner=rng.standard_normal((k, k)), shifted_loewner=rng.standard_normal((k, k)),
            W=rng.standard_normal((2, k)), V=rng.standard_normal((k, 2)),
            lambda_points=points, mu_points=-points,
            right_block_sizes=(1,) * k, left_block_sizes=(1,) * k, is_real=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model, _ = svd_realization(pencil)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert model.order > k // 2  # a random pencil keeps (almost) every state
        assert peak <= 3.5 * (pencil.loewner.nbytes + pencil.shifted_loewner.nbytes), peak

    def test_direct_realization_exact_when_square_and_regular(self):
        """Lemma 3.1 on critically sampled data: E=-L, A=-sL, B=V, C=W interpolates."""
        system = random_stable_system(order=8, n_ports=2, feedthrough=None, seed=2)
        data = sample_scattering(system, log_frequencies(1e2, 1e4, 4))
        directions = identity_directions(2, 2, 2)
        tangential = build_tangential_data(
            data, right_directions=directions, left_directions=directions,
        )
        pencil = build_loewner_pencil(tangential)
        model = direct_realization(pencil)
        assert model.order == pencil.k_right
        right, left = interpolation_residuals(tangential, model)
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
