"""Equivalence and structure tests for the batched fit kernels.

The contract of the vector-fitting kernels
(:mod:`repro.vectorfitting.kernels`) and the Loewner products is that
batching is *numerically invisible*: every batched kernel agrees with its looped
reference (bitwise where the operations are elementwise, to round-off where
GEMM batching reorders summations), the Loewner products are slicing-stable
-- so the pencil of any subset of the tangential data is bitwise the matching
sub-block of the full pencil -- and ``sort_poles`` always produces a
groupable pole array -- including
on the previously untested "numerically unpaired complex pole" leftover path.
The kernels that compute in numpy directly are also pinned bitwise to
hand-inlined numpy replicas, and the compact fast-VF solver to its
stacked-``lstsq`` oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.loewner import build_loewner_pencil
from repro.core.tangential import TangentialData
from repro.utils.linalg import realify, rowcol_product
from repro.vectorfitting.kernels import (
    VF_COMPACT_CONDITION_LIMIT,
    PoleGrouping,
    partial_fraction_basis,
    relocation_matrices,
    residues_from_coefficients,
    vf_scaling_blocks,
    vf_scaling_solve,
    vf_scaling_solve_reference,
)
from repro.vectorfitting.poles import initial_poles, sort_poles
from repro.vectorfitting.rational import PoleResidueModel

from oracles import (
    partial_fraction_basis_reference,
    relocation_matrices_reference,
    residues_from_coefficients_reference,
    vf_scaling_blocks_reference,
)

common_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #
def _make_poles(n_reals: int, n_pairs: int, seed: int) -> np.ndarray:
    """A well-formed pole array: real singles + adjacent conjugate pairs."""
    rng = np.random.default_rng(seed)
    poles: list[complex] = [complex(-float(r), 0.0) for r in rng.uniform(0.1, 50.0, n_reals)]
    for _ in range(n_pairs):
        a = complex(-rng.uniform(0.1, 10.0), rng.uniform(0.5, 100.0))
        if rng.uniform() < 0.5:
            poles.extend([a, np.conj(a)])
        else:
            poles.extend([np.conj(a), a])
    return np.asarray(poles, dtype=complex)


pole_shapes = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
).filter(lambda shape: shape[0] + shape[1] > 0)


def _make_tangential(n_right: int, n_left: int, n_ports: int, block: int,
                     seed: int) -> TangentialData:
    """Random conjugate-paired tangential data with disjoint point sets."""
    rng = np.random.default_rng(seed)
    t = min(block, n_ports)

    def _random(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return TangentialData(
        right_points=1j * (1.0 + 2.0 * np.arange(n_right)),
        right_sizes=[t] * n_right,
        right_directions=_random((n_ports, t * n_right)),
        right_values=_random((n_ports, t * n_right)),
        left_points=1j * (2.0 + 2.0 * np.arange(n_left)),
        left_sizes=[t] * n_left,
        left_directions=_random((t * n_left, n_ports)),
        left_values=_random((t * n_left, n_ports)),
        conjugate_pairs=True,
    )


def _group_lines(block_sizes, groups) -> np.ndarray:
    """Pencil rows (or columns) of the conjugate-paired sample ``groups``."""
    offsets = np.concatenate([[0], np.cumsum(block_sizes)])
    return np.concatenate([np.arange(offsets[2 * g], offsets[2 * g + 2])
                           for g in sorted(set(groups))])


# --------------------------------------------------------------------- #
# sort_poles / PoleGrouping round trips
# --------------------------------------------------------------------- #
class TestSortPolesProperties:
    @given(pole_shapes)
    @common_settings
    def test_sorted_poles_are_always_groupable(self, shape):
        n_reals, n_pairs, seed = shape
        rng = np.random.default_rng(seed)
        poles = _make_poles(n_reals, n_pairs, seed)
        poles = poles[rng.permutation(poles.size)]
        ordered = sort_poles(poles)
        grouping = PoleGrouping.from_poles(ordered)  # must not raise
        assert ordered.size == poles.size
        assert grouping.real_indices.size + 2 * grouping.pair_first.size == poles.size

    @given(pole_shapes)
    @common_settings
    def test_sort_is_idempotent(self, shape):
        n_reals, n_pairs, seed = shape
        poles = _make_poles(n_reals, n_pairs, seed)
        ordered = sort_poles(poles)
        assert np.array_equal(sort_poles(ordered), ordered)

    @given(pole_shapes)
    @common_settings
    def test_sort_preserves_multiset_of_paired_input(self, shape):
        n_reals, n_pairs, seed = shape
        rng = np.random.default_rng(seed)
        poles = _make_poles(n_reals, n_pairs, seed)
        shuffled = poles[rng.permutation(poles.size)]
        ordered = sort_poles(shuffled)
        assert np.array_equal(np.sort_complex(ordered), np.sort_complex(poles))

    @given(pole_shapes)
    @common_settings
    def test_conjugate_pairs_adjacent_positive_first(self, shape):
        n_reals, n_pairs, seed = shape
        poles = _make_poles(n_reals, n_pairs, seed)
        ordered = sort_poles(poles)
        grouping = PoleGrouping.from_poles(ordered)
        first = ordered[grouping.pair_first]
        second = ordered[grouping.pair_second]
        assert np.all(first.imag > 0)
        assert np.array_equal(second, np.conj(first))

    @given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=2**31 - 1))
    @common_settings
    def test_unpaired_leftovers_become_real_poles(self, n_reals, n_pairs, seed):
        """The leftover path: a dangling positive-imag pole must not survive."""
        poles = _make_poles(n_reals, n_pairs, seed).tolist()
        poles.append(complex(-0.5, 7.25))  # unpaired, positive imaginary part
        ordered = sort_poles(np.asarray(poles))
        grouping = PoleGrouping.from_poles(ordered)  # must not raise
        assert ordered.size == len(poles)
        # the dangling pole was replaced by a real pole (odd complex count)
        n_complex = ordered.size - grouping.real_indices.size
        assert n_complex % 2 == 0

    def test_upper_half_plane_input_is_auto_mirrored(self):
        """The public-API convention: unpaired positives gain mirrors while room allows."""
        poles = np.array([-1.0 + 2.0j, -1.0 - 2.0j, -3.0 + 5.0j, -4.0 + 6.0j])
        ordered = sort_poles(poles)
        assert np.array_equal(
            ordered, np.array([-1.0 + 2.0j, -1.0 - 2.0j, -3.0 + 5.0j, -3.0 - 5.0j]))

    def test_leftover_fills_are_distinct(self):
        """Each leftover pole is realified at its own real part (no duplicate columns)."""
        poles = np.array([-2.0 + 1.0j, -6.0 - 9.0j, -7.0 - 8.0j, -8.0 - 3.0j])
        ordered = sort_poles(poles)
        assert ordered.size == 4
        assert complex(-2.0, 1.0) in ordered and complex(-2.0, -1.0) in ordered
        fills = sorted(p.real for p in ordered if p.imag == 0.0)
        assert fills == [-7.0, -6.0]  # distinct, own real parts

    def test_dangling_pole_never_displaces_a_genuine_pair(self):
        """A leftover pole with smaller |Im| must not evict a valid pair."""
        poles = np.array([-1.0 + 5.0j, -1.0 - 5.0j, -2.0 + 1.0j])
        ordered = sort_poles(poles)
        assert complex(-1.0, 5.0) in ordered and complex(-1.0, -5.0) in ordered
        replaced = [p for p in ordered if p.imag == 0.0]
        assert len(replaced) == 1  # the dangling -2+1j became a real fill

    @given(pole_shapes)
    @common_settings
    def test_dangling_pole_property_pairs_survive(self, shape):
        """Appending a dangling pole to any paired set keeps every pair."""
        n_reals, n_pairs, seed = shape
        base = _make_poles(n_reals, n_pairs, seed).tolist()
        with_dangling = np.asarray(base + [complex(-0.25, 0.125)])
        ordered = sort_poles(with_dangling)
        for pole in base:
            assert pole in ordered
        assert PoleGrouping.from_poles(ordered).pair_first.size == n_pairs

    def test_single_unpaired_positive_pole_is_replaced(self):
        ordered = sort_poles(np.array([complex(-0.1, 2.0)]))
        assert ordered.size == 1
        assert ordered[0].imag == 0.0
        assert ordered[0].real == pytest.approx(-0.1)

    def test_single_unpaired_negative_pole_is_replaced(self):
        ordered = sort_poles(np.array([complex(-0.3, -2.0)]))
        assert ordered.size == 1
        assert ordered[0] == complex(-0.3, 0.0)

    def test_grouping_rejects_dangling_complex_pole(self):
        """The grouping reports dangling poles; the VF kernels refuse them."""
        poles = np.array([complex(-1.0, 2.0), complex(-1.0, 3.0)])
        grouping = PoleGrouping.from_poles(poles)
        assert grouping.unpaired_indices.tolist() == [0, 1]
        assert grouping.pair_first.size == 0 and grouping.real_indices.size == 0
        assert grouping.groups() == [("unpaired", (0,)), ("unpaired", (1,))]
        with pytest.raises(ValueError, match="unpaired"):
            partial_fraction_basis(1j * np.linspace(1.0, 5.0, 4), poles, grouping)

    def test_pair_between_the_old_real_thresholds_is_one_pair(self):
        """``Im = 5e-9 |a|`` is complex to every consumer: one pair, one 2x2 block."""
        poles = np.array([complex(-1.0, 5e-9), complex(-1.0, -5e-9)])
        residues = np.array([[[1.0 + 2.0j]], [[1.0 - 2.0j]]])
        a = PoleResidueModel(poles, residues).to_statespace().A
        assert a.shape == (2, 2)
        assert a[0, 1] == 5e-9 and a[1, 0] == -5e-9
        grouping = PoleGrouping.from_poles(poles)
        assert grouping.groups() == [("pair", (0, 1))]
        assert grouping.real_indices.size == 0 and grouping.unpaired_indices.size == 0

    def test_pairs_need_not_be_adjacent(self):
        a, b = complex(-1.0, 4.0), complex(-2.0, 7.0)
        poles = np.array([a, b, -3.0, np.conj(b), np.conj(a)])
        grouping = PoleGrouping.from_poles(poles)
        assert grouping.groups() == [("pair", (0, 4)), ("pair", (1, 3)), ("real", (2,))]
        assert np.array_equal(grouping.pair_poles, [a, b])
        assert np.array_equal(sort_poles(poles), [-3.0, a, np.conj(a), b, np.conj(b)])

    def test_grouping_partitions_the_pole_indices(self):
        poles = sort_poles(initial_poles(7, 1e2, 1e5))
        grouping = PoleGrouping.from_poles(poles)
        assert grouping.real_indices.size == 1
        assert grouping.pair_first.size == 3
        covered = np.concatenate(
            [grouping.real_indices, grouping.pair_first, grouping.pair_second])
        assert sorted(covered.tolist()) == list(range(poles.size))


# --------------------------------------------------------------------- #
# vector-fitting kernels vs their looped references
# --------------------------------------------------------------------- #
class TestVectorFitKernels:
    @given(pole_shapes, st.integers(min_value=1, max_value=40))
    @common_settings
    def test_basis_batched_equals_looped_bitwise(self, shape, n_points):
        n_reals, n_pairs, seed = shape
        poles = sort_poles(_make_poles(n_reals, n_pairs, seed))
        grouping = PoleGrouping.from_poles(poles)
        s_points = 1j * np.linspace(0.5, 120.0, n_points)
        batched = partial_fraction_basis(s_points, poles, grouping)
        looped = partial_fraction_basis_reference(s_points, poles)
        assert np.array_equal(batched, looped)

    @given(pole_shapes)
    @common_settings
    def test_relocation_matrices_batched_equals_looped_bitwise(self, shape):
        n_reals, n_pairs, seed = shape
        poles = sort_poles(_make_poles(n_reals, n_pairs, seed))
        grouping = PoleGrouping.from_poles(poles)
        a_batched, b_batched = relocation_matrices(poles, grouping)
        a_looped, b_looped = relocation_matrices_reference(poles)
        assert np.array_equal(a_batched, a_looped)
        assert np.array_equal(b_batched, b_looped)

    @given(pole_shapes, st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3))
    @common_settings
    def test_residues_batched_equals_looped_bitwise(self, shape, p, m):
        n_reals, n_pairs, seed = shape
        # exercise both pair orientations: raw (unsorted) pole arrays keep
        # whichever of (+, -) ordering the generator produced
        poles = _make_poles(n_reals, n_pairs, seed)
        grouping = PoleGrouping.from_poles(poles)
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=(poles.size + 1, p * m))
        batched = residues_from_coefficients(coeffs, poles, grouping, (p, m))
        looped = residues_from_coefficients_reference(coeffs, poles, (p, m))
        assert np.array_equal(batched, looped)

    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=2**31 - 1))
    @common_settings
    def test_scaling_blocks_batched_matches_looped(self, n_pairs, n_ports, seed):
        poles = sort_poles(_make_poles(1, n_pairs, seed))
        grouping = PoleGrouping.from_poles(poles)
        rng = np.random.default_rng(seed)
        n_samples = 12
        s_points = 1j * np.linspace(0.5, 120.0, n_samples)
        responses = (rng.normal(size=(n_samples, n_ports * n_ports))
                     + 1j * rng.normal(size=(n_samples, n_ports * n_ports)))
        phi = partial_fraction_basis(s_points, poles, grouping)
        phi1_real = realify(np.hstack([phi, np.ones((n_samples, 1))]))
        q1, _ = np.linalg.qr(phi1_real)
        a_batched, b_batched = vf_scaling_blocks(phi, responses, q1)
        a_looped, b_looped = vf_scaling_blocks_reference(phi, responses, q1)
        assert a_batched.shape == a_looped.shape
        # GEMM batching reorders the projection summations, so agreement is
        # to round-off rather than bitwise
        scale = max(float(np.max(np.abs(a_looped))), 1.0)
        assert np.allclose(a_batched, a_looped, rtol=1e-10, atol=1e-12 * scale)
        assert np.allclose(b_batched, b_looped, rtol=1e-10, atol=1e-12 * scale)


# --------------------------------------------------------------------- #
# slicing-stable products and subset pencils
# --------------------------------------------------------------------- #
class TestRowcolProduct:
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
    @common_settings
    def test_matches_matmul(self, rows, inner, cols, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(rows, inner)) + 1j * rng.normal(size=(rows, inner))
        b = rng.normal(size=(inner, cols)) + 1j * rng.normal(size=(inner, cols))
        assert np.allclose(rowcol_product(a, b), a @ b, rtol=1e-12, atol=1e-14)

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=6),
           st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
    @common_settings
    def test_slicing_stability_bitwise(self, rows, inner, cols, seed):
        """Each entry is a function of its own row and column, bit for bit."""
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(rows, inner)) + 1j * rng.normal(size=(rows, inner))
        b = rng.normal(size=(inner, cols)) + 1j * rng.normal(size=(inner, cols))
        full = rowcol_product(a, b)
        row_idx = rng.permutation(rows)[: max(1, rows // 2)]
        col_idx = rng.permutation(cols)[: max(1, cols // 2)]
        sub = rowcol_product(a[row_idx], b[:, col_idx])
        assert np.array_equal(sub, full[np.ix_(row_idx, col_idx)])

    def test_slicing_stability_at_pencil_scale(self):
        """Same contract at the size of a real PDN pencil (k ~ 300, m = 14)."""
        rng = np.random.default_rng(42)
        a = rng.normal(size=(300, 14)) + 1j * rng.normal(size=(300, 14))
        b = rng.normal(size=(14, 280)) + 1j * rng.normal(size=(14, 280))
        full = rowcol_product(a, b)
        row_idx = rng.permutation(300)[:120]
        col_idx = rng.permutation(280)[:100]
        sub = rowcol_product(a[row_idx], b[:, col_idx])
        assert np.array_equal(sub, full[np.ix_(row_idx, col_idx)])

    def test_mixed_dtypes_promote_like_matmul(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
        b = rng.normal(size=(5, 4))  # real directions against complex values
        out = rowcol_product(a, b)
        assert out.dtype == (a @ b).dtype
        assert np.allclose(out, a @ b, rtol=1e-12, atol=1e-14)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            rowcol_product(np.zeros((2, 3)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            rowcol_product(np.zeros(3), np.zeros((3, 2)))


class TestSubsetPencil:
    """Recursive MFTI realizes each iteration from ``full.subset(...)``: the
    pencil of a subset is bitwise the sub-block of the full pencil."""

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**31 - 1),
           st.booleans())
    @common_settings
    def test_subset_pencil_is_the_sub_block_of_the_full_pencil(self, n_right, n_left,
                                                               n_ports, seed, real):
        """Random selections, complex pencil and the real one written from
        its +j omega half."""
        rng = np.random.default_rng(seed)
        full = _make_tangential(n_right, n_left, n_ports, block=2, seed=seed)
        right_sel = rng.permutation(n_right)[:rng.integers(1, n_right + 1)].tolist()
        left_sel = rng.permutation(n_left)[:rng.integers(1, n_left + 1)].tolist()
        whole = build_loewner_pencil(full, real=real)
        sub = build_loewner_pencil(full.subset(right_sel, left_sel), real=real)
        cols = _group_lines(full.right_block_sizes, right_sel)
        rows = _group_lines(full.left_block_sizes, left_sel)
        assert sub.is_real == whole.is_real == real
        for name, expected in (("loewner", whole.loewner[np.ix_(rows, cols)]),
                               ("shifted_loewner", whole.shifted_loewner[np.ix_(rows, cols)]),
                               ("V", whole.V[rows]), ("W", whole.W[:, cols]),
                               ("lambda_points", whole.lambda_points[cols]),
                               ("mu_points", whole.mu_points[rows])):
            got = getattr(sub, name)
            assert got.dtype == expected.dtype, name
            assert got.tobytes() == np.ascontiguousarray(expected).tobytes(), name

    @pytest.mark.parametrize("real", [False, True])
    def test_selection_order_and_repeats_do_not_change_the_pencil(self, real):
        full = _make_tangential(5, 5, 2, block=2, seed=3)
        shuffled = build_loewner_pencil(full.subset([3, 2, 3], [4, 1, 4]), real=real)
        sorted_ = build_loewner_pencil(full.subset([2, 3], [1, 4]), real=real)
        assert np.array_equal(shuffled.loewner, sorted_.loewner)
        assert np.array_equal(shuffled.shifted_loewner, sorted_.shifted_loewner)
        assert np.array_equal(shuffled.V, sorted_.V) and np.array_equal(shuffled.W, sorted_.W)

    def test_subset_keeps_blocks_and_block_structure(self):
        full = _make_tangential(4, 4, 3, block=2, seed=11)
        subset = full.subset([1, 3], [0, 2])
        assert subset.conjugate_pairs
        assert np.array_equal(subset.right_points, full.right_points[[1, 3]])
        assert np.array_equal(subset.left_points, full.left_points[[0, 2]])
        pencil = build_loewner_pencil(subset, real=True)
        assert pencil.right_block_sizes == subset.right_block_sizes == (2, 2, 2, 2)
        assert pencil.left_block_sizes == subset.left_block_sizes == (2, 2, 2, 2)


# --------------------------------------------------------------------- #
# numpy replicas, the compact fast-VF solver and residue QR reuse
# --------------------------------------------------------------------- #
def _vf_workload(seed: int, n_ports: int = 3, n_poles: int = 6, n_samples: int = 40):
    """A small well-conditioned fast-VF workload (phi, responses, q1)."""
    rng = np.random.default_rng(seed)
    n_pairs = n_poles // 2
    alpha = -0.5 - rng.random(n_pairs)
    beta = 1.0 + 29.0 * rng.random(n_pairs)
    poles = np.empty(2 * n_pairs, dtype=complex)
    poles[0::2] = alpha + 1j * beta
    poles[1::2] = alpha - 1j * beta
    s_points = 1j * np.linspace(0.5, 30.0, n_samples)
    n_entries = n_ports * n_ports
    responses = rng.standard_normal((n_samples, n_entries)) + 1j * rng.standard_normal(
        (n_samples, n_entries)
    )
    grouping = PoleGrouping.from_poles(poles)
    phi = partial_fraction_basis(s_points, poles, grouping)
    phi1_real = realify(np.hstack([phi, np.ones((n_samples, 1))]))
    q1, _ = np.linalg.qr(phi1_real)
    return phi, responses, q1


solver_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestNumpyReplicasBitwise:
    """The kernels equal the same computation written out in plain numpy."""

    @solver_settings
    @given(seed=st.integers(0, 2**16), n_ports=st.integers(1, 4))
    def test_scaling_blocks_equal_inlined_numpy(self, seed, n_ports):
        phi, responses, q1 = _vf_workload(seed, n_ports=n_ports)
        n_samples, n_entries = responses.shape
        weighted = -responses[:, :, np.newaxis] * phi[:, np.newaxis, :]
        weighted = np.concatenate([weighted.real, weighted.imag], axis=0)
        rhs = np.concatenate([responses.real, responses.imag], axis=0)
        flat = weighted.reshape(2 * n_samples, -1)
        projected = (flat - q1 @ (q1.T @ flat)).reshape(2 * n_samples, n_entries, -1)
        rhs_projected = rhs - q1 @ (q1.T @ rhs)
        want_a = np.transpose(projected, (1, 0, 2)).reshape(n_entries * 2 * n_samples, -1)
        want_b = rhs_projected.T.reshape(-1)
        got_a, got_b = vf_scaling_blocks(phi, responses, q1)
        assert np.array_equal(got_a, want_a)
        assert np.array_equal(got_b, want_b)

    @solver_settings
    @given(seed=st.integers(0, 2**16))
    def test_solve_sweep_equals_pointwise_loop(self, seed):
        from repro.systems.evaluation import evaluate_descriptor, evaluate_pointwise
        from repro.systems.random_systems import random_stable_system

        system = random_stable_system(order=8, n_ports=2, feedthrough=0.1,
                                      seed=seed % 1000)
        points = 1j * np.linspace(1.0, 1e4, 12)
        sweep = evaluate_descriptor(system.E, system.A, system.B, system.C,
                                    system.D, points)
        loop = evaluate_pointwise(system.E, system.A, system.B, system.C,
                                  system.D, points)
        assert np.array_equal(sweep, loop)

    def test_impulse_from_spectrum_equals_irfft(self):
        from repro.systems.spectral import build_spectral_grid, impulse_from_spectrum

        rng = np.random.default_rng(7)
        grid = build_spectral_grid(1e-6, 16)
        n_freq = grid.n_fft // 2 + 1
        spectrum = rng.standard_normal((n_freq, 2, 2)) + 1j * rng.standard_normal(
            (n_freq, 2, 2)
        )
        direct = (np.fft.irfft(spectrum, n=grid.n_fft, axis=-3)
                  / grid.dt)[..., :grid.n_points, :, :]
        assert np.array_equal(impulse_from_spectrum(spectrum, grid), direct)


class TestCompactSolver:
    @solver_settings
    @given(seed=st.integers(0, 2**16), n_ports=st.integers(2, 5))
    def test_agrees_with_reference_when_well_conditioned(self, seed, n_ports):
        phi, responses, q1 = _vf_workload(seed, n_ports=n_ports)
        reference = vf_scaling_solve_reference(phi, responses, q1)
        compact = vf_scaling_solve(phi, responses, q1)
        relative = np.linalg.norm(compact - reference) / np.linalg.norm(reference)
        assert relative <= 1e-10, f"compact solution drifted {relative:.2e}"

    def test_degenerate_basis_falls_back_to_reference(self):
        """A duplicated basis column defeats the Cholesky: exact fallback."""
        phi, responses, q1 = _vf_workload(3, n_ports=2)
        phi_bad = phi.copy()
        phi_bad[:, 1] = phi_bad[:, 0]  # rank-deficient weighted blocks
        fallback = vf_scaling_solve(phi_bad, responses, q1)
        reference = vf_scaling_solve_reference(phi_bad, responses, q1)
        assert np.array_equal(fallback, reference)

    def test_near_rank_deficient_basis_falls_back(self):
        """Clustered poles push the conditioning gate: exact fallback."""
        rng = np.random.default_rng(11)
        n_samples, n_entries = 40, 4
        poles = np.array([-1.0, -1.0 - 1e-13, -2.0, -2.0 - 1e-13])
        grouping = PoleGrouping.from_poles(poles)
        s_points = 1j * np.linspace(0.5, 30.0, n_samples)
        phi = partial_fraction_basis(s_points, poles, grouping)
        responses = rng.standard_normal((n_samples, n_entries)) + (
            1j * rng.standard_normal((n_samples, n_entries))
        )
        phi1_real = realify(np.hstack([phi, np.ones((n_samples, 1))]))
        q1, _ = np.linalg.qr(phi1_real)
        fallback = vf_scaling_solve(phi, responses, q1)
        reference = vf_scaling_solve_reference(phi, responses, q1)
        assert np.array_equal(fallback, reference)

    def test_tight_condition_limit_forces_fallback(self):
        phi, responses, q1 = _vf_workload(5)
        forced = vf_scaling_solve(phi, responses, q1, condition_limit=1.0)
        reference = vf_scaling_solve_reference(phi, responses, q1)
        assert np.array_equal(forced, reference)
        assert VF_COMPACT_CONDITION_LIMIT > 1.0


class TestResidueQrReuse:
    def test_qr_reuse_matches_lstsq(self):
        from repro.vectorfitting.fitting import _solve_residue_system

        phi, responses, _ = _vf_workload(9, n_ports=2)
        phi1_real = realify(np.hstack([phi, np.ones((phi.shape[0], 1))]))
        responses_real = realify(responses)
        q1, r1 = np.linalg.qr(phi1_real)
        via_qr = _solve_residue_system(phi1_real, responses_real, (q1, r1))
        via_lstsq = _solve_residue_system(phi1_real, responses_real, None)
        assert np.allclose(via_qr, via_lstsq, rtol=0, atol=1e-11)

    def test_wide_basis_falls_back_to_minimum_norm(self):
        """More poles than realified samples: reduced R is not square, so
        the reuse path must defer to lstsq's minimum-norm solve (this is
        the Table-1 280-pole VF configuration)."""
        from repro.vectorfitting.fitting import _solve_residue_system

        phi, responses, _ = _vf_workload(13, n_ports=2, n_poles=30, n_samples=10)
        phi1_real = realify(np.hstack([phi, np.ones((phi.shape[0], 1))]))
        responses_real = realify(responses)
        assert phi1_real.shape[0] < phi1_real.shape[1]
        q1, r1 = np.linalg.qr(phi1_real)
        guarded = _solve_residue_system(phi1_real, responses_real, (q1, r1))
        minimum_norm = np.linalg.lstsq(phi1_real, responses_real, rcond=None)[0]
        assert np.array_equal(guarded, minimum_norm)

    def test_rank_deficient_basis_falls_back_to_lstsq(self):
        from repro.vectorfitting.fitting import _solve_residue_system

        phi, responses, _ = _vf_workload(9, n_ports=2)
        phi1_real = realify(np.hstack([phi, np.ones((phi.shape[0], 1))]))
        phi1_real[:, 2] = phi1_real[:, 1]  # exactly rank-deficient
        responses_real = realify(responses)
        q1, r1 = np.linalg.qr(phi1_real)
        guarded = _solve_residue_system(phi1_real, responses_real, (q1, r1))
        minimum_norm = np.linalg.lstsq(phi1_real, responses_real, rcond=None)[0]
        assert np.array_equal(guarded, minimum_norm)
