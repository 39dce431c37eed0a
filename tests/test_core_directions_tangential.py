"""Tests for :mod:`repro.core.directions` and :mod:`repro.core.tangential`."""

import numpy as np
import pytest

from repro.core.directions import orthonormal_directions, vfti_directions
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tangential import TangentialData, build_tangential_data
from repro.data import FrequencyData, sample_scattering
from repro.data.frequency import log_frequencies

from oracles import identity_directions, tangential_matrices_reference


class TestDirections:
    def test_identity_shapes_and_orthonormality(self):
        dirs = identity_directions(5, 3, 4)
        assert len(dirs) == 4
        for d in dirs:
            assert d.shape == (5, 3)
            assert np.allclose(d.T @ d, np.eye(3))

    def test_identity_stride_covers_all_ports(self):
        dirs = identity_directions(4, 2, 4)
        probed = set()
        for d in dirs:
            probed.update(np.flatnonzero(d.sum(axis=1)))
        assert probed == {0, 1, 2, 3}

    def test_orthonormal_shapes(self):
        dirs = orthonormal_directions(6, 2, 3, seed=1)
        assert len(dirs) == 3
        for d in dirs:
            assert d.shape == (6, 2)
            assert np.allclose(d.T @ d, np.eye(2), atol=1e-12)

    def test_orthonormal_reproducible(self):
        a = orthonormal_directions(4, 2, 2, seed=9)
        b = orthonormal_directions(4, 2, 2, seed=9)
        assert all(np.allclose(x, y) for x, y in zip(a, b))

    def test_vfti_directions_cycle(self):
        dirs = vfti_directions(3, 5)
        assert all(d.shape == (3, 1) for d in dirs)
        picked = [int(np.argmax(d)) for d in dirs]
        assert picked == [0, 1, 2, 0, 1]

    def test_vfti_directions_start_offset(self):
        dirs = vfti_directions(3, 2, start=2)
        assert int(np.argmax(dirs[0])) == 2


@pytest.fixture(scope="module")
def small_tangential(request):
    """Tangential data built from an 8-sample sweep of the shared small system."""
    from repro.systems.random_systems import random_stable_system

    system = random_stable_system(order=20, n_ports=4, feedthrough=0.1, seed=3)
    data = sample_scattering(system, log_frequencies(1e1, 1e5, 8))
    directions = identity_directions(4, 2, 4)
    tangential = build_tangential_data(
        data,
        right_directions=directions,
        left_directions=directions,
        include_conjugates=True,
    )
    return system, data, tangential


class TestTangentialData:
    def test_shapes(self, small_tangential):
        _, data, tangential = small_tangential
        assert tangential.n_inputs == 4
        assert tangential.n_outputs == 4
        # 4 right samples x block 2 x (original + conjugate) = 16 columns
        assert tangential.k_right == 16
        assert tangential.k_left == 16
        assert tangential.R.shape == (4, 16)
        assert tangential.W.shape == (4, 16)
        assert tangential.L.shape == (16, 4)
        assert tangential.V.shape == (16, 4)
        assert tangential.Lambda.shape == (16, 16)
        assert tangential.M.shape == (16, 16)
        assert tangential.n_sample_matrices == 8

    def test_points_come_in_conjugate_pairs(self, small_tangential):
        _, _, tangential = small_tangential
        lam = tangential.lambda_points
        # points repeat per block (t=2) and alternate +j / -j per pair
        assert np.allclose(lam[0], np.conj(lam[2]))
        assert np.allclose(lam[:2], lam[0])

    def test_values_satisfy_definition(self, small_tangential):
        """Every block of ``W`` and ``V``, mirrored ones included, is ``H R`` / ``L H``."""
        system, data, tangential = small_tangential
        r, w, lefts, v = tangential.R, tangential.W, tangential.L, tangential.V
        for j, point in enumerate(tangential.lambda_points):
            expected = system.transfer_function(point) @ r[:, j]
            assert np.allclose(w[:, j], expected, atol=1e-10)
        for i, point in enumerate(tangential.mu_points):
            expected = lefts[i] @ system.transfer_function(point)
            assert np.allclose(v[i], expected, atol=1e-10)

    def test_mirrored_blocks_are_implied_not_stored(self, small_tangential):
        _, _, tangential = small_tangential
        assert tangential.right_directions.shape == (4, 8)
        assert tangential.left_values.shape == (8, 4)
        assert np.array_equal(tangential.W[:, 2:4], tangential.right_values[:, :2].conj())
        assert np.array_equal(tangential.V[2:4], tangential.left_values[:2].conj())
        assert tangential.right_block_sizes == (2,) * 8

    def test_interpolation_residuals_zero_for_true_system(self, small_tangential):
        system, _, tangential = small_tangential
        right, left = tangential.interpolation_residuals(system)
        assert np.max(right) < 1e-9
        assert np.max(left) < 1e-9

    def test_subset_keeps_pairs(self, small_tangential):
        _, _, tangential = small_tangential
        subset = tangential.subset([0, 2], [1])
        assert subset.n_right_samples == 2
        assert subset.n_left_samples == 1
        assert subset.conjugate_pairs
        assert subset.k_right == 8

    def test_subset_validation(self, small_tangential):
        _, _, tangential = small_tangential
        with pytest.raises(ValueError):
            tangential.subset([], [0])
        with pytest.raises(ValueError):
            tangential.subset([0], [99])

    @staticmethod
    def _stacked(**changes):
        """Valid one-sample-per-side stacked data (p = 3, m = 2, t = 2), with ``changes``."""
        fields = dict(
            right_points=[1j], right_sizes=[2],
            right_directions=np.ones((2, 2)), right_values=np.ones((3, 2)),
            left_points=[2j], left_sizes=[2],
            left_directions=np.ones((2, 3)), left_values=np.ones((2, 2)),
        )
        fields.update(changes)
        return TangentialData(**fields)

    def test_constructor_accepts_stacked_data(self):
        data = self._stacked()
        assert (data.n_outputs, data.n_inputs) == (3, 2)
        assert data.k_right == data.k_left == 4
        assert data.right_points.dtype == complex and data.right_sizes.dtype == int

    @pytest.mark.parametrize("changes,message", [
        ({"right_points": []}, "at least one right and one left sample"),
        ({"left_sizes": [1, 1]}, "left data needs one positive block size per sample point"),
        ({"right_sizes": [0]}, "right data needs one positive block size per sample point"),
        ({"right_values": np.ones((3, 3))}, "right directions and values must have one line"),
        ({"left_directions": np.ones((1, 3))}, "left directions and values must have one line"),
        ({"left_values": np.ones((2, 3))}, "disagree on the system dimensions"),
        ({"right_directions": np.ones(2)}, "right_directions must have 2 dimension"),
    ], ids=["no-right-sample", "sizes-per-point", "empty-block", "right-lines", "left-lines",
            "dimensions", "vector-directions"])
    def test_constructor_validates_shapes(self, changes, message):
        with pytest.raises(ValueError, match=message):
            self._stacked(**changes)

    @pytest.mark.parametrize("conjugate_pairs", [True, False])
    def test_left_right_points_disjoint_enforced(self, conjugate_pairs):
        with pytest.raises(ValueError, match="disjoint"):
            self._stacked(left_points=[1j], conjugate_pairs=conjugate_pairs)

    def test_mirrored_points_count_for_disjointness(self):
        """``-j`` on the left meets the implied mirror of ``+j`` on the right."""
        self._stacked(left_points=[-1j], conjugate_pairs=False)
        with pytest.raises(ValueError, match="disjoint"):
            self._stacked(left_points=[-1j], conjugate_pairs=True)

    def test_builder_rejects_overlapping_indices(self, small_tangential):
        _, data, _ = small_tangential
        directions = identity_directions(4, 1, 2)
        with pytest.raises(ValueError):
            build_tangential_data(
                data,
                right_directions=directions,
                left_directions=directions,
                right_indices=[0, 1],
                left_indices=[1, 2],
            )

    @pytest.mark.parametrize("right,left,message", [
        # a negative index used to select from the end of the sweep
        ([0, -1], [1, 3], r"right sample index -1 is outside \[0, 6\)"),
        # an index past the end used to raise a bare IndexError
        ([0, 9], [1, 3], r"right sample index 9 is outside \[0, 6\)"),
        # -1 is sample 5: it used to land on both sides and fail as "disjoint"
        ([0, 5], [1, -1], r"left sample index -1 is outside \[0, 6\)"),
    ], ids=["negative", "past-the-end", "negative-on-both-sides"])
    def test_builder_rejects_indices_outside_the_sweep(self, small_tangential, right, left,
                                                       message):
        system = small_tangential[0]
        data = sample_scattering(system, log_frequencies(1e1, 1e5, 6))
        directions = identity_directions(4, 1, 2)
        with pytest.raises(ValueError, match=message):
            build_tangential_data(data, right_directions=directions,
                                  left_directions=directions,
                                  right_indices=right, left_indices=left)

    def test_builder_direction_count_mismatch(self, small_tangential):
        _, data, _ = small_tangential
        with pytest.raises(ValueError):
            build_tangential_data(
                data,
                right_directions=identity_directions(4, 1, 2),
                left_directions=identity_directions(4, 1, 4),
            )

    def test_no_conjugates_option(self, small_tangential):
        _, data, _ = small_tangential
        directions = identity_directions(4, 2, 4)
        tangential = build_tangential_data(
            data,
            right_directions=directions,
            left_directions=directions,
            include_conjugates=False,
        )
        assert tangential.k_right == 8
        assert not tangential.conjugate_pairs


@st.composite
def tangential_problems(draw):
    """Random rectangular data, a right/left split and mixed-size direction blocks."""
    n_outputs, n_inputs = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n_samples = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    data = FrequencyData(
        np.cumsum(rng.uniform(0.1, 10.0, n_samples)),
        rng.normal(size=(n_samples, n_outputs, n_inputs))
        + 1j * rng.normal(size=(n_samples, n_outputs, n_inputs)),
    )
    order = rng.permutation(n_samples)
    n_right = draw(st.integers(1, n_samples - 1))
    n_left = draw(st.integers(1, n_samples - n_right))
    right_indices = [int(i) for i in order[:n_right]]
    left_indices = [int(i) for i in order[n_right:n_right + n_left]]
    complex_directions = draw(st.booleans())

    def directions(n_rows, count):
        blocks = []
        for _ in range(count):
            t = draw(st.integers(1, 3))
            block = rng.normal(size=(n_rows, t))
            if complex_directions:
                block = block + 1j * rng.normal(size=(n_rows, t))
            blocks.append(block)
        return blocks

    return dict(
        data=data,
        right_directions=directions(n_inputs, n_right),
        left_directions=directions(n_outputs, n_left),
        right_indices=right_indices,
        left_indices=left_indices,
        include_conjugates=draw(st.booleans()),
    )


def _assert_same_bits(got, want, name):
    assert got.dtype == want.dtype and got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


@settings(max_examples=60, deadline=None)
@given(tangential_problems(), st.data())
def test_stacked_data_equals_the_per_block_construction_bitwise(problem, draw):
    """``R, W, L, V`` and the points are, byte for byte, the hstack/vstack of
    explicit per-sample blocks and their conjugates; a subset is, byte for
    byte, the data built from the selected samples alone."""
    tangential = build_tangential_data(**problem)
    for name, want in tangential_matrices_reference(**problem).items():
        _assert_same_bits(getattr(tangential, name), want, name)

    right = draw.draw(st.lists(st.integers(0, tangential.n_right_samples - 1), min_size=1))
    left = draw.draw(st.lists(st.integers(0, tangential.n_left_samples - 1), min_size=1))
    right_kept, left_kept = sorted(set(right)), sorted(set(left))
    direct = build_tangential_data(
        problem["data"],
        right_directions=[problem["right_directions"][i] for i in right_kept],
        left_directions=[problem["left_directions"][i] for i in left_kept],
        right_indices=[problem["right_indices"][i] for i in right_kept],
        left_indices=[problem["left_indices"][i] for i in left_kept],
        include_conjugates=problem["include_conjugates"],
    )
    subset = tangential.subset(right, left)
    assert subset.conjugate_pairs == direct.conjugate_pairs
    assert subset.right_block_sizes == direct.right_block_sizes
    assert subset.left_block_sizes == direct.left_block_sizes
    for name in ("right_points", "right_sizes", "right_directions", "right_values",
                 "left_points", "left_sizes", "left_directions", "left_values",
                 "R", "W", "L", "V", "lambda_points", "mu_points"):
        _assert_same_bits(getattr(subset, name), getattr(direct, name), name)
