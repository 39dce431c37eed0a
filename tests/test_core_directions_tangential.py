"""Tests for :mod:`repro.core.directions` and :mod:`repro.core.tangential`."""

import numpy as np
import pytest

from repro.core.directions import identity_directions, orthonormal_directions, vfti_directions
from repro.core.tangential import (
    LeftBlock,
    RightBlock,
    TangentialData,
    build_tangential_data,
)
from repro.data import sample_scattering
from repro.data.frequency import log_frequencies


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

    def test_identity_block_size_cap(self):
        with pytest.raises(ValueError):
            identity_directions(3, 4, 1)

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


class TestBlocks:
    def test_right_block_validation(self):
        with pytest.raises(ValueError):
            RightBlock(1j, np.ones((2, 2)), np.ones((3, 1)))

    def test_left_block_validation(self):
        with pytest.raises(ValueError):
            LeftBlock(1j, np.ones((2, 3)), np.ones((1, 3)))

    def test_conjugate_blocks(self):
        block = RightBlock(2j, np.ones((2, 1)), np.array([[1 + 1j], [2 - 1j]]))
        conj = block.conjugate()
        assert conj.point == -2j
        assert np.allclose(conj.values, np.conj(block.values))


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
        system, data, tangential = small_tangential
        for block in tangential.right_blocks:
            expected = system.transfer_function(block.point) @ block.directions
            assert np.allclose(block.values, expected, atol=1e-10)
        for block in tangential.left_blocks:
            expected = block.directions @ system.transfer_function(block.point)
            assert np.allclose(block.values, expected, atol=1e-10)

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

    def test_left_right_points_disjoint_enforced(self):
        right = [RightBlock(1j, np.eye(2), np.eye(2)), RightBlock(-1j, np.eye(2), np.eye(2))]
        left = [LeftBlock(1j, np.eye(2), np.eye(2)), LeftBlock(-1j, np.eye(2), np.eye(2))]
        with pytest.raises(ValueError, match="disjoint"):
            TangentialData(right, left, conjugate_pairs=True)

    def test_conjugate_pair_structure_enforced(self):
        right = [RightBlock(1j, np.eye(2), np.eye(2)), RightBlock(3j, np.eye(2), np.eye(2))]
        left = [LeftBlock(2j, np.eye(2), np.eye(2)), LeftBlock(-2j, np.eye(2), np.eye(2))]
        with pytest.raises(ValueError, match="conjugate"):
            TangentialData(right, left, conjugate_pairs=True)

    @staticmethod
    def _blocks(side, layout):
        """Blocks at ``(point, block size)``; the other side gets a valid pair."""
        def right(point, t):
            return RightBlock(point, np.ones((2, t)), np.ones((2, t)))

        def left(point, t):
            return LeftBlock(point, np.ones((t, 2)), np.ones((t, 2)))

        make, other = (right, left) if side == "right" else (left, right)
        blocks = [make(point, t) for point, t in layout]
        valid = [other(50j, 1), other(-50j, 1)]
        return (blocks, valid) if side == "right" else (valid, blocks)

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_conjugate_pair_errors_name_the_first_failing_pair(self, side):
        good = [(1j, 2), (-1j, 2), (2j, 1), (-2j, 1)]
        cases = [
            # third pair: size mismatch, then a non-conjugate point
            (good + [(3j, 2), (-3j, 1)],
             f"{side} conjugate pair 2 has mismatched block sizes"),
            (good + [(3j, 1), (4j, 1)],
             f"{side} blocks 4 and 5 are not a conjugate pair ({3j} vs {4j})"),
            # the first failing pair wins over a later one, whatever the failure
            (good + [(3j, 1), (4j, 1), (5j, 2), (-5j, 1)],
             f"{side} blocks 4 and 5 are not a conjugate pair ({3j} vs {4j})"),
            (good + [(3j, 2), (4j, 1), (5j, 1), (6j, 1)],
             f"{side} conjugate pair 2 has mismatched block sizes"),
        ]
        for layout, message in cases:
            right, left = self._blocks(side, layout)
            with pytest.raises(ValueError) as failure:
                TangentialData(right, left, conjugate_pairs=True)
            assert str(failure.value) == message

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
