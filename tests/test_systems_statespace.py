"""Tests for :mod:`repro.systems.statespace`."""

import pickle

import numpy as np
import pytest

from repro.systems.statespace import DescriptorSystem, StateSpace


@pytest.fixture
def simple_system():
    """First-order low-pass: H(s) = 1 / (s + 1)."""
    return StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]])


class TestConstruction:
    def test_dimensions(self, small_system):
        assert small_system.order == 20
        assert small_system.n_inputs == 4
        assert small_system.n_outputs == 4
        assert small_system.n_ports == 4
        assert small_system.shape == (4, 4)

    def test_default_e_is_identity(self):
        sys_ = DescriptorSystem(None, [[-1.0]], [[1.0]], [[1.0]])
        assert np.allclose(sys_.E, np.eye(1))

    def test_default_d_is_zero(self, simple_system):
        assert np.allclose(simple_system.D, 0.0)

    def test_matrices_are_readonly(self, simple_system):
        with pytest.raises(ValueError):
            simple_system.A[0, 0] = 5.0

    def test_pickle_round_trip_keeps_matrices_readonly(self, small_system):
        clone = pickle.loads(pickle.dumps(small_system))
        matrices = (clone.E, clone.A, clone.B, clone.C, clone.D)
        assert all(np.array_equal(mine, theirs) for mine, theirs in zip(
            matrices, (small_system.E, small_system.A, small_system.B,
                       small_system.C, small_system.D)))
        assert not any(matrix.flags.writeable for matrix in matrices)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DescriptorSystem(np.eye(2), np.eye(3), np.ones((3, 1)), np.ones((1, 3)))
        with pytest.raises(ValueError):
            DescriptorSystem(np.eye(2), -np.eye(2), np.ones((3, 1)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            DescriptorSystem(np.eye(2), -np.eye(2), np.ones((2, 1)), np.ones((1, 3)))
        with pytest.raises(ValueError):
            DescriptorSystem(np.eye(2), -np.eye(2), np.ones((2, 1)), np.ones((1, 2)),
                             D=np.ones((2, 2)))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            StateSpace([[np.nan]], [[1.0]], [[1.0]])

    def test_n_ports_rejects_rectangular(self):
        sys_ = StateSpace(-np.eye(2), np.ones((2, 3)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            _ = sys_.n_ports


class TestTransferFunction:
    def test_first_order_lowpass(self, simple_system):
        assert simple_system.transfer_function(0.0)[0, 0] == pytest.approx(1.0)
        assert simple_system.transfer_function(1j)[0, 0] == pytest.approx(1.0 / (1j + 1.0))

    def test_call_alias(self, simple_system):
        assert simple_system(2.0)[0, 0] == pytest.approx(simple_system.transfer_function(2.0)[0, 0])

    def test_frequency_response_shape(self, small_system):
        response = small_system.frequency_response([1e2, 1e3, 1e4])
        assert response.shape == (3, 4, 4)

    def test_frequency_response_conjugate_symmetry(self, small_system):
        """Real systems satisfy H(-jw) = conj(H(jw))."""
        pos = small_system.evaluate_many([1j * 100.0])[0]
        neg = small_system.evaluate_many([-1j * 100.0])[0]
        assert np.allclose(neg, np.conj(pos))

    def test_descriptor_transfer_function(self):
        # E dx = -x + u, y = x  with E = 2 gives H(s) = 1 / (2s + 1)
        sys_ = DescriptorSystem([[2.0]], [[-1.0]], [[1.0]], [[1.0]])
        assert sys_.transfer_function(1.0)[0, 0] == pytest.approx(1.0 / 3.0)

    def test_feedthrough_included(self):
        sys_ = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[2.0]])
        assert sys_.transfer_function(0.0)[0, 0] == pytest.approx(3.0)


class TestTransformations:
    def test_to_real_drops_roundoff(self):
        sys_ = DescriptorSystem(np.eye(1) + 0j, [[-1.0 + 1e-12j]], [[1.0]], [[1.0]])
        real = sys_.to_real()
        assert real.is_real

    def test_to_real_rejects_truly_complex(self):
        sys_ = DescriptorSystem(np.eye(1), [[-1.0 + 1.0j]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            sys_.to_real()

    def test_copy_is_independent(self, simple_system):
        copy = simple_system.copy()
        assert copy is not simple_system
        assert np.allclose(copy.A, simple_system.A)

    def test_is_real_flag(self, small_system):
        assert small_system.is_real
        complex_sys = DescriptorSystem(np.eye(1), [[-1.0 + 2j]], [[1.0]], [[1.0]])
        assert not complex_sys.is_real
