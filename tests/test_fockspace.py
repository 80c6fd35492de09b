from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import annihilation, creation, number_operator

from fockthermo.errors import InvalidDimensionError
from fockthermo.fockspace import BandState


class TestOperators:
    def test_annihilation_dim2(self):
        np.testing.assert_array_equal(annihilation(2), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_annihilation_defining_entry(self):
        a = annihilation(3)
        assert a[1, 2] == pytest.approx(np.sqrt(2.0), abs=0)
        assert a[0, 1] == 1.0

    def test_number_operator_identity(self):
        a = annihilation(4)
        np.testing.assert_allclose(a.conj().T @ a, np.diag([0.0, 1.0, 2.0, 3.0]), atol=0)

    def test_number_operator_diagonal(self):
        np.testing.assert_array_equal(number_operator(3), np.diag([0.0, 1.0, 2.0]))

    def test_number_expectation_on_fock_level(self):
        n_op = number_operator(5)
        rho = np.zeros((5, 5), dtype=complex)
        rho[2, 2] = 1.0
        assert np.trace(rho @ n_op).real == pytest.approx(2.0, abs=0)

    @pytest.mark.parametrize("dim", [1, 0, -3])
    def test_small_dimension_rejected(self, dim):
        with pytest.raises(InvalidDimensionError):
            annihilation(dim)
        with pytest.raises(InvalidDimensionError):
            number_operator(dim)

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(min_value=2, max_value=64))
    def test_creation_is_adjoint(self, dim):
        np.testing.assert_array_equal(creation(dim), annihilation(dim).conj().T)

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(min_value=2, max_value=64))
    def test_commutator_identity_below_truncation_corner(self, dim):
        a = annihilation(dim)
        comm = a @ a.conj().T - a.conj().T @ a
        block = comm[: dim - 1, : dim - 1]
        np.testing.assert_allclose(block, np.eye(dim - 1), atol=1e-13)
        # the corner is the truncation artifact: -(dim-1) instead of +1
        assert comm[dim - 1, dim - 1].real == pytest.approx(-(dim - 1.0))


class TestBandState:
    def test_populations_are_immutable(self):
        state = BandState(np.array([0.5, 0.5]))
        assert state.populations.dtype == np.float64
        with pytest.raises(ValueError):
            state.populations[0] = 0

    @pytest.mark.parametrize("populations", [[[1.0, 0.0], [0.0, 0.0]], [1.0], []],
                             ids=["matrix", "one-level", "empty"])
    def test_mismatched_shapes_rejected(self, populations):
        with pytest.raises(InvalidDimensionError):
            BandState(np.array(populations))
