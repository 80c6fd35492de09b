from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import annihilation, creation, number_operator

from fockthermo.errors import InvalidDimensionError
from fockthermo.fockspace import DensityMatrix, validate_density


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


class TestDensityMatrix:
    def test_vacuum_projector_passes(self):
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
        report = validate_density(rho)
        assert report.passed
        assert report.hermiticity_defect == 0.0
        assert report.trace_defect == 0.0
        assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-15)

    def test_small_coherence_injection_stays_hermitian(self):
        mat = np.diag([0.5, 0.5]).astype(complex)
        mat[0, 1] = mat[1, 0] = 1e-6
        report = validate_density(DensityMatrix(mat))
        assert report.hermitian_ok
        assert report.trace_ok and report.positive_ok
        # a two-level state parks half its weight on the top level, which the
        # leakage monitor rightly flags
        assert not report.leakage_ok
        assert not report.passed

    def test_trace_defect_reported(self):
        rho = DensityMatrix(np.diag([0.499, 0.5]).astype(complex))
        report = validate_density(rho)
        assert report.trace_defect == pytest.approx(1e-3, rel=1e-9)
        assert not report.trace_ok
        assert not report.passed
        assert "trace=FAIL" in report.summary()

    def test_negative_eigenvalue_flagged(self):
        rho = DensityMatrix(np.diag([1.1, -0.1]).astype(complex))
        report = validate_density(rho)
        assert not report.positive_ok

    def test_leakage_flagged_against_profile(self):
        mat = np.diag([0.9, 0.0, 0.1]).astype(complex)
        report = validate_density(DensityMatrix(mat))
        assert not report.leakage_ok
        assert report.top_level_population == pytest.approx(0.1)

    def test_matrix_is_immutable(self):
        rho = DensityMatrix(np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 0.5

    def test_nonsquare_rejected(self):
        with pytest.raises(InvalidDimensionError):
            DensityMatrix(np.zeros((2, 3), dtype=complex))

    def test_nonfinite_rejected(self):
        mat = np.eye(2, dtype=complex)
        mat[0, 0] = np.nan
        with pytest.raises(InvalidDimensionError):
            DensityMatrix(mat)

    def test_valid_state_spectrum_is_real_and_normalized(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        mat = m @ m.conj().T
        mat /= mat.trace()
        eig = np.linalg.eigvals(DensityMatrix(mat).mat)
        assert np.max(np.abs(eig.imag)) < 1e-10
        assert eig.real.sum() == pytest.approx(1.0, abs=1e-9)
