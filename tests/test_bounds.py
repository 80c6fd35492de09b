from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockthermo.bath import BathParams, rates, thermal_occupation, thermal_occupation_dT
from fockthermo.bounds import (
    SCALING_TABLE_HEADER,
    BoundKind,
    _dlog_occupation,
    bound_coherent,
    bound_fock_linear,
    bound_fock_quadratic,
    bound_squeezed,
    enqfi,
    scaling_table,
    scaling_table_csv,
    short_time_valid,
)
from fockthermo.errors import DomainError

# Frozen from high-precision evaluation at omega=1, T=0.5, Gamma0=0.1, t=0.01.
FOCK_LINEAR_REF = 0.007152434380288741
FOCK_QUADRATIC_REF = 4.0157288129897015e-06
SQUEEZED_REF = 0.017120423142287917
COHERENT_REF = 0.0021400528927859896


class TestClosedForms:
    def test_zero_time(self, fig_bath):
        assert bound_fock_linear(1, fig_bath, 0.0).value == 0.0
        assert bound_fock_quadratic(1, fig_bath, 0.0).value == 0.0
        assert bound_squeezed(1.0, fig_bath, 0.0).value == 0.0
        assert bound_coherent(1.0, fig_bath, 0.0).value == 0.0

    def test_reference_values(self, fig_bath):
        assert bound_fock_linear(1, fig_bath, 0.01).value == pytest.approx(
            FOCK_LINEAR_REF, rel=1e-12
        )
        assert bound_fock_quadratic(1, fig_bath, 0.01).value == pytest.approx(
            FOCK_QUADRATIC_REF, rel=1e-12
        )
        assert bound_squeezed(1.0, fig_bath, 0.01).value == pytest.approx(SQUEEZED_REF, rel=1e-12)
        assert bound_coherent(1.0, fig_bath, 0.01).value == pytest.approx(COHERENT_REF, rel=1e-12)

    def test_quadratic_keeps_emission_weight_at_n0(self, fig_bath):
        # at n=0 only the (n+1) emission term survives and stays nonzero
        r = rates(fig_bath)
        dn = thermal_occupation_dT(fig_bath.omega, fig_bath.T)
        expected = 0.01**2 * (r.gamma0 * dn / r.gamma_minus) ** 2 * r.gamma_plus * r.gamma_minus
        result = bound_fock_quadratic(0, fig_bath, 0.01)
        assert result.value == pytest.approx(expected, rel=1e-12)
        assert result.value > 0.0

    def test_vacuum_energy_gaussian_bounds_vanish(self, fig_bath):
        assert bound_squeezed(0.0, fig_bath, 0.01).value == 0.0
        assert bound_coherent(0.0, fig_bath, 0.01).value == 0.0

    def test_linear_law_time_homogeneity(self, fig_bath):
        assert (
            bound_fock_linear(2, fig_bath, 0.02).value
            == 2.0 * bound_fock_linear(2, fig_bath, 0.01).value
        )

    def test_gaussian_laws_time_homogeneity(self, fig_bath):
        assert bound_squeezed(1.5, fig_bath, 0.02).value == pytest.approx(
            4.0 * bound_squeezed(1.5, fig_bath, 0.01).value, rel=1e-14
        )
        assert bound_coherent(1.5, fig_bath, 0.02).value == pytest.approx(
            4.0 * bound_coherent(1.5, fig_bath, 0.01).value, rel=1e-14
        )

    def test_linear_law_grows_with_n(self, fig_bath):
        vals = [bound_fock_linear(n, fig_bath, 0.01).value for n in range(11)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_coherent_below_squeezed(self, fig_bath):
        for nbar in (0.5, 1.0, 3.0):
            coh = bound_coherent(nbar, fig_bath, 0.01).value
            sq = bound_squeezed(nbar, fig_bath, 0.01).value
            assert coh <= sq
            assert coh / sq == pytest.approx(1.0 / (4.0 * (nbar + 1.0)), rel=1e-12)

    def test_underflow_returns_zero_with_flag(self):
        cold = BathParams(T=1.0 / 800.0)
        lin = bound_fock_linear(1, cold, 0.01)
        quad = bound_fock_quadratic(1, cold, 0.01)
        assert lin.value == 0.0 and lin.underflow
        assert quad.value == 0.0 and quad.underflow

    def test_validity_flag(self, fig_bath):
        assert bound_fock_linear(1, fig_bath, 0.01).valid_short_time
        assert not bound_fock_linear(5, fig_bath, 1.0).valid_short_time
        assert short_time_valid(fig_bath, 0.1, 4.0)  # 0.1*0.1*9 = 0.09
        assert not short_time_valid(fig_bath, 0.12, 4.0)

    def test_domain_errors(self, fig_bath):
        with pytest.raises(DomainError):
            bound_fock_linear(-1, fig_bath, 0.01)
        with pytest.raises(DomainError):
            bound_squeezed(1.0, fig_bath, -0.01)

    @pytest.mark.parametrize(
        "bound, bath, t",
        [
            pytest.param(bound_squeezed, dict(T=1e-200), 0.01, id="squeezed-T-squared-underflows"),
            pytest.param(bound_coherent, dict(T=1e-200), 0.01, id="coherent-T-squared-underflows"),
            pytest.param(bound_fock_quadratic, {}, 1e300, id="quadratic-t-squared-overflows"),
            pytest.param(bound_squeezed, {}, 1e300, id="squeezed-t-squared-overflows"),
            pytest.param(bound_coherent, {}, 1e300, id="coherent-t-squared-overflows"),
            pytest.param(bound_fock_linear, dict(gamma=1e10), 1e300, id="linear-product-overflows"),
        ],
    )
    def test_unrepresentable_value_is_a_domain_error(self, bound, bath, t):
        with pytest.raises(DomainError, match="not representable"):
            bound(1, BathParams(**bath), t)

    def test_dlog_occupation_bits_kept_wherever_T_squared_is_finite(self):
        for T in np.geomspace(1e-3, 1e150, 2000):
            bath = BathParams(T=float(T))
            old = (1.0 / bath.T**2) * (thermal_occupation(1.0, bath.T) + 1.0)
            assert _dlog_occupation(bath) == old

    def test_fock_quadratic_bits_kept_where_no_factor_underflows(self):
        for T in np.geomspace(1e-2, 1e100, 400):
            bath = BathParams(T=float(T))
            r = rates(bath)
            d_rate = r.gamma0 * thermal_occupation_dT(1.0, bath.T)
            term = (d_rate / r.gamma_plus) ** 2 + 2.0 * (d_rate / r.gamma_minus) ** 2
            for t in (1e-6, 0.01, 1.0):
                old = t**2 * term * r.gamma_plus * r.gamma_minus
                assert bound_fock_quadratic(1, bath, t).value == old

    def test_bounds_beyond_the_overflow_of_T_squared(self):
        hot = BathParams(T=1e160)
        # dT nbar -> 1/omega and Gamma- / Gamma+ -> 1: t^2 Gamma0^2 (2n + 1)
        assert bound_fock_quadratic(1, hot, 0.01).value == pytest.approx(3e-6, rel=1e-12)
        assert _dlog_occupation(hot) == pytest.approx(1e-160, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        logx=st.floats(min_value=-1.0, max_value=math.log10(20.0)),
        n=st.integers(min_value=0, max_value=10),
    )
    def test_nonnegative_on_grid(self, logx, n):
        bath = BathParams(omega=1.0, T=1.0 / 10.0**logx)
        t = 0.01
        assert bound_fock_linear(n, bath, t).value >= 0.0
        assert bound_fock_quadratic(n, bath, t).value >= 0.0
        assert bound_squeezed(float(n), bath, t).value >= 0.0
        assert bound_coherent(float(n), bath, t).value >= 0.0


class TestEnqfi:
    def test_fock_definition(self, fig_bath):
        lin = bound_fock_linear(2, fig_bath, 0.01)
        assert enqfi(lin, 2.0).value == lin.value / 2.0

    def test_coherent_enqfi_is_energy_independent(self, fig_bath):
        dlog = thermal_occupation_dT(1.0, 0.5) / thermal_occupation(1.0, 0.5)
        for nbar in (0.5, 1.0, 4.0):
            result = enqfi(bound_coherent(nbar, fig_bath, 0.01), nbar)
            assert result.value == pytest.approx(dlog**2 * 1e-4, rel=1e-12)

    def test_squeezed_to_coherent_ratio(self, fig_bath):
        for nbar in (0.5, 2.0):
            sq = enqfi(bound_squeezed(nbar, fig_bath, 0.01), nbar).value
            coh = enqfi(bound_coherent(nbar, fig_bath, 0.01), nbar).value
            assert sq / coh == pytest.approx(4.0 * (nbar + 1.0), rel=1e-12)

    def test_zero_energy_rejected(self, fig_bath):
        with pytest.raises(DomainError):
            enqfi(bound_coherent(1.0, fig_bath, 0.01), 0.0)


class TestScalingTable:
    def test_row_orderings(self, fig_bath):
        table = scaling_table(fig_bath, [0, 1, 2, 3], 0.01)
        for row in table:
            assert row.coherent <= row.squeezed
        n0 = table[0]
        # absorption-only reduction at n=0
        nT = thermal_occupation(fig_bath.omega, fig_bath.T)
        dn = thermal_occupation_dT(fig_bath.omega, fig_bath.T)
        assert n0.fock_linear == pytest.approx(0.01 * 0.1 * dn**2 / nT, rel=1e-12)
        assert math.isnan(n0.enqfi_fock_linear)

    def test_numeric_columns_increase_with_n(self, fig_bath):
        table = scaling_table(fig_bath, [1, 2, 3], 0.5, include_numerics=True)
        cfis = [row.cfi_fock for row in table]
        qfis = [row.qfi_fock for row in table]
        assert all(b > a for a, b in zip(cfis, cfis[1:]))
        assert all(b > a for a, b in zip(qfis, qfis[1:]))

    def test_csv_schema(self, fig_bath):
        text = scaling_table_csv(scaling_table(fig_bath, [1], 0.01))
        lines = text.strip().split("\n")
        assert lines[0] == SCALING_TABLE_HEADER
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "1"
        # numerics columns empty when not requested
        assert lines[1].split(",")[9] == ""

    def test_kinds_tagged(self, fig_bath):
        assert bound_fock_linear(1, fig_bath, 0.01).kind is BoundKind.FOCK_LINEAR
        assert bound_squeezed(1.0, fig_bath, 0.01).kind is BoundKind.SQUEEZED_VACUUM
