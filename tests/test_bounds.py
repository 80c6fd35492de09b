from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import cfi_linear_coefficient, cfi_quadratic_coefficient

from fockthermo import bounds
from fockthermo.bath import BathParams, Rates, rates, thermal_occupation, thermal_occupation_dT
from fockthermo.bounds import (
    ScalingRow,
    _dlog_occupation,
    bound_coherent,
    bound_fock_linear,
    bound_fock_quadratic,
    bound_squeezed,
    scaling_table,
    short_time_valid,
)
from fockthermo.errors import DomainError
from fockthermo.fisher import FisherMethod, qfi_point
from fockthermo.probes import ProbeSpec, default_dim, make_state
from fockthermo.tables import csv_text

# Frozen from high-precision evaluation at omega=1, T=0.5, Gamma0=0.1, t=0.01.
FOCK_LINEAR_REF = 0.007152434380288741
FOCK_QUADRATIC_REF = 4.0157288129897015e-06
SQUEEZED_REF = 0.017120423142287917
COHERENT_REF = 0.0021400528927859896


class TestClosedForms:
    def test_zero_time(self, fig_bath):
        assert bound_fock_linear(1, fig_bath, 0.0) == 0.0
        assert bound_fock_quadratic(1, fig_bath, 0.0) == 0.0
        assert bound_squeezed(1.0, fig_bath, 0.0) == 0.0
        assert bound_coherent(1.0, fig_bath, 0.0) == 0.0

    def test_reference_values(self, fig_bath):
        assert bound_fock_linear(1, fig_bath, 0.01) == pytest.approx(
            FOCK_LINEAR_REF, rel=1e-12
        )
        assert bound_fock_quadratic(1, fig_bath, 0.01) == pytest.approx(
            FOCK_QUADRATIC_REF, rel=1e-12
        )
        assert bound_squeezed(1.0, fig_bath, 0.01) == pytest.approx(SQUEEZED_REF, rel=1e-12)
        assert bound_coherent(1.0, fig_bath, 0.01) == pytest.approx(COHERENT_REF, rel=1e-12)

    def test_quadratic_keeps_emission_weight_at_n0(self, fig_bath):
        # at n=0 only the (n+1) emission term survives and stays nonzero
        r = rates(fig_bath)
        dn = thermal_occupation_dT(fig_bath.omega, fig_bath.T)
        expected = 0.01**2 * (r.gamma0 * dn / r.gamma_minus) ** 2 * r.gamma_plus * r.gamma_minus
        result = bound_fock_quadratic(0, fig_bath, 0.01)
        assert result == pytest.approx(expected, rel=1e-12)
        assert result > 0.0

    def test_vacuum_energy_gaussian_bounds_vanish(self, fig_bath):
        assert bound_squeezed(0.0, fig_bath, 0.01) == 0.0
        assert bound_coherent(0.0, fig_bath, 0.01) == 0.0

    def test_coherent_below_squeezed(self, fig_bath):
        for nbar in (0.5, 1.0, 3.0):
            coh = bound_coherent(nbar, fig_bath, 0.01)
            sq = bound_squeezed(nbar, fig_bath, 0.01)
            assert coh <= sq
            assert coh / sq == pytest.approx(1.0 / (4.0 * (nbar + 1.0)), rel=1e-12)

    def test_underflow_returns_zero_with_flag(self):
        cold = BathParams(T=1.0 / 800.0)
        assert bound_fock_linear(1, cold, 0.01) == 0.0
        assert bound_fock_quadratic(1, cold, 0.01) == 0.0

    def test_validity_flag(self, fig_bath):
        assert short_time_valid(fig_bath, 0.01, 1)
        assert not short_time_valid(fig_bath, 1.0, 5)  # 0.1*1*11 = 1.1
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
                assert bound_fock_quadratic(1, bath, t) == old

    def test_bounds_beyond_the_overflow_of_T_squared(self):
        hot = BathParams(T=1e160)
        # dT nbar -> 1/omega and Gamma- / Gamma+ -> 1: t^2 Gamma0^2 (2n + 1)
        assert bound_fock_quadratic(1, hot, 0.01) == pytest.approx(3e-6, rel=1e-12)
        assert _dlog_occupation(hot) == pytest.approx(1e-160, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        logx=st.floats(min_value=-1.0, max_value=math.log10(20.0)),
        n=st.integers(min_value=0, max_value=10),
    )
    def test_nonnegative_on_grid(self, logx, n):
        bath = BathParams(omega=1.0, T=1.0 / 10.0**logx)
        t = 0.01
        assert bound_fock_linear(n, bath, t) >= 0.0
        assert bound_fock_quadratic(n, bath, t) >= 0.0
        assert bound_squeezed(float(n), bath, t) >= 0.0
        assert bound_coherent(float(n), bath, t) >= 0.0


@pytest.mark.parametrize("T", [0.05, 0.5, 5.0])
def test_fock_linear_law_is_the_generator_coefficient(T):
    # Gamma0 does not depend on T, so dGamma+/dT = dGamma-/dT = Gamma0 nbar'
    bath = BathParams(T=T)
    r = rates(bath)
    d_rate = r.gamma0 * thermal_occupation_dT(bath.omega, T)
    drates = Rates(gamma_plus=d_rate, gamma_minus=d_rate, gamma0=0.0)
    for n in range(1, 6):
        p0 = np.zeros(n + 3)
        p0[n] = 1.0
        coefficient = cfi_linear_coefficient(p0, r, drates)
        assert bound_fock_linear(n, bath, 1.0) == pytest.approx(coefficient, rel=1e-12)


def test_gaussian_cfi_curves_follow_the_generator_coefficients(fig_bath):
    # Gamma0 t = 1e-5. The squeezed vacuum's empty odd levels fill at a rate
    # ~ t, so its CFI is linear (criterion 1b's slope near 1); the coherent
    # probe's full support leaves only the t^2 term (criterion 1a's slope 2).
    t = 1e-4
    r = rates(fig_bath)
    d_rate = r.gamma0 * thermal_occupation_dT(fig_bath.omega, fig_bath.T)
    drates = Rates(gamma_plus=d_rate, gamma_minus=d_rate, gamma0=0.0)

    squeezed = ProbeSpec.squeezed(math.asinh(1.0))
    p0 = make_state(squeezed, default_dim(squeezed)).populations
    linear = cfi_linear_coefficient(p0, r, drates)
    assert linear == pytest.approx(0.321076, rel=1e-5)
    cfi = qfi_point(squeezed, fig_bath, t, FisherMethod.CFI_NUMBER).value
    assert cfi / t == pytest.approx(linear, rel=1e-3)

    coherent = ProbeSpec.coherent(1.0)
    p0 = make_state(coherent, 40).populations
    quadratic = cfi_quadratic_coefficient(p0, drates)
    assert quadratic == pytest.approx(0.015728, rel=1e-4)
    assert cfi_linear_coefficient(p0, r, drates) == 0.0  # no empty level to feed
    cfi = qfi_point(coherent, fig_bath, t, FisherMethod.CFI_NUMBER, dim=40).value
    assert cfi / t**2 == pytest.approx(quadratic, rel=1e-3)


class TestEnqfi:
    # the scaling table's enqfi_* columns: each closed form per mean photon, nbar = n
    def test_fock_definition(self, fig_bath):
        for row in scaling_table(fig_bath, [1, 2, 4], 0.01):
            assert row.enqfi_fock_linear == row.fock_linear / row.n

    def test_coherent_enqfi_is_energy_independent(self, fig_bath):
        dlog = thermal_occupation_dT(1.0, 0.5) / thermal_occupation(1.0, 0.5)
        for row in scaling_table(fig_bath, [1, 2, 4], 0.01):
            assert row.enqfi_coherent == pytest.approx(dlog**2 * 1e-4, rel=1e-12)

    def test_squeezed_to_coherent_ratio(self, fig_bath):
        for row in scaling_table(fig_bath, [1, 2, 4], 0.01):
            ratio = row.enqfi_squeezed / row.enqfi_coherent
            assert ratio == pytest.approx(4.0 * (row.nbar + 1.0), rel=1e-12)

    def test_zero_energy_rejected(self, fig_bath):
        # no per-photon value at zero energy: the n = 0 row leaves the columns empty
        (zero,) = scaling_table(fig_bath, [0], 0.01)
        assert math.isnan(zero.enqfi_fock_linear)
        assert math.isnan(zero.enqfi_squeezed) and math.isnan(zero.enqfi_coherent)


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
        table = scaling_table(fig_bath, [1, 2, 3], 0.5, methods=tuple(FisherMethod))
        cfis = [row.cfi_fock for row in table]
        qfis = [row.qfi_fock for row in table]
        assert all(b > a for a, b in zip(cfis, cfis[1:]))
        assert all(b > a for a, b in zip(qfis, qfis[1:]))

    @pytest.mark.parametrize("n_list", [[1.5, 2.0], [math.nan], [math.inf], [-math.inf],
                                        [1, -1]])
    def test_excitation_not_a_finite_integer_refused_before_any_row(self, n_list, fig_bath,
                                                                    monkeypatch):
        # 1.5 used to become a row with n = 1; nan and inf ended in a bare
        # ValueError or OverflowError from int(n)
        def row_computed(*args, **kwargs):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(bounds, "d_dT_state", row_computed)
        with pytest.raises(DomainError, match="finite integers >= 0"):
            scaling_table(fig_bath, n_list, 0.01, methods=(FisherMethod.CFI_NUMBER,))

    def test_csv_schema(self, fig_bath):
        text = csv_text(ScalingRow, scaling_table(fig_bath, [1], 0.01))
        lines = text.strip().split("\n")
        # the README's schema, literally: the header is ScalingRow's field order
        assert lines[0] == (
            "n,nbar,fock_linear,fock_quadratic,squeezed,coherent,"
            "enqfi_fock_linear,enqfi_squeezed,enqfi_coherent,cfi_fock,qfi_fock,valid_short_time"
        )
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "1"
        # numerics columns empty when not requested
        assert lines[1].split(",")[9] == ""
