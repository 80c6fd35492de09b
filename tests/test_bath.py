from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockthermo.bath import (
    BathParams,
    RateModel,
    Rates,
    base_rate,
    rates,
    thermal_occupation,
    thermal_occupation_dT,
)
from fockthermo.errors import DomainError

# Frozen from high-precision evaluation of the closed forms.
NBAR_REF = 0.15651764274966565        # 1/(e^2 - 1) at omega=1, T=0.5
NBAR_HOT = 9.50833194477505           # omega=1, T=10
DNBAR_REF = 0.7240616609663105        # 4 e^2 / (e^2 - 1)^2


class TestOccupation:
    def test_reference_value(self):
        assert thermal_occupation(1.0, 0.5) == pytest.approx(NBAR_REF, rel=1e-14)

    def test_low_temperature_vanishes(self):
        assert thermal_occupation(1.0, 1e-3) == pytest.approx(0.0, abs=1e-300)

    def test_high_temperature_classical_limit(self):
        # nbar -> T/omega - 1/2 + O(omega/T)
        assert thermal_occupation(1.0, 10.0) == pytest.approx(NBAR_HOT, rel=1e-14)
        assert abs(thermal_occupation(1.0, 10.0) - (10.0 - 0.5)) < 0.01

    def test_underflow_is_flagged_not_raised(self):
        assert thermal_occupation(1.0, 1.0 / 800.0) == 0.0

    def test_underflowing_ratio_is_a_domain_error(self):
        # omega/T rounds to 0: the occupation has no finite value
        with pytest.raises(DomainError, match="underflows"):
            thermal_occupation(1e-309, 1e20)
        with pytest.raises(DomainError, match="underflows"):
            thermal_occupation_dT(1e-309, 1e20)

    @pytest.mark.parametrize("omega,T", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_domain_errors(self, omega, T):
        with pytest.raises(DomainError):
            thermal_occupation(omega, T)
        with pytest.raises(DomainError):
            thermal_occupation_dT(omega, T)


class TestOccupationDerivative:
    def test_reference_value(self):
        assert thermal_occupation_dT(1.0, 0.5) == pytest.approx(DNBAR_REF, rel=1e-14)

    def test_low_temperature_suppressed(self):
        assert thermal_occupation_dT(1.0, 0.01) < 1e-30

    def test_product_form_bits_kept_wherever_it_is_finite(self):
        for T in np.geomspace(1e-3, 1e150, 2000):
            T = float(T)
            n = thermal_occupation(1.0, T)
            assert thermal_occupation_dT(1.0, T) == (1.0 / T**2) * n * (n + 1.0)

    def test_finite_beyond_the_overflow_of_T_squared(self):
        assert thermal_occupation_dT(1.0, 1e160) == pytest.approx(1.0, rel=1e-12)

    def test_zero_wherever_the_occupation_underflows(self):
        # omega/T^2 overflows at 1e-155 and T^2 underflows to 0 below it;
        # nbar is exactly 0 at all three, and so is its derivative
        for T in (1e-155, 1e-162, 1e-300):
            assert thermal_occupation_dT(1.0, T) == 0.0
        for T in np.logspace(-2, 2, 25):
            T = float(T)
            n = thermal_occupation(1.0, T)
            assert thermal_occupation_dT(1.0, T) == (1.0 / T**2) * n * (n + 1.0)

    def test_finite_below_the_underflow_of_T_squared(self):
        # omega/T = 1e-130 keeps nbar finite; dnbar/dT -> 1/omega
        assert thermal_occupation_dT(1e-300, 1e-170) == pytest.approx(1e300, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(logT=st.floats(min_value=-1.0, max_value=1.5))
    def test_finite_difference_grid(self, logT):
        T = 10.0**logT
        h = 1e-6 * T
        fd = (thermal_occupation(1.0, T + h) - thermal_occupation(1.0, T - h)) / (2 * h)
        assert thermal_occupation_dT(1.0, T) == pytest.approx(fd, rel=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(logx=st.floats(min_value=-2.0, max_value=2.0))
    def test_monotone_in_temperature(self, logx):
        T = 1.0 / 10.0**logx
        assert thermal_occupation_dT(1.0, T) > 0.0


class TestRates:
    def test_markovian_reference_values(self, fig_rates):
        assert fig_rates.gamma_plus == pytest.approx(0.015651764274966565, rel=1e-14)
        assert fig_rates.gamma_minus == pytest.approx(0.11565176427496657, rel=1e-14)
        assert fig_rates.gamma0 == 0.1

    def test_detailed_balance_reference(self, fig_rates):
        assert fig_rates.gamma_plus / fig_rates.gamma_minus == pytest.approx(
            math.exp(-2.0), rel=1e-14
        )

    def test_purcell_base_rate(self):
        bath = BathParams(g=0.05, gamma=0.1, rate_model=RateModel.PURCELL)
        # 4 g^2/gamma = 4 * 0.0025 / 0.1, coincidentally equal to gamma here
        assert base_rate(bath) == pytest.approx(0.1, rel=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(logx=st.floats(min_value=-2.0, max_value=2.0))
    def test_detailed_balance_log_grid(self, logx):
        x = 10.0**logx
        r = rates(BathParams(omega=1.0, T=1.0 / x))
        assert r.gamma_plus / r.gamma_minus == pytest.approx(math.exp(-x), rel=1e-12)

    def test_rates_validation(self):
        with pytest.raises(DomainError):
            Rates(gamma_plus=0.2, gamma_minus=0.1, gamma0=0.1)
        with pytest.raises(DomainError):
            Rates(gamma_plus=-0.1, gamma_minus=0.1, gamma0=0.2)

    def test_infinite_rates_refused(self):
        # omega/T = 1e-310 is subnormal, so nbar and both rates overflow
        with pytest.raises(DomainError, match="rates must be finite"):
            rates(BathParams(T=1e10, omega=1e-300))

    def test_nbar_round_trip(self, fig_rates):
        assert fig_rates.nbar == pytest.approx(NBAR_REF, rel=1e-14)


class TestBathParams:
    @pytest.mark.parametrize(
        "kwargs", [dict(T=0.0), dict(T=-1.0), dict(omega=0.0), dict(gamma=0.0), dict(g=-0.1)]
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(DomainError):
            BathParams(**kwargs)

    def test_with_temperature(self, fig_bath):
        warm = fig_bath.with_temperature(1.0)
        assert warm.T == 1.0
        assert warm.gamma == fig_bath.gamma
        assert fig_bath.T == 0.5

    def test_rate_model_coerces_from_string(self):
        assert BathParams(rate_model="purcell").rate_model is RateModel.PURCELL
