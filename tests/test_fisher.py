from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from oracle import (density_matrix, evolved, evolved_dT, evolved_qfi, sld_qfi,
                    short_time_qfi_coefficient)

from fockthermo import fisher
from fockthermo.bath import BathParams, RateModel, rates, thermal_occupation_dT
from fockthermo.errors import DomainError, SingularSupportError, TruncationError
from fockthermo.fisher import (
    FisherMethod,
    cfi_number_basis,
    d_dT_state,
    delta_t_min,
    fisher_record,
    gaussian_qfi,
    qfi_curve,
    qfi_point,
)
from fockthermo.dynamics import mean_photon_analytic
from fockthermo.fockspace import EIGENVALUE_FLOOR
from fockthermo.probes import ProbeKind, ProbeSpec, default_dim
from fockthermo.sweep import fit_scaling_exponent


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def fd_roundoff(mean: float, h: float) -> float:
    """Bound on the roundoff of a central difference of <n> with step h:
    each evolved population carries an error of order eps, and the
    difference divides it by h."""
    return 10.0 * np.finfo(float).eps * mean / h


# The probes whose QFI is linear in t as t -> 0: two Fock states, then the
# two Gaussian probes.
SHORT_TIME_PROBES = (ProbeSpec.fock(1), ProbeSpec.fock(3), ProbeSpec.coherent(1.0),
                     ProbeSpec.squeezed(math.asinh(1.0)))


class TestStateDerivative:
    def test_zero_time_has_zero_derivative(self, fig_bath):
        deriv = d_dT_state(ProbeSpec.fock(1), fig_bath, 0.0)
        assert np.max(np.abs(deriv.drho)) < 1e-10

    def test_thermal_probe_still_senses_bath(self, fig_bath):
        # the probe's own occupation is fixed; only the bath temperature varies
        deriv = d_dT_state(ProbeSpec.thermal(0.5), fig_bath, 0.2)
        assert np.max(np.abs(deriv.drho)) > 1e-4
        assert abs(np.trace(deriv.drho)) < 1e-8

    def test_derivative_is_traceless(self, fig_bath):
        deriv = d_dT_state(ProbeSpec.coherent(1.0), fig_bath, 0.1)
        np.testing.assert_array_equal(deriv.drho, np.diag(deriv.dp))
        assert abs(float(deriv.dp.sum())) < 1e-8

    def test_fock1_diagonal_matches_linear_response(self, fig_bath, fig_rates):
        # first order in t: d_T p = t * (n dG-, -[(n+1) dG+ + n dG-], (n+1) dG+)
        t = 0.01
        d_rate = fig_rates.gamma0 * thermal_occupation_dT(fig_bath.omega, fig_bath.T)
        deriv = d_dT_state(ProbeSpec.fock(1), fig_bath, t)
        diag = deriv.drho.diagonal().real
        expected = np.zeros(deriv.dim)
        expected[0] = t * d_rate
        expected[1] = -t * 3 * d_rate
        expected[2] = t * 2 * d_rate
        np.testing.assert_allclose(diag[:3], expected[:3], rtol=5e-3)
        assert np.max(np.abs(diag[4:])) < 1e-6

    def test_step_shrinks_near_zero_temperature(self, fig_bath):
        # a thermal probe's stencil halves its step until T - h > 0
        cold = fig_bath.with_temperature(1e-8)
        deriv = d_dT_state(ProbeSpec.thermal(0.5), cold, 0.0)
        assert 0.0 < deriv.h_used < 1e-8

    @pytest.mark.parametrize("spec", ["fock:1", "coherent:1.0", "squeezed:0.6"])
    def test_the_channel_takes_no_step(self, fig_bath, spec):
        for t in (0.0, 0.1):
            assert d_dT_state(ProbeSpec.parse(spec), fig_bath, t).h_used == 0.0

    def test_leakage_diagnostic_present(self, fig_bath):
        deriv = d_dT_state(ProbeSpec.fock(1), fig_bath, 0.1)
        assert 0.0 <= deriv.leakage < 1e-8

    @pytest.mark.parametrize("model", list(RateModel), ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "spec",
        ["fock:1", "fock:4", "thermal:0.5", "coherent:1.0", "coherent:0.5+0.5j", "squeezed:0.6"],
    )
    def test_first_moment_law(self, spec, model):
        # d<n>/dt = -Gamma0 <n> + Gamma+ for every state, and Gamma0 does not
        # depend on T under either rate model, so sum_m m dp_m/dT is
        # nbar'(T) (1 - exp(-Gamma0 t)) whatever the probe. The thermal
        # probe's stencil carries roundoff of order eps <n> / h. The
        # channel's derivative nbar' q K p is exact, and on the kept levels
        # sum_{m<d} m (K p)_m = 1 - leakage - d^2 p_{d-1} + d (d-1) p_d, with
        # p_d at most the leakage: the automatic dim of squeezed:0.6 leaves
        # 1.6e-11 on its top level at T = 5, t = 0.5
        probe = ProbeSpec.parse(spec)
        for T in (0.05, 0.5, 5.0):
            bath = BathParams(T=T, rate_model=model)
            for t in (1e-3, 0.5, 5.0):
                # the thermalised state outgrows the automatic dim of every
                # probe but a Fock one, which is sized for its evolved state
                if (T, t) == (5.0, 5.0) and probe.kind is not ProbeKind.FOCK:
                    with pytest.raises(TruncationError):
                        d_dT_state(probe, bath, t)
                    continue
                deriv = d_dT_state(probe, bath, t)
                p, dp = deriv.populations
                m = np.arange(deriv.dim)
                law = thermal_occupation_dT(bath.omega, T) * -math.expm1(-rates(bath).gamma0 * t)
                if probe.kind is ProbeKind.THERMAL:
                    tol = 1e-5 * abs(law) + fd_roundoff(float(m @ p), deriv.h_used)
                else:
                    kept = deriv.leakage + deriv.dim**2 * (float(p[-1]) + deriv.leakage)
                    tol = (1e-9 + kept) * abs(law)
                assert abs(float(m @ dp) - law) <= tol, (T, t, float(m @ dp), law, tol)

    @pytest.mark.parametrize("spec", ["coherent:1.0", "coherent:0.5+0.5j", "squeezed:0.6",
                                      "fock:2", "thermal:0.5"])
    @pytest.mark.parametrize("t", [1e-3, 0.5])
    def test_cfi_reads_the_populations_alone(self, fig_bath, spec, t):
        # the populations and their derivative are the diagonal of the
        # oracle's whole density matrix, coherences included, and of its
        # central difference in T; the CFI is their sum, bit for bit, and so
        # is a number-diagonal probe's QFI, over the eigenvalue floor; a
        # Gaussian QFI is the closed form, which reads no populations
        probe = ProbeSpec.parse(spec)
        deriv = d_dT_state(probe, fig_bath, t)
        rho0 = density_matrix(probe, deriv.dim)
        h = 1e-4 * fig_bath.T
        plus, minus = (evolved(rho0, fig_bath.with_temperature(fig_bath.T + s), t).diagonal()
                       for s in (h, -h))
        p, dp = deriv.populations
        np.testing.assert_allclose(p, evolved(rho0, fig_bath, t).diagonal().real,
                                   rtol=0.0, atol=1e-12)
        assert np.max(np.abs(dp - (plus - minus).real / (2.0 * h))) <= 1e-6 * np.max(np.abs(dp))
        cfi = fisher_record(deriv, FisherMethod.CFI_NUMBER).value
        assert cfi == cfi_number_basis(p, dp)
        if probe.is_number_diagonal:
            qfi = fisher_record(deriv, FisherMethod.QFI_SLD).value
            assert qfi == cfi_number_basis(p, dp, p_floor=EIGENVALUE_FLOOR)
        else:
            qfi = qfi_point(probe, fig_bath, t, FisherMethod.QFI_SLD).value
            assert qfi >= cfi * (1.0 - 1e-9)

    @pytest.mark.parametrize("spec", ["fock:2", "coherent:0.5+0.5j", "squeezed:0.6"])
    @pytest.mark.parametrize("T", [0.05, 0.5, 5.0])
    @pytest.mark.parametrize("t", [1e-3, 0.5])
    def test_the_channel_holds_to_the_oracle(self, spec, T, t):
        # the channel's populations are the diagonal of the oracle's whole
        # density matrix, and its exact dp/dT that of the oracle's central
        # difference in T, down to T = 0.05, where dp/dT is 1e-10 of p; at
        # dim 60 the truncation of the oracle's space is below 1e-15
        probe, bath = ProbeSpec.parse(spec), BathParams(T=T)
        deriv = d_dT_state(probe, bath, t, dim=60)
        rho0 = density_matrix(probe, 60)
        p, dp = deriv.populations
        np.testing.assert_allclose(p, evolved(rho0, bath, t).diagonal().real, rtol=0.0, atol=1e-12)
        want = evolved_dT(rho0, bath, t).diagonal().real
        assert np.max(np.abs(dp - want)) <= 1e-6 * np.max(np.abs(want))


class TestCfi:
    def test_two_outcome_closed_form(self):
        assert cfi_number_basis(np.array([0.5, 0.5]), np.array([0.1, -0.1])) == pytest.approx(
            0.04, rel=1e-14
        )

    def test_zero_derivative_gives_zero(self):
        assert cfi_number_basis(np.array([0.3, 0.7]), np.zeros(2)) == 0.0

    def test_singular_support_raises(self):
        with pytest.raises(SingularSupportError):
            cfi_number_basis(np.array([1.0, 0.0]), np.array([0.0, 1e-3]))

    def test_floor_excludes_dust(self):
        p = np.array([1.0 - 1e-16, 1e-16])
        dp = np.array([1e-9, 1e-10])
        # the 1e-16 outcome sits below the floor and must not blow up the sum
        assert cfi_number_basis(p, dp) < 1e-17

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            cfi_number_basis(np.ones(3) / 3, np.zeros(2))


class TestQfiSld:
    def test_zero_derivative(self, fig_bath):
        # s = d sigma/dT is 0 at t = 0, and where nbar' underflows to 0
        frozen = fig_bath.with_temperature(1e-3)
        for spec in (ProbeSpec.coherent(1.0), ProbeSpec.squeezed(0.6)):
            assert gaussian_qfi(spec, fig_bath, 0.0) == 0.0
            assert gaussian_qfi(spec, frozen, 0.5) == 0.0

    def test_dominates_cfi_for_coherent_probe(self, fig_bath):
        deriv = d_dT_state(ProbeSpec.coherent(1.0), fig_bath, 0.01)
        c = cfi_number_basis(deriv.rho.populations, deriv.drho.diagonal())
        q = qfi_point(ProbeSpec.coherent(1.0), fig_bath, 0.01, FisherMethod.QFI_SLD).value
        assert q >= c - 1e-9
        # coherences carry extra temperature information here
        assert q > 100 * c

    @settings(max_examples=50, deadline=None)
    @given(
        squeezed=st.booleans(),
        x=st.floats(-1.2, 1.2),
        y=st.floats(-1.2, 1.2),
        T=log_uniform(0.05, 5.0),
        t=log_uniform(1e-3, 10.0),
        model=st.sampled_from(RateModel),
    )
    def test_qfi_bounds_the_cfi_on_its_support(self, squeezed, x, y, T, t, model):
        # the CFI is taken over the levels the number-diagonal QFI keeps, so
        # that the property holds for the vacuum (x = y = 0) too
        probe = ProbeSpec.squeezed(x) if squeezed else ProbeSpec.coherent(complex(x, y))
        bath = BathParams(T=T, rate_model=model)
        try:
            deriv = d_dT_state(probe, bath, t)
        except TruncationError:
            reject()
        p, dp = deriv.populations
        cfi = cfi_number_basis(p, dp, p_floor=EIGENVALUE_FLOOR)
        assert qfi_point(probe, bath, t, FisherMethod.QFI_SLD).value >= cfi * (1.0 - 1e-9)

    def test_qfi_bounds_the_cfi_where_the_floor_drops_pairs(self):
        # a deterministic point of the property above: Gamma+ t sits below
        # the eigenvalue floor there, so an eigendecomposition with that
        # floor dropped 1521 pairs and gave 1.06e-19, below the CFI on its
        # support, 3.39e-19
        probe, bath, t = ProbeSpec.coherent(1j), BathParams(T=math.exp(-2.96875)), math.exp(-6.0)
        p, dp = d_dT_state(probe, bath, t).populations
        cfi = cfi_number_basis(p, dp, p_floor=EIGENVALUE_FLOOR)
        assert qfi_point(probe, bath, t, FisherMethod.QFI_SLD).value >= cfi * (1.0 - 1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        size=st.floats(0.3, 2.0),
        phase=st.floats(0.0, 2 * np.pi),
        T=st.floats(0.5, 3.0),
        t=st.floats(0.05, 3.0),
    )
    def test_real_and_complex_paths_agree(self, size, phase, T, t):
        # the channel is phase covariant: a real amplitude and its rotation
        # have the same populations, so the same CFI, and the same QFI
        bath = BathParams(T=T)
        probes = [ProbeSpec.coherent(alpha) for alpha in (size, size * np.exp(1j * phase))]
        real, rotated = (d_dT_state(probe, bath, t) for probe in probes)
        assert real.dim == rotated.dim
        cfis = [fisher_record(d, FisherMethod.CFI_NUMBER).value for d in (real, rotated)]
        qfis = [qfi_point(probe, bath, t, FisherMethod.QFI_SLD).value for probe in probes]
        for method, (a, b) in zip(FisherMethod, (cfis, qfis)):
            assert abs(a - b) <= 1e-8 * a, method

    def test_coherent_linear_coefficient_matches_channel_theory(self, fig_bath, fig_rates):
        # For a pure coherent probe the only state component appearing at
        # order t is the orthogonal part of a^dag|psi>, populated at rate
        # Gamma+ with temperature derivative dT Gamma+; its information
        # contribution is t (dT Gamma+)^2 / Gamma+ and dominates at small t.
        t = 0.005
        d_gamma = fig_rates.gamma0 * thermal_occupation_dT(fig_bath.omega, fig_bath.T)
        predicted = t * d_gamma**2 / fig_rates.gamma_plus
        value = qfi_point(ProbeSpec.coherent(1.0), fig_bath, t, FisherMethod.QFI_SLD).value
        assert value == pytest.approx(predicted, rel=0.01)

    @settings(max_examples=40, deadline=None)
    @given(
        T=st.floats(0.02, 1.0),
        t=st.floats(1e-3, 2.0),
        thermal=st.booleans(),
        size=st.floats(0.0, 1.0),
        extra=st.integers(0, 20),
    )
    def test_populations_match_the_eigh_path(self, T, t, thermal, size, extra):
        # the number basis is the eigenbasis of a number-diagonal state: the
        # sum over the populations is the oracle's eigendecomposition of the
        # dense pair (rho, d rho/dT)
        probe = ProbeSpec.thermal(2.0 * size) if thermal else ProbeSpec.fock(round(6 * size))
        bath = BathParams(T=T)
        deriv = d_dT_state(probe, bath, t, dim=d_dT_state(probe, bath, t).dim + extra)
        p, dp = deriv.populations
        assert p.shape == dp.shape == (deriv.dim,)
        want = sld_qfi(np.diag(p), deriv.drho)
        assert fisher_record(deriv, FisherMethod.QFI_SLD).value == pytest.approx(
            want, rel=1e-14, abs=0.0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 20), T=log_uniform(0.05, 20.0), t=log_uniform(1e-4, 50.0))
    def test_the_automatic_fock_dim_holds_the_fisher_information(self, n, T, t):
        # the CFI and QFI at the automatic dim are those of 40 more levels,
        # within 1e-9, relative or absolute: at T ~ 0.05 the values are 1e-17
        # to 1e-7, and the difference roundoff that any change of dim moves
        # is 1e-4 of them. Draws whose dim passes 200 are skipped, since one
        # dense exponential at d = 800 takes about a second; the fock:1,
        # T = 20, t = 50 point of the CLI tests holds d = 808
        probe, bath = ProbeSpec.fock(n), BathParams(T=T)
        assume(default_dim(probe, mean_photon_analytic(0.0, rates(bath), t)) <= 200)
        auto = d_dT_state(probe, bath, t)
        wide = d_dT_state(probe, bath, t, dim=auto.dim + 40)
        for method in FisherMethod:
            want = fisher_record(wide, method).value
            assert fisher_record(auto, method).value == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestGaussianQfi:
    @pytest.mark.parametrize("spec", ["coherent:1.0", "coherent:0.5+0.8j", "squeezed:0.6",
                                      f"squeezed:{math.asinh(1.0)!r}"])
    def test_matches_the_oracle(self, spec):
        # the oracle propagates the whole density matrix at dim 60 and
        # eigendecomposes it; the complex amplitude holds the closed form's
        # phase invariance to it as well
        probe = ProbeSpec.parse(spec)
        rho0 = density_matrix(probe, 60)
        for T in (0.2, 0.5, 2.0):
            bath = BathParams(T=T)
            for t in (0.05, 0.5):
                assert gaussian_qfi(probe, bath, t) == pytest.approx(
                    evolved_qfi(rho0, bath, t), rel=1e-6, abs=0.0), (T, t)

    def test_low_temperature_values(self):
        # the cold regime where a floored eigendecomposition was off by
        # 13 orders of magnitude: an 80-digit oracle of the vacuum gives
        # 3.297681e-08 for the coherent probe, and a 60-digit full-matrix
        # oracle converges to the squeezed value as the dim grows
        bath, t = BathParams(T=0.05), 1e-3
        assert qfi_point(ProbeSpec.coherent(1.0), bath, t, FisherMethod.QFI_SLD).value == \
            pytest.approx(3.297681e-08, rel=1e-6)
        assert qfi_point(ProbeSpec.squeezed(0.6), bath, t, FisherMethod.QFI_SLD).value == \
            pytest.approx(5.4972174e-16, rel=1e-6)

    def test_a_value_that_is_not_finite_is_refused(self):
        # nbar ~ 1e300: det sigma overflows
        with pytest.raises(DomainError, match="Gaussian QFI of coherent:1.0 is not finite"):
            gaussian_qfi(ProbeSpec.coherent(1.0), BathParams(T=1e300), 0.5)

    def test_a_number_diagonal_probe_is_refused(self, fig_bath):
        with pytest.raises(DomainError, match="not a Gaussian probe"):
            gaussian_qfi(ProbeSpec.thermal(0.5), fig_bath, 0.5)

    @pytest.mark.parametrize("t", [-1.0, math.inf, math.nan])
    @pytest.mark.parametrize("spec", ["coherent:1.0", "squeezed:0.6"])
    def test_a_negative_or_non_finite_time_is_refused(self, fig_bath, spec, t):
        # with the message d_dT_state gives for the populations
        with pytest.raises(DomainError,
                           match="^t_grid must be finite, nonnegative and strictly ascending$"):
            gaussian_qfi(ProbeSpec.parse(spec), fig_bath, t)


class TestQfiPoint:
    def test_diagnostics_fields(self, fig_bath):
        # a CFI record carries the facts of the derivative it was reduced
        # from; a Gaussian QFI is reduced from none, so it has none
        probe = ProbeSpec.coherent(1.0)
        deriv = d_dT_state(probe, fig_bath, 0.1)
        cfi = fisher_record(deriv, FisherMethod.CFI_NUMBER)
        qfi = qfi_point(probe, fig_bath, 0.1, FisherMethod.QFI_SLD)
        assert (cfi.dim, cfi.leakage, cfi.h_used) == (deriv.dim, deriv.leakage, deriv.h_used)
        assert (qfi.dim, qfi.leakage, qfi.h_used) == (0, 0.0, 0.0)
        assert (cfi.method, qfi.method) == ("cfi", "qfi")
        assert qfi.value == gaussian_qfi(probe, fig_bath, 0.1)

    @pytest.mark.parametrize("spec", ["coherent:1.0", "coherent:0.5+0.5j", "squeezed:0.6"])
    def test_a_gaussian_qfi_is_not_reduced_from_the_populations(self, fig_bath, spec):
        deriv = d_dT_state(ProbeSpec.parse(spec), fig_bath, 0.1)
        with pytest.raises(DomainError, match=re.escape(f"the QFI of {spec} reads no populations")):
            fisher_record(deriv, FisherMethod.QFI_SLD)

    def test_a_gaussian_qfi_needs_no_truncation(self):
        # the populations outgrow the automatic dim here; the closed form
        # reads none of them, at a point or along a curve
        probe, bath = ProbeSpec.coherent(1.0), BathParams(T=5.0)
        with pytest.raises(TruncationError):
            qfi_point(probe, bath, 5.0, FisherMethod.CFI_NUMBER)
        record = qfi_point(probe, bath, 5.0, FisherMethod.QFI_SLD)
        assert record.value == gaussian_qfi(probe, bath, 5.0) == 0.03116002752754838
        assert qfi_curve(probe, bath, [0.5, 5.0], FisherMethod.QFI_SLD)[1] == record

    @pytest.mark.parametrize("T, probe", [
        *((T, probe) for T in (0.5, 5.0) for probe in SHORT_TIME_PROBES),
        *((0.05, probe) for probe in SHORT_TIME_PROBES[2:]),
        *(pytest.param(0.05, probe, marks=pytest.mark.xfail(strict=True, reason=(
            "the Fock QFI drops every population at or below EIGENVALUE_FLOOR (1e-12), "
            "and at T = 0.05 the level n + 1 that carries the linear term holds ~1e-14: "
            "the value reads ~1e-9 of its coefficient (see the EIGENVALUE_FLOOR FOUND "
            "line in CHANGES.md)"))) for probe in SHORT_TIME_PROBES[:2]),
    ], ids=lambda v: v.canonical() if isinstance(v, ProbeSpec) else f"T={v}")
    def test_a_short_time_qfi_is_its_closed_form_coefficient_times_t(self, T, probe):
        bath = BathParams(T=T)
        t = 1e-5 / rates(bath).gamma0
        value = qfi_point(probe, bath, t, FisherMethod.QFI_SLD).value
        assert value == pytest.approx(short_time_qfi_coefficient(probe, bath) * t, rel=1e-3)


class TestQfiCurve:
    def test_zero_time_point(self, fig_bath):
        records = qfi_curve(ProbeSpec.fock(1), fig_bath, [0.0], FisherMethod.CFI_NUMBER)
        assert len(records) == 1
        assert records[0].value <= 1e-8

    def test_fock_curve_is_linear_in_time(self, fig_bath, fig_rates):
        # Gamma0 t in [1e-3, 1e-2]
        ts = np.logspace(-2, -1, 6)
        records = qfi_curve(ProbeSpec.fock(1), fig_bath, ts, FisherMethod.CFI_NUMBER)
        fit = fit_scaling_exponent(ts, [r.value for r in records])
        assert fit.slope == pytest.approx(1.0, abs=0.05)
        assert fit.r_squared > 0.999

    def test_coherent_curve_is_quadratic_in_time(self, fig_bath):
        ts = np.logspace(-2, -1, 6)
        records = qfi_curve(ProbeSpec.coherent(1.0), fig_bath, ts, FisherMethod.CFI_NUMBER)
        fit = fit_scaling_exponent(ts, [r.value for r in records])
        assert fit.slope == pytest.approx(2.0, abs=0.05)

    def test_grid_validation(self, fig_bath):
        with pytest.raises(DomainError):
            qfi_curve(ProbeSpec.fock(1), fig_bath, [0.2, 0.1], FisherMethod.CFI_NUMBER)
        with pytest.raises(DomainError):
            qfi_curve(ProbeSpec.fock(1), fig_bath, [], FisherMethod.CFI_NUMBER)
        for grid in ([0.2, 0.1], [], [0.1, 0.1], [-0.1, 0.1]):
            with pytest.raises(DomainError):
                qfi_curve(ProbeSpec.coherent(1.0), fig_bath, grid, FisherMethod.QFI_SLD)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_time_refused_at_the_entry(self, fig_bath, monkeypatch, bad):
        def no_sizing(*args, **kwargs):
            raise AssertionError("a refused grid must not be sized")

        monkeypatch.setattr(fisher, "default_dim", no_sizing)
        for probe, method in ((ProbeSpec.fock(1), FisherMethod.CFI_NUMBER),
                              (ProbeSpec.coherent(1.0), FisherMethod.QFI_SLD)):
            with pytest.raises(DomainError,
                               match="^t_grid must be finite, nonnegative and strictly ascending$"):
                qfi_curve(probe, BathParams(), [0.1, bad], method)

    @settings(max_examples=30, deadline=None)
    @given(
        probe=st.one_of(
            st.integers(0, 3).map(ProbeSpec.fock),
            st.floats(0.3, 1.5).map(ProbeSpec.coherent),
            st.floats(0.2, 0.8).map(ProbeSpec.squeezed),
            st.floats(0.1, 2.0).map(ProbeSpec.thermal),
        ),
        method=st.sampled_from(list(FisherMethod)),
        dim=st.one_of(st.none(), st.integers(4, 48)),
        T=log_uniform(0.2, 5.0),
        grid=st.lists(log_uniform(1e-4, 5.0), min_size=1, max_size=4, unique=True).map(sorted),
    )
    @example(probe=ProbeSpec.fock(1), method=FisherMethod.CFI_NUMBER, dim=None, T=0.5,
             grid=[1e-3 * 100.0 ** (k / 8) for k in range(9)])
    @example(probe=ProbeSpec.fock(1), method=FisherMethod.QFI_SLD, dim=None, T=1e4,
             grid=[1e-3, 2e-3, 1.0])
    def test_a_curve_is_its_points_bit_for_bit(self, probe, method, dim, T, grid):
        # a small explicit dim or a hot bath fails some points: the curve then
        # raises what the first failing point raises. The first example sizes
        # fock:1 to 6, 7 and 8 levels along its grid, so the channel runs
        # three times; in the second, no dim within the cap holds fock:1 at
        # t = 1.0, and that sizing is refused after the earlier times
        bath = BathParams(T=T)
        assert _outcome(lambda: qfi_curve(probe, bath, grid, method, dim=dim)) == _outcome(
            lambda: [qfi_point(probe, bath, t, method, dim=dim) for t in grid])

    def test_a_late_sizing_refusal_follows_the_earlier_times(self):
        # fock:1 at T = 1e4 takes 61 and 102 levels at the first two times, one
        # channel run each, and no dim within the cap at t = 1.0
        curve = fisher.d_dT_curve(ProbeSpec.fock(1), BathParams(T=1e4), [1e-3, 2e-3, 1.0])
        assert [next(curve).dim for _ in range(2)] == [61, 102]
        with pytest.raises(TruncationError, match="^no dimension <= 4096 reaches the tail"):
            next(curve)

    @pytest.mark.parametrize("method", list(FisherMethod))
    def test_a_late_failure_is_the_first_failure_of_the_points(self, method):
        # thermal:0.1 at T = 5 and dim = 11: t = 0.20344 puts the top level of
        # the T + h stencil temperature over the leakage budget but not that
        # of T itself, and t = 0.5 puts both over it
        probe, bath, grid = ProbeSpec.thermal(0.1), BathParams(T=5.0), [0.1, 0.20344, 0.5]
        points = _outcome(lambda: [qfi_point(probe, bath, t, method, dim=11) for t in grid])
        assert points[0] is TruncationError and "by t=0.20344" in points[1]
        assert _outcome(lambda: qfi_curve(probe, bath, grid, method, dim=11)) == points

    @pytest.mark.parametrize("spec, expected", [
        # a thermal probe evolves under the five stencil temperatures
        ("thermal:0.5", ["rates"] * 5 + ["evolve"] * 15),
        # any other probe takes one channel run for its times of equal dim
        ("coherent:1.0", ["rates", "attenuate"]),
    ])
    def test_a_curve_builds_its_rates_before_its_first_time(self, monkeypatch, spec, expected):
        calls = []

        def recorded(name, call):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return call(*args, **kwargs)
            return wrapper

        for name in ("rates", "evolve", "attenuate"):
            monkeypatch.setattr(fisher, name, recorded(name, getattr(fisher, name)))
        derivs = fisher.d_dT_curve(ProbeSpec.parse(spec), BathParams(), [0.1, 0.2, 0.3])
        assert len(list(derivs)) == 3
        assert calls == expected


def _outcome(evaluate):
    """The fields of each record ``evaluate`` returns, or the type and message it raises."""
    try:
        records = evaluate()
    except Exception as exc:
        return type(exc), str(exc)
    return [(r.value, r.method, r.dim, r.leakage, r.h_used) for r in records]


class TestRecordInvariants:
    def test_delta_t_min(self):
        assert delta_t_min(4.0) == 0.5
        assert delta_t_min(0.0) == math.inf
        with pytest.raises(DomainError):
            delta_t_min(-1.0)
