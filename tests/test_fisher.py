from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from fockthermo import fisher
from fockthermo.bath import BathParams, RateModel, rates, thermal_occupation_dT
from fockthermo.errors import DomainError, SingularSupportError, TruncationError
from fockthermo.fisher import (
    FisherMethod,
    cfi_number_basis,
    d_dT_state,
    delta_t_min,
    fisher_record,
    qfi_curve,
    qfi_point,
    qfi_sld_detailed,
)
from fockthermo.fockspace import EIGENVALUE_FLOOR, BandState
from fockthermo.probes import ProbeSpec, default_dim
from fockthermo.sweep import fit_scaling_exponent


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def fd_roundoff(mean: float, h: float) -> float:
    """Bound on the roundoff of a central difference of <n> with step h:
    each evolved population carries an error of order eps, and the
    difference divides it by h."""
    return 10.0 * np.finfo(float).eps * mean / h


class TestStateDerivative:
    def test_zero_time_has_zero_derivative(self, fig_bath):
        deriv = d_dT_state(ProbeSpec.fock(1), fig_bath, 0.0)
        assert np.max(np.abs(deriv.drho)) < 1e-10

    def test_thermal_probe_still_senses_bath(self, fig_bath):
        # the probe's own occupation is fixed; only the bath temperature varies
        deriv = d_dT_state(ProbeSpec.thermal(0.5), fig_bath, 0.2)
        assert np.max(np.abs(deriv.drho)) > 1e-4
        assert abs(np.trace(deriv.drho)) < 1e-8

    def test_derivative_is_hermitian_and_traceless(self, fig_bath):
        deriv = d_dT_state(ProbeSpec.coherent(1.0), fig_bath, 0.1)
        assert np.max(np.abs(deriv.drho - deriv.drho.conj().T)) == 0.0
        assert abs(np.trace(deriv.drho)) < 1e-8

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
        cold = fig_bath.with_temperature(1e-8)
        deriv = d_dT_state(ProbeSpec.fock(0), cold, 0.0)
        assert deriv.h_used < 1e-8

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
        # nbar'(T) (1 - exp(-Gamma0 t)) whatever the probe
        probe, cfi = ProbeSpec.parse(spec), [FisherMethod.CFI_NUMBER]
        for T in (0.05, 0.5, 5.0):
            bath = BathParams(T=T, rate_model=model)
            for t in (1e-3, 0.5, 5.0):
                if (T, t) == (5.0, 5.0):  # the thermalised state outgrows the automatic dim
                    with pytest.raises(TruncationError):
                        d_dT_state(probe, bath, t, methods=cfi)
                    continue
                deriv = d_dT_state(probe, bath, t, methods=cfi)
                p, dp = deriv.populations
                m = np.arange(deriv.dim)
                law = thermal_occupation_dT(bath.omega, T) * -math.expm1(-rates(bath).gamma0 * t)
                tol = 1e-5 * abs(law) + fd_roundoff(float(m @ p), deriv.h_used)
                assert abs(float(m @ dp) - law) <= tol, (T, t, float(m @ dp), law, tol)

    @pytest.mark.parametrize("spec", ["coherent:1.0", "coherent:0.5+0.5j", "squeezed:0.6"])
    @pytest.mark.parametrize("t", [1e-3, 0.5])
    def test_cfi_from_populations_alone_is_bitwise_the_full_one(self, fig_bath, spec, t):
        probe = ProbeSpec.parse(spec)
        full = d_dT_state(probe, fig_bath, t)
        alone = d_dT_state(probe, fig_bath, t, methods=[FisherMethod.CFI_NUMBER])
        assert full.state.dim == alone.state.dim
        assert alone.state.bands.size == alone.dstate.bands.size == 0
        for a, b in zip(alone.populations, full.populations):
            np.testing.assert_array_equal(a, b)
        assert alone.leakage == full.leakage

        def cfi(deriv):
            return fisher_record(deriv, FisherMethod.CFI_NUMBER).value

        assert cfi(alone) == cfi(full)
        # the coherences were never propagated, so nothing else can be read
        with pytest.raises(DomainError, match="only the CFI"):
            fisher_record(alone, FisherMethod.QFI_SLD)
        with pytest.raises(DomainError, match="only the CFI"):
            alone.rho


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
        deriv = d_dT_state(ProbeSpec.fock(1), fig_bath, 0.1)
        assert qfi_sld_detailed(deriv.state, BandState(np.zeros(deriv.dim)))[0] == 0.0

    def test_dominates_cfi_for_coherent_probe(self, fig_bath):
        deriv = d_dT_state(ProbeSpec.coherent(1.0), fig_bath, 0.01)
        c = cfi_number_basis(deriv.rho.populations, deriv.drho.diagonal().real)
        q = qfi_sld_detailed(deriv.state, deriv.dstate)[0]
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
        # the CFI is taken over the levels the QFI keeps: with its own, lower
        # floor it would also count levels the QFI drops
        probe = ProbeSpec.squeezed(x) if squeezed else ProbeSpec.coherent(complex(x, y))
        try:
            deriv = d_dT_state(probe, BathParams(T=T, rate_model=model), t)
        except TruncationError:
            reject()
        p, dp = deriv.populations
        cfi = cfi_number_basis(p, dp, p_floor=EIGENVALUE_FLOOR)
        assert qfi_sld_detailed(deriv.state, deriv.dstate)[0] >= cfi * (1.0 - 1e-9)

    @pytest.mark.xfail(strict=True, reason="Gamma+ t sits below the eigenvalue floor: the "
                       "QFI drops pairs whose populations the CFI still counts")
    def test_qfi_bounds_the_cfi_where_the_floor_drops_pairs(self):
        # a deterministic point of the property above: the QFI is 1.06e-19
        # with 1521 pairs dropped, the CFI on its support 3.39e-19
        deriv = d_dT_state(ProbeSpec.coherent(1j), BathParams(T=math.exp(-2.96875)),
                           math.exp(-6.0))
        p, dp = deriv.populations
        cfi = cfi_number_basis(p, dp, p_floor=EIGENVALUE_FLOOR)
        assert qfi_sld_detailed(deriv.state, deriv.dstate)[0] >= cfi * (1.0 - 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        size=st.floats(0.3, 2.0),
        # not so near 0 or 2 pi that the imaginary part of every coherence underflows
        phase=st.floats(1e-9, 2 * np.pi - 1e-9),
        T=st.floats(0.5, 3.0),
        t=st.floats(0.05, 3.0),
    )
    def test_real_and_complex_paths_agree(self, size, phase, T, t):
        # the QFI is phase covariant: the real amplitude runs in real
        # arithmetic, its rotation in complex arithmetic, to the same value
        bath = BathParams(T=T)
        real, rotated = (d_dT_state(ProbeSpec.coherent(alpha), bath, t)
                         for alpha in (size, size * np.exp(1j * phase)))
        assert real.drho.dtype == np.float64 and rotated.drho.dtype == np.complex128
        a, b = (qfi_sld_detailed(d.state, d.dstate)[0] for d in (real, rotated))
        assert abs(a - b) <= 1e-8 * a

    def test_coherent_linear_coefficient_matches_channel_theory(self, fig_bath, fig_rates):
        # For a pure coherent probe the only state component appearing at
        # order t is the orthogonal part of a^dag|psi>, populated at rate
        # Gamma+ with temperature derivative dT Gamma+; its information
        # contribution is t (dT Gamma+)^2 / Gamma+ and dominates at small t.
        t = 0.005
        d_gamma = fig_rates.gamma0 * thermal_occupation_dT(fig_bath.omega, fig_bath.T)
        predicted = t * d_gamma**2 / fig_rates.gamma_plus
        deriv = d_dT_state(ProbeSpec.coherent(1.0), fig_bath, t)
        assert qfi_sld_detailed(deriv.state, deriv.dstate)[0] == pytest.approx(predicted, rel=0.01)

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
        # vector sum agrees with the eigendecomposition of the dense pair,
        # which a state carrying an all-zero coherence band goes through
        probe = ProbeSpec.thermal(2.0 * size) if thermal else ProbeSpec.fock(round(6 * size))
        deriv = d_dT_state(probe, BathParams(T=T), t, dim=default_dim(probe) + extra)
        p, dp = deriv.populations
        assert p.shape == dp.shape == (deriv.dim,)
        assert deriv.state.bands.size == 0
        value, dropped = qfi_sld_detailed(deriv.state, deriv.dstate)
        zero_band = ([1], np.zeros(deriv.dim - 1))
        want, want_dropped = qfi_sld_detailed(BandState(p, *zero_band), BandState(dp, *zero_band))
        assert dropped == want_dropped
        assert value == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_rejects_a_derivative_of_another_dim(self, fig_bath):
        deriv = d_dT_state(ProbeSpec.fock(1), fig_bath, 0.1)
        with pytest.raises(DomainError):
            qfi_sld_detailed(deriv.state, BandState(np.zeros(deriv.dim + 1)))


class TestQfiPoint:
    def test_diagnostics_fields(self, fig_bath):
        # the record carries the facts of the derivative it was reduced from
        deriv = d_dT_state(ProbeSpec.coherent(1.0), fig_bath, 0.1)
        cfi, qfi = (fisher_record(deriv, method) for method in FisherMethod)
        for rec in (cfi, qfi):
            assert (rec.dim, rec.leakage, rec.h_used) == (deriv.dim, deriv.leakage, deriv.h_used)
        assert (cfi.method, cfi.dropped_pairs) == ("cfi", 0)
        dropped = qfi_sld_detailed(deriv.state, deriv.dstate)[1]
        assert (qfi.method, qfi.dropped_pairs) == ("qfi", dropped)


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

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_time_refused_at_the_entry(self, fig_bath, monkeypatch, bad):
        def no_sizing(*args, **kwargs):
            raise AssertionError("a refused grid must not be sized")

        monkeypatch.setattr(fisher, "default_dim", no_sizing)
        with pytest.raises(DomainError,
                           match="^t_grid must be finite, nonnegative and strictly ascending$"):
            qfi_curve(ProbeSpec.fock(1), BathParams(), [0.1, bad], FisherMethod.CFI_NUMBER)

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
    def test_a_curve_is_its_points_bit_for_bit(self, probe, method, dim, T, grid):
        # a small explicit dim or a hot bath fails some points: the curve then
        # raises what the first failing point raises
        bath = BathParams(T=T)
        assert _outcome(lambda: qfi_curve(probe, bath, grid, method, dim=dim)) == _outcome(
            lambda: [qfi_point(probe, bath, t, method, dim=dim) for t in grid])

    @pytest.mark.parametrize("method", list(FisherMethod))
    def test_a_late_failure_is_the_first_failure_of_the_points(self, method):
        # at T = 5 and dim = 6, t = 0.014967 puts the top level of the T + h
        # stencil temperature over the leakage budget but not that of T
        # itself, and t = 0.05 puts both over it
        bath, grid = BathParams(T=5.0), [0.01, 0.014967, 0.05]
        points = _outcome(lambda: [qfi_point(ProbeSpec.fock(1), bath, t, method, dim=6)
                                   for t in grid])
        assert points[0] is TruncationError and "by t=0.014967" in points[1]
        assert _outcome(lambda: qfi_curve(ProbeSpec.fock(1), bath, grid, method, dim=6)) == points

    @pytest.mark.parametrize("methods", [(FisherMethod.CFI_NUMBER,), (FisherMethod.QFI_SLD,),
                                         tuple(FisherMethod)], ids=["cfi", "qfi", "both"])
    def test_a_curve_builds_its_five_generators_before_its_first_time(self, monkeypatch,
                                                                      methods):
        calls = []
        build, evolve = fisher.BandGenerator.build, fisher.evolve

        def recorded(name, call):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return call(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(fisher.BandGenerator, "build", recorded("build", build))
        monkeypatch.setattr(fisher, "evolve", recorded("evolve", evolve))
        derivs = fisher.d_dT_curve(ProbeSpec.coherent(1.0), BathParams(), [0.1, 0.2, 0.3],
                                   methods=methods)
        assert len(list(derivs)) == 3
        assert calls == ["build"] * 5 + ["evolve"] * 15


def _outcome(evaluate):
    """The fields of each record ``evaluate`` returns, or the type and message it raises."""
    try:
        records = evaluate()
    except Exception as exc:
        return type(exc), str(exc)
    return [(r.value, r.method, r.dim, r.leakage, r.h_used, r.dropped_pairs) for r in records]


class TestRecordInvariants:
    def test_delta_t_min(self):
        assert delta_t_min(4.0) == 0.5
        assert delta_t_min(0.0) == math.inf
        with pytest.raises(DomainError):
            delta_t_min(-1.0)
