from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, reject, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from oracle import apply, density_matrix, evolved, lindblad_rhs, propagator

from fockthermo import dynamics
from fockthermo.bath import BathParams, rates, thermal_occupation
from fockthermo.dynamics import (
    PROPAGATORS,
    PropagatorCache,
    attenuate,
    evolve,
    mean_photon_analytic,
    population_vector,
    short_time_populations,
)
from fockthermo.errors import DomainError, InvalidDimensionError, PositivityError, TruncationError
from fockthermo.fisher import FisherMethod, qfi_curve
from fockthermo.fockspace import LEAKAGE_BUDGET
from fockthermo.fockspace import BandState
from fockthermo.probes import ProbeKind, ProbeSpec, make_state
from fockthermo.sweep import SweepAxis, SweepMethod, SweepSpec, run_sweep

GAMMA_PLUS = 0.015651764274966565
GAMMA_MINUS = 0.11565176427496657


def band_generator(dim: int, rates, t: float = 1.0) -> np.ndarray:
    """t G, the dense tridiagonal generator of the populations times t, as
    the sum of three np.diag matrices: G[m, m] = -Gamma- m - Gamma+ (m+1),
    but -Gamma- m at the top level, which has no upward channel;
    G[m, m-1] = Gamma+ m and G[m, m+1] = Gamma- (m+1)."""
    m = np.arange(float(dim))
    up = m + 1.0
    up[-1] = 0.0
    gp, gm = rates.gamma_plus, rates.gamma_minus
    diag = -(gm * m) - gp * up
    sub = gp * m[1:]
    sup = gm * (m[:-1] + 1.0)
    return (np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)) * t


def count_expm(monkeypatch) -> list:
    """The dim of every exponential the propagator takes from here on."""
    calls = []

    def counted(a):
        calls.append(a.shape[0])
        return expm(a)

    monkeypatch.setattr(dynamics, "expm", counted)
    return calls


def test_oracle_imports_nothing_from_dynamics():
    # the oracle checks the band propagator only while it shares none of its code
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        dynamics = [n for n in names if n.split(".")[:2] == ["fockthermo", "dynamics"]]
        assert not dynamics, ast.dump(node)


class TestLindbladRhs:
    def test_thermal_state_is_stationary(self, fig_bath, fig_rates):
        nT = thermal_occupation(fig_bath.omega, fig_bath.T)
        rho = density_matrix(ProbeSpec.thermal(nT), 40)
        rhs = lindblad_rhs(rho, fig_rates)
        assert np.max(np.abs(rhs)) < 1e-10 * fig_rates.gamma0

    def test_vacuum_absorption_channel(self, fig_rates):
        rho = density_matrix(ProbeSpec.fock(0), 6)
        rhs = lindblad_rhs(rho, fig_rates)
        assert rhs[1, 1].real == pytest.approx(GAMMA_PLUS, rel=1e-12)

    def test_fock1_diagonal_flow(self, fig_rates):
        rho = density_matrix(ProbeSpec.fock(1), 6)
        diag = lindblad_rhs(rho, fig_rates).diagonal().real
        expected = np.zeros(6)
        expected[0] = GAMMA_MINUS
        expected[1] = -(2 * GAMMA_PLUS + GAMMA_MINUS)
        expected[2] = 2 * GAMMA_PLUS
        np.testing.assert_allclose(diag, expected, rtol=1e-12, atol=1e-18)

    def test_traceless_and_hermitian(self, fig_rates):
        rho = density_matrix(ProbeSpec.coherent(1.0 + 0.3j), 40)
        rhs = lindblad_rhs(rho, fig_rates)
        assert abs(np.trace(rhs)) < 1e-12
        assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-14

    def test_matches_birth_death_generator_on_populations(self, fig_rates):
        p0 = make_state(ProbeSpec.thermal(0.8), 30).populations
        rho = np.diag(p0).astype(complex)
        np.testing.assert_allclose(
            lindblad_rhs(rho, fig_rates).diagonal().real,
            band_generator(30, fig_rates) @ p0,
            atol=1e-16,
        )

    def test_populations_flow_apart_from_the_coherences(self, fig_rates):
        # phase covariance: the diagonal of the flow of a state with every
        # coherence band is the generator's action on its populations alone
        rho = density_matrix(ProbeSpec.coherent(1.2 + 0.3j), 20)
        np.testing.assert_allclose(
            band_generator(20, fig_rates) @ rho.diagonal().real,
            lindblad_rhs(rho, fig_rates).diagonal(), atol=1e-15,
        )


class TestEvolve:
    def test_zero_time_returns_state(self, fig_rates):
        rho = make_state(ProbeSpec.fock(2), 10)
        assert evolve(rho, fig_rates, 0.0) is rho
        # a valid state keeps its bits, its roundoff negative included
        rho = BandState(np.array([1.0 - 1e-13, 2e-13, -1e-13]))
        assert evolve(rho, fig_rates, 0.0) is rho

    def test_negative_time_rejected(self, fig_rates):
        rho = make_state(ProbeSpec.fock(2), 10)
        for t in (-1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                evolve(rho, fig_rates, t)

    def test_fock1_short_time_populations(self, fig_rates):
        rho = make_state(ProbeSpec.fock(1), 40)
        p = evolve(rho, fig_rates, 0.01).populations
        assert p[2] == pytest.approx(GAMMA_PLUS * 0.01 * 2, rel=0.02)
        assert p[0] == pytest.approx(GAMMA_MINUS * 0.01, rel=0.02)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        T=st.floats(0.05, 5.0),
        t=st.floats(0.0, 3.0),
        kind=st.sampled_from(list(ProbeKind)),
        size=st.floats(0.0, 1.0),
        phase=st.floats(0.0, 2 * np.pi),
        dim=st.integers(8, 20),
    )
    def test_matches_liouvillian_oracle(self, T, t, kind, size, phase, dim):
        # the oracle propagates the whole density matrix: its diagonal is
        # the populations, whatever coherences the probe carries, and a
        # number-diagonal probe stays number diagonal
        spec = {
            ProbeKind.FOCK: ProbeSpec.fock(round(6 * size)),
            ProbeKind.COHERENT: ProbeSpec.coherent(1.2 * size * np.exp(1j * phase)),
            ProbeKind.SQUEEZED: ProbeSpec.squeezed(0.5 * size),
            ProbeKind.THERMAL: ProbeSpec.thermal(0.5 * size),
        }[kind]
        r = rates(BathParams(T=T))
        try:
            rho = make_state(spec, dim)
        except (InvalidDimensionError, TruncationError):
            reject()  # the drawn dim cannot hold the drawn probe
        with pytest.MonkeyPatch.context() as mp:  # the oracle has the same truncation
            mp.setattr("fockthermo.dynamics.LEAKAGE_BUDGET", 1.0)
            got = evolve(rho, r, t)
        want = apply(propagator(dim, r, t), density_matrix(spec, dim))
        assert np.max(np.abs(got.populations - want.diagonal())) <= 1e-8
        if spec.is_number_diagonal:
            assert np.max(np.abs(want - np.diag(want.diagonal()))) <= 1e-12

    @pytest.mark.parametrize("spec", ["squeezed:0.6", "coherent:1.0", "coherent:1j", "fock:2"])
    def test_evolve_returns_read_only_populations(self, fig_rates, spec):
        # the evolved state is band 0 alone, real whatever the amplitude's
        # phase, with unit trace and the mean photon number of the closed form
        rho = make_state(ProbeSpec.parse(spec), 40)
        for t in (1e-3, 30.0):
            out = evolve(rho, fig_rates, t)
            assert isinstance(out, BandState) and out.dim == 40
            assert out.populations.dtype == np.float64
            with pytest.raises(ValueError):
                out.populations[0] = 0.0
            assert abs(out.populations.sum() - 1.0) <= 1e-12
            assert out.mean_photon() == pytest.approx(
                mean_photon_analytic(rho.mean_photon(), fig_rates, t), rel=1e-10)

    def test_leakage_budget_aborts(self, fig_rates):
        rho = make_state(ProbeSpec.fock(8), 10)
        with pytest.raises(TruncationError, match="raise dim"):
            evolve(rho, fig_rates, 1.0)

    @pytest.mark.parametrize("t", [0.0, 1e-12, 0.1])
    def test_zero_time_runs_the_state_and_leakage_checks(self, fig_rates, t):
        # the top level of fock:39 at dim 40 holds everything from the start
        with pytest.raises(TruncationError, match=f"exceeded the leakage budget 1e-08 by t={t:.6g};"):
            evolve(make_state(ProbeSpec.fock(39), 40), fig_rates, t)
        # a state that is not a distribution is refused as such, at every t
        with pytest.raises(PositivityError, match="population -2.000e-01 below the roundoff clip"):
            evolve(BandState(np.array([0.6, 0.6, -0.2, 0.0])), fig_rates, t)
        with pytest.raises(DomainError, match="populations must be finite, got nan at m=0"):
            evolve(BandState(np.array([np.nan, 1.0])), fig_rates, t)


class TestShortTimePopulations:
    def test_vacuum_has_no_decay_channel(self, fig_rates):
        pops = short_time_populations(0, fig_rates, 0.01)
        assert pops.p_below == 0.0

    def test_reference_triple(self, fig_rates):
        pops = short_time_populations(1, fig_rates, 0.01)
        assert pops.p_below == pytest.approx(0.0011565176427496657, rel=1e-12)
        assert pops.p_above == pytest.approx(0.0003130352854993313, rel=1e-12)
        assert pops.p_stay == pytest.approx(0.998530447071751, rel=1e-12)

    def test_probabilities_sum_to_one_exactly(self, fig_rates):
        pops = short_time_populations(3, fig_rates, 0.05)
        assert pops.p_below + pops.p_stay + pops.p_above == 1.0

    @pytest.mark.parametrize(
        "n, t, message",
        [
            pytest.param(-1, 0.1, "n must be an integer >= 0", id="negative-n"),
            pytest.param(1.5, 0.1, "n must be an integer >= 0", id="fractional-n"),
            pytest.param(True, 0.1, "n must be an integer >= 0", id="bool-n"),
            pytest.param(1, -0.1, "t must be finite and >= 0", id="negative-t"),
            pytest.param(1, math.nan, "t must be finite and >= 0", id="nan-t"),
            pytest.param(1, math.inf, "t must be finite and >= 0", id="infinite-t"),
        ],
    )
    def test_refuses_what_evolve_refuses(self, fig_rates, n, t, message):
        with pytest.raises(DomainError, match=message):
            short_time_populations(n, fig_rates, t)


class TestMeanPhotonAnalytic:
    def test_initial_value(self, fig_rates):
        assert mean_photon_analytic(2.5, fig_rates, 0.0) == 2.5

    def test_long_time_thermalizes(self, fig_rates):
        assert mean_photon_analytic(5.0, fig_rates, 1e6) == pytest.approx(
            fig_rates.nbar, rel=1e-12
        )

    def test_reference_value(self, fig_rates):
        assert mean_photon_analytic(1.0, fig_rates, 1.0) == pytest.approx(
            0.9197320410429429, rel=1e-12
        )

    @pytest.mark.parametrize("t", [-0.1, math.nan, math.inf])
    def test_time_that_evolve_refuses_is_refused(self, fig_rates, t):
        with pytest.raises(DomainError, match="t must be finite and >= 0"):
            mean_photon_analytic(1.0, fig_rates, t)
        with pytest.raises(DomainError, match="t must be finite and >= 0"):
            evolve(make_state(ProbeSpec.fock(1), 8), fig_rates, t)


class TestPopulations:
    def test_generator_columns_sum_to_zero(self, fig_rates):
        W = band_generator(12, fig_rates)
        np.testing.assert_allclose(W.sum(axis=0), 0.0, atol=1e-16)

    @pytest.mark.parametrize("dim", [40, 180])
    def test_populations_are_one_dense_exponential(self, fig_rates, dim):
        p0 = np.zeros(dim)
        p0[1] = 1.0
        p = evolve(make_state(ProbeSpec.fock(1), dim), fig_rates, 0.5).populations
        np.testing.assert_array_equal(p, expm(band_generator(dim, fig_rates, 0.5)) @ p0)
        np.testing.assert_array_equal(evolve(BandState(p0), fig_rates, 0.5).populations, p)

    @pytest.mark.parametrize("T", [0.001, 0.5, 5.0])
    @pytest.mark.parametrize("dim", [2, 40, 180])
    def test_the_exponentiated_matrix_is_the_sum_of_three_diagonals(self, monkeypatch, dim, T):
        # every entry of the t G handed to expm, signed zeros included; at
        # T = 0.001, Gamma+ underflows to 0 and G[0, 0] is -0.0 + 0.0
        bath_rates = rates(BathParams(T=T))
        assert (bath_rates.gamma_plus == 0.0) == (T == 0.001)
        exponentiated = []

        def recorded(a):
            exponentiated.append(a.copy())
            return expm(a)

        monkeypatch.setattr(dynamics, "expm", recorded)
        for t in (1e-3, 0.7, 30.0):
            dynamics._propagator(dim, bath_rates, t)
            want = band_generator(dim, bath_rates, t)
            np.testing.assert_array_equal(exponentiated[-1], want)
            np.testing.assert_array_equal(np.signbit(exponentiated[-1]), np.signbit(want))
        assert len(exponentiated) == 3

    @pytest.mark.parametrize("spec", ["fock:3", "thermal:0.5", "coherent:1.0", "squeezed:0.6"])
    def test_population_vector_evolves_alone(self, fig_bath, fig_rates, spec):
        # band 0 never mixes with the coherences: the populations alone
        # evolve to the diagonal of the oracle's whole density matrix
        probe = ProbeSpec.parse(spec)
        state = make_state(probe, 40)
        want = evolved(density_matrix(probe, 40), fig_bath, 0.7).diagonal()
        assert np.max(np.abs(want.imag)) <= 1e-15
        np.testing.assert_allclose(evolve(state, fig_rates, 0.7).populations, want.real,
                                   rtol=0.0, atol=1e-12)

    def test_population_vector_validation(self):
        with pytest.raises(DomainError):
            population_vector(np.array([0.5, 0.4]))
        with pytest.raises(PositivityError):
            population_vector(np.array([1.0 + 1e-6, -1e-6]))
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError, match=f"populations must be finite, got {bad} at m=0"):
                population_vector(np.array([bad, 1.0]))
        clipped = population_vector(np.array([1.0, -1e-13, 1e-13]))
        assert clipped[1] == 0.0


class TestPropagatorCache:
    TIMES = tuple(np.geomspace(1e-3, 1e-1, 9))

    def test_short_time_curves_exponentiate_each_key_once(self, fig_bath, monkeypatch):
        # the criterion-1 curves take the channel, which exponentiates
        # nothing; three thermal curves at dim 40 share one bath and one
        # grid, so only the first of them and the dim-68 thermal curve
        # exponentiate, 5 stencil temperatures x 9 times each
        calls = count_expm(monkeypatch)
        for probe, dim in ((ProbeSpec.fock(1), 40), (ProbeSpec.fock(3), 40),
                           (ProbeSpec.coherent(1.0), 40), (ProbeSpec.squeezed(math.asinh(1.0)), None)):
            qfi_curve(probe, fig_bath, self.TIMES, FisherMethod.CFI_NUMBER, dim=dim)
        assert calls == []
        for probe, dim in ((ProbeSpec.thermal(0.5), 40), (ProbeSpec.thermal(0.2), 40),
                           (ProbeSpec.thermal(1.0), 40), (ProbeSpec.thermal(0.5), 68)):
            qfi_curve(probe, fig_bath, self.TIMES, FisherMethod.CFI_NUMBER, dim=dim)
        assert calls == [40] * 45 + [68] * 45

    def test_excitation_sweep_exponentiates_each_key_once(self, monkeypatch):
        # thermal:1, thermal:2 and thermal:3 have dims 40, 64 and 88, so each
        # exponentiates its five stencil keys; fock:1, fock:2 and fock:3 are
        # sized for their evolved states, at dims 10, 12 and 13, and take the
        # channel
        calls = count_expm(monkeypatch)
        spec = SweepSpec(axis=SweepAxis.EXCITATION_N, axis_values=(1, 2, 3),
                         probes=(ProbeKind.FOCK, ProbeKind.THERMAL), methods=(SweepMethod.QFI,),
                         t=0.5)
        rows = run_sweep(spec, workers=1).rows
        assert not any(row.error for row in rows)
        assert [row.dim for row in rows if row.probe.startswith("fock")] == [10, 12, 13]
        assert [row.dim for row in rows if row.probe.startswith("thermal")] == [40, 64, 88]
        assert calls == [40] * 5 + [64] * 5 + [88] * 5

    def test_a_kept_propagator_still_refuses(self, fig_rates, monkeypatch):
        calls = count_expm(monkeypatch)
        evolve(make_state(ProbeSpec.fock(1), 40), fig_rates, 0.5)
        with pytest.raises(TruncationError, match="raise dim"):
            evolve(make_state(ProbeSpec.fock(39), 40), fig_rates, 0.5)
        assert len(calls) == 1

    @pytest.mark.parametrize("spec", ["fock:3", "thermal:0.5", "coherent:1.0", "squeezed:0.6"])
    def test_cold_and_warm_give_the_bits_of_the_exponential(self, fig_rates, spec):
        state = make_state(ProbeSpec.parse(spec), 40)
        for t in (1e-3, 0.7, 30.0):
            want = expm(band_generator(40, fig_rates, t)) @ state.populations
            cold = evolve(state, fig_rates, t).populations
            warm = evolve(state, fig_rates, t).populations
            np.testing.assert_array_equal(cold, want)
            np.testing.assert_array_equal(warm, want)
        assert len(PROPAGATORS) == 3

    def test_kept_propagators_are_read_only(self, fig_rates):
        evolve(make_state(ProbeSpec.fock(1), 40), fig_rates, 0.5)
        matrix = PROPAGATORS.get((40, fig_rates.gamma_plus, fig_rates.gamma_minus, 0.5))
        assert matrix is not None and not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0

    def test_a_temperature_sweep_at_dim_180_stays_within_the_budget(self, fig_bath):
        # 12 temperatures x 5 stencil temperatures of 259 kB (dim 180)
        # matrices: four fit in the 1 MiB budget
        spec = SweepSpec(axis=SweepAxis.TEMPERATURE, axis_values=tuple(np.geomspace(0.05, 5.0, 12)),
                         probes=(ProbeSpec.thermal(5.0),), methods=(SweepMethod.CFI,), t=0.5,
                         bath=fig_bath, dim=180)
        assert not any(row.error for row in run_sweep(spec, workers=1).rows)
        assert PROPAGATORS.nbytes <= PROPAGATORS.budget == 1 << 20
        assert PROPAGATORS.nbytes == len(PROPAGATORS) * 180 * 180 * 8
        assert len(PROPAGATORS) == 4

    def test_least_recently_used_goes_first_and_oversize_is_not_kept(self):
        cache = PropagatorCache(budget=3 * 800)
        matrices = {key: np.zeros((10, 10)) for key in "abcd"}
        for key in "abc":
            cache.put(key, matrices[key])
        assert cache.get("a") is matrices["a"]  # b is now the least recently used
        cache.put("d", matrices["d"])
        assert [cache.get(key) is not None for key in "abcd"] == [True, False, True, True]
        assert cache.nbytes == 3 * 800
        cache.put("e", np.zeros((20, 20)))
        assert cache.get("e") is None and len(cache) == 3
        cache.clear()
        assert len(cache) == 0 and cache.nbytes == 0


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


class TestAttenuate:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(
        weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
        dim=st.integers(14, 40),
        T=log_uniform(0.05, 5.0),
        t=log_uniform(1e-4, 5.0),
    )
    def test_matches_evolve_where_nothing_leaks(self, weights, dim, T, t):
        # the channel is the untruncated evolution and evolve the truncated
        # generator's: where the channel leaves at most 1e-12 above the
        # space, the two agree
        assume(sum(weights) > 0.0)
        p0 = np.zeros(dim)
        p0[: len(weights)] = weights
        state = BandState(p0 / p0.sum())
        r = rates(BathParams(T=T))
        try:
            got, _, leakage = attenuate(state, r, t)
        except TruncationError:
            reject()
        assume(leakage <= 1e-12)
        want = evolve(state, r, t).populations
        assert np.max(np.abs(got.populations - want)) <= 1e-11

    def test_zero_time_returns_the_state(self, fig_rates):
        rho = make_state(ProbeSpec.fock(2), 10)
        out, dp, leakage = attenuate(rho, fig_rates, 0.0)
        assert out is rho and leakage == 0.0
        np.testing.assert_array_equal(dp, np.zeros(10))

    def test_pure_loss_at_zero_noise(self):
        # Gamma+ underflows to 0 at T = 0.001: |3> thins binomially
        r = rates(BathParams(T=0.001))
        assert r.gamma_plus == 0.0
        t = 2.0
        eta = math.exp(-r.gamma0 * t)
        out, _, _ = attenuate(make_state(ProbeSpec.fock(3), 6), r, t)
        want = [math.comb(3, k) * eta**k * (1.0 - eta) ** (3 - k) for k in range(4)] + [0.0, 0.0]
        np.testing.assert_allclose(out.populations, want, rtol=1e-14, atol=0.0)

    def test_a_relaxed_probe_is_the_thermal_state_of_the_bath(self, fig_rates):
        # Gamma0 t = 1e30: every probe has relaxed to p_m = nbar^m / (nbar+1)^(m+1),
        # whose nbar-derivative is p_m (m / nbar - (m+1) / (nbar+1))
        nbar, m = fig_rates.nbar, np.arange(30.0)
        thermal = nbar**m / (nbar + 1.0) ** (m + 1.0)
        out, dp, _ = attenuate(make_state(ProbeSpec.fock(4), 30), fig_rates, 1e31)
        np.testing.assert_allclose(out.populations, thermal, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(dp, thermal * (m / nbar - (m + 1.0) / (nbar + 1.0)),
                                   rtol=1e-9, atol=1e-300)

    def test_noise_that_fills_the_space_is_refused_not_renormalised(self):
        # nbar ~ 1e308: N ~ 5e306 spreads |1> over far more than 40 levels,
        # which keep about 40 / N of it; they are not scaled back to 1
        r = rates(BathParams(T=1e308))
        with pytest.raises(TruncationError, match="at and above level 40 by t=0.5, over the "
                                                  "leakage budget 1e-08; raise dim"):
            attenuate(make_state(ProbeSpec.fock(1), 40), r, 0.5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("fockthermo.dynamics.LEAKAGE_BUDGET", 1.0)
            out, _, leakage = attenuate(make_state(ProbeSpec.fock(1), 40), r, 0.5)
        assert out.populations.sum() < 1e-300 and leakage == 1.0

    @pytest.mark.parametrize("t", [0.0, 1e-12, 0.1])
    def test_the_state_and_top_level_checks_run_at_every_time(self, fig_rates, t):
        # fock:39 at dim 40 holds its top level from the start
        with pytest.raises(TruncationError, match=f"top-level population [-+.e0-9]+ exceeded "
                                                  f"the leakage budget 1e-08 by t={t:.6g};"):
            attenuate(make_state(ProbeSpec.fock(39), 40), fig_rates, t)
        with pytest.raises(PositivityError, match="population -2.000e-01 below the roundoff clip"):
            attenuate(BandState(np.array([0.6, 0.6, -0.2, 0.0])), fig_rates, t)
        with pytest.raises(DomainError, match="populations must be finite, got nan at m=0"):
            attenuate(BandState(np.array([np.nan, 1.0])), fig_rates, t)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="t must be finite and >= 0"):
                attenuate(make_state(ProbeSpec.fock(1), 8), fig_rates, bad)

    def test_a_population_that_is_not_finite_is_refused(self, fig_rates, monkeypatch):
        monkeypatch.setattr(dynamics, "_binomial_terms",
                            lambda rows, cols, *logs: np.full((rows, cols), np.nan))
        with pytest.raises(DomainError, match="thermal-attenuator populations are not finite"):
            attenuate(make_state(ProbeSpec.fock(1), 8), fig_rates, 0.5)

    def test_leakage_is_the_mass_left_above_the_space(self, fig_rates):
        # the channel onto 7 levels leaves what it puts on levels 7 and up of 30
        out, _, leakage = attenuate(make_state(ProbeSpec.fock(1), 7), fig_rates, 0.5)
        wide = attenuate(make_state(ProbeSpec.fock(1), 30), fig_rates, 0.5)[0].populations
        np.testing.assert_allclose(out.populations, wide[:7], rtol=1e-14, atol=0.0)
        assert 0.0 < leakage <= LEAKAGE_BUDGET
        assert leakage == pytest.approx(float(wide[7:].sum()), rel=1e-3)
