from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from oracle import apply, density_matrix, evolved, lindblad_rhs, propagator

from fockthermo.bath import BathParams, rates, thermal_occupation
from fockthermo.dynamics import (
    BandGenerator,
    evolve,
    mean_photon_analytic,
    population_vector,
    short_time_populations,
)
from fockthermo.errors import DomainError, InvalidDimensionError, PositivityError, TruncationError
from fockthermo.fockspace import BandState
from fockthermo.probes import ProbeKind, ProbeSpec, make_state

GAMMA_PLUS = 0.015651764274966565
GAMMA_MINUS = 0.11565176427496657


def band_generator(dim: int, rates) -> np.ndarray:
    """The dense tridiagonal generator of the populations."""
    return BandGenerator.build(dim, rates).dense(1.0)


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
        np.testing.assert_array_equal(p, expm(band_generator(dim, fig_rates) * 0.5) @ p0)
        np.testing.assert_array_equal(evolve(BandState(p0), fig_rates, 0.5).populations, p)

    @pytest.mark.parametrize("spec", ["fock:3", "coherent:1.0"])
    def test_a_prebuilt_generator_gives_the_same_bits(self, fig_rates, spec):
        state = make_state(ProbeSpec.parse(spec), 40)
        generator = BandGenerator.build(state.dim, fig_rates)
        for t in (1e-3, 0.7, 30.0):
            np.testing.assert_array_equal(evolve(state, generator, t).populations,
                                          evolve(state, fig_rates, t).populations)
        with pytest.raises(DomainError, match="generator was built for dim 40, not for this dim-41"):
            evolve(make_state(ProbeSpec.parse(spec), 41), generator, 0.7)

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
        clipped = population_vector(np.array([1.0, -1e-13, 1e-13]))
        assert clipped[1] == 0.0
