from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st
from oracle import apply, lindblad_rhs, propagator

from fockthermo.bath import BathParams, rates, thermal_occupation
from fockthermo.dynamics import (
    BandStack,
    band_generator,
    dense_action,
    evolve,
    mean_photon_analytic,
    population_vector,
    propagate_populations,
    short_time_populations,
    taylor_action,
)
from fockthermo.errors import DomainError, InvalidDimensionError, PositivityError, TruncationError
from fockthermo.probes import ProbeKind, ProbeSpec, default_dim, make_state

GAMMA_PLUS = 0.015651764274966565
GAMMA_MINUS = 0.11565176427496657


class TestLindbladRhs:
    def test_thermal_state_is_stationary(self, fig_bath, fig_rates):
        nT = thermal_occupation(fig_bath.omega, fig_bath.T)
        rho = make_state(ProbeSpec.thermal(nT), 40)
        rhs = lindblad_rhs(rho, fig_rates)
        assert np.max(np.abs(rhs)) < 1e-10 * fig_rates.gamma0

    def test_vacuum_absorption_channel(self, fig_rates):
        rho = make_state(ProbeSpec.fock(0), 6)
        rhs = lindblad_rhs(rho, fig_rates)
        assert rhs[1, 1].real == pytest.approx(GAMMA_PLUS, rel=1e-12)

    def test_fock1_diagonal_flow(self, fig_rates):
        rho = make_state(ProbeSpec.fock(1), 6)
        diag = lindblad_rhs(rho, fig_rates).diagonal().real
        expected = np.zeros(6)
        expected[0] = GAMMA_MINUS
        expected[1] = -(2 * GAMMA_PLUS + GAMMA_MINUS)
        expected[2] = 2 * GAMMA_PLUS
        np.testing.assert_allclose(diag, expected, rtol=1e-12, atol=1e-18)

    def test_traceless_and_hermitian(self, fig_rates):
        rho = make_state(ProbeSpec.coherent(1.0 + 0.3j), 40)
        rhs = lindblad_rhs(rho, fig_rates)
        assert abs(np.trace(rhs)) < 1e-12
        assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-14

    def test_matches_birth_death_generator_on_populations(self, fig_rates):
        p0 = make_state(ProbeSpec.thermal(0.8), 30).populations
        rho = np.diag(p0).astype(complex)
        np.testing.assert_allclose(
            lindblad_rhs(rho, fig_rates).diagonal().real,
            band_generator(30, 0, fig_rates) @ p0,
            atol=1e-16,
        )

    def test_band_generators_match_every_coherence_band(self, fig_rates):
        rho = make_state(ProbeSpec.coherent(1.2 + 0.3j), 20)
        rhs = lindblad_rhs(rho, fig_rates)
        for k in range(20):
            np.testing.assert_allclose(
                band_generator(20, k, fig_rates) @ rho.mat.diagonal(k), rhs.diagonal(k), atol=1e-15
            )


class TestEvolve:
    def test_zero_time_returns_state(self, fig_rates):
        rho = make_state(ProbeSpec.fock(2), 10)
        out = evolve(rho, fig_rates, 0.0)
        np.testing.assert_array_equal(out.mat, rho.mat)

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

    def test_fock1_mean_photon_relaxation(self, fig_rates):
        rho = make_state(ProbeSpec.fock(1), 40)
        out = evolve(rho, fig_rates, 1.0)
        assert out.mean_photon() == pytest.approx(0.9197320410429429, abs=1e-9)

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
        got = evolve(rho, r, t, leakage_budget=1.0)  # the oracle has the same truncation
        want = apply(propagator(dim, r, t), rho)
        assert np.max(np.abs(got.mat - want)) <= 1e-8

    def test_diagonal_states_stay_exactly_diagonal(self, fig_rates):
        for spec in (ProbeSpec.fock(1), ProbeSpec.thermal(0.5)):
            rho = make_state(spec, 40)
            out = evolve(rho, fig_rates, 0.5)
            assert out.max_offdiagonal() == 0.0

    def test_trace_preserved_for_coherent_probe(self, fig_rates):
        rho = make_state(ProbeSpec.coherent(1.0), 40)
        out = evolve(rho, fig_rates, 1.0)
        assert abs(out.mat.trace().real - 1.0) < 1e-9

    @pytest.mark.parametrize(
        "spec",
        [ProbeSpec.fock(1), ProbeSpec.coherent(1.0), ProbeSpec.squeezed(0.881373587019543),
         ProbeSpec.thermal(0.5)],
    )
    def test_first_moment_law_all_probe_classes(self, fig_rates, spec):
        rho = make_state(spec, default_dim(spec))
        out = evolve(rho, fig_rates, 0.5)
        expected = mean_photon_analytic(rho.mean_photon(), fig_rates, 0.5)
        assert abs(out.mean_photon() - expected) < 1e-7

    def test_leakage_budget_aborts(self, fig_rates):
        rho = make_state(ProbeSpec.fock(8), 10)
        with pytest.raises(TruncationError, match="raise dim"):
            evolve(rho, fig_rates, 1.0)

    def test_positivity_throughout(self, fig_rates):
        rho = make_state(ProbeSpec.squeezed(0.6), 50)
        out = evolve(rho, fig_rates, 0.5)
        assert float(np.linalg.eigvalsh(out.mat).min()) > -1e-9


def coherence_stack(rho, r) -> tuple[BandStack, np.ndarray]:
    """The stack of the bands k >= 1 present in rho, and its initial vector."""
    rows, cols = np.nonzero(np.triu(rho.mat, 1))
    stack = BandStack.build(rho.dim, np.unique(cols - rows), r)
    return stack, rho.mat[stack.m, stack.m + stack.k]


class TestCoherenceKernels:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        T=st.floats(0.05, 5.0),
        t=st.floats(0.0, 3.0),
        squeezed=st.booleans(),
        size=st.floats(0.05, 1.0),
        phase=st.floats(0.0, 2 * np.pi),
        dim=st.integers(8, 20),
    )
    def test_each_kernel_matches_liouvillian_oracle(self, T, t, squeezed, size, phase, dim):
        spec = (ProbeSpec.squeezed(0.5 * size) if squeezed
                else ProbeSpec.coherent(1.2 * size * np.exp(1j * phase)))
        r = rates(BathParams(T=T))
        try:
            rho = make_state(spec, dim)
        except (InvalidDimensionError, TruncationError):
            reject()  # the drawn dim cannot hold the drawn probe
        stack, v0 = coherence_stack(rho, r)
        want = apply(propagator(dim, r, t), rho)[stack.m, stack.m + stack.k]
        for kernel in (taylor_action, dense_action):
            assert np.max(np.abs(kernel(stack, v0, t) - want)) <= 1e-12

    def test_cost_rule_sides(self):
        r = rates(BathParams(T=0.5))
        wide = ProbeSpec.squeezed(math.asinh(math.sqrt(3.0)))
        assert default_dim(wide) == 168
        assert coherence_stack(make_state(wide, 168), r)[0].uses_taylor_action(0.5)
        narrow = ProbeSpec.squeezed(math.asinh(1.0))
        stack, _ = coherence_stack(make_state(narrow, default_dim(narrow)), r)
        assert not stack.uses_taylor_action(500.0)

    def test_action_ignores_the_global_random_state(self):
        spec = ProbeSpec.squeezed(math.asinh(1.0))
        rho = make_state(spec, default_dim(spec))
        r = rates(BathParams(T=0.5))
        t = 4.0
        stack, _ = coherence_stack(rho, r)
        assert stack.uses_taylor_action(t) and not stack.uses_taylor_action(1.2 * t)
        outs = []
        for seed in (1, 2):
            np.random.seed(seed)
            outs.append(evolve(rho, r, t).mat)
        assert np.array_equal(outs[0], outs[1])


class TestShortTimePopulations:
    def test_vacuum_has_no_decay_channel(self, fig_rates):
        pops = short_time_populations(0, fig_rates, 0.01)
        assert pops.p_below == 0.0

    def test_reference_triple(self, fig_rates):
        pops = short_time_populations(1, fig_rates, 0.01)
        assert pops.p_below == pytest.approx(0.0011565176427496657, rel=1e-12)
        assert pops.p_above == pytest.approx(0.0003130352854993313, rel=1e-12)
        assert pops.p_stay == pytest.approx(0.998530447071751, rel=1e-12)
        assert pops.valid

    def test_probabilities_sum_to_one_exactly(self, fig_rates):
        pops = short_time_populations(3, fig_rates, 0.05)
        assert pops.p_below + pops.p_stay + pops.p_above == 1.0

    def test_validity_flag(self, fig_rates):
        assert not short_time_populations(5, fig_rates, 1.0).valid

    def test_exact_populations_within_linear_band(self, fig_rates):
        # Gamma0 t = 1e-3: exact and first-order populations agree to O(Gamma0 t)
        t = 1e-3 / fig_rates.gamma0
        rho = make_state(ProbeSpec.fock(1), 40)
        p = evolve(rho, fig_rates, t).populations
        pred = short_time_populations(1, fig_rates, t)
        band = 10.0 * fig_rates.gamma0 * t
        for exact, lin in ((p[0], pred.p_below), (p[1], pred.p_stay), (p[2], pred.p_above)):
            assert 1.0 - band <= exact / lin <= 1.0 + band


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

    def test_negative_time_rejected(self, fig_rates):
        with pytest.raises(DomainError):
            mean_photon_analytic(1.0, fig_rates, -0.1)


class TestPopulations:
    def test_generator_columns_sum_to_zero(self, fig_rates):
        W = band_generator(12, 0, fig_rates)
        np.testing.assert_allclose(W.sum(axis=0), 0.0, atol=1e-16)

    def test_propagator_preserves_total_probability(self, fig_rates):
        p0 = np.zeros(20)
        p0[3] = 1.0
        p = propagate_populations(p0, fig_rates, 2.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p >= 0.0)

    def test_population_vector_validation(self):
        with pytest.raises(DomainError):
            population_vector(np.array([0.5, 0.4]))
        with pytest.raises(PositivityError):
            population_vector(np.array([1.0 + 1e-6, -1e-6]))
        clipped = population_vector(np.array([1.0, -1e-13, 1e-13]))
        assert clipped[1] == 0.0
