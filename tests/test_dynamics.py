from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from oracle import apply, lindblad_rhs, propagator

from fockthermo.bath import BathParams, rates, thermal_occupation
from fockthermo.dynamics import (
    BandGenerator,
    BandStack,
    dense_action,
    evolve,
    mean_photon_analytic,
    population_vector,
    short_time_populations,
    taylor_action,
)
from fockthermo.errors import DomainError, InvalidDimensionError, PositivityError, TruncationError
from fockthermo.fockspace import BandState, band_entries
from fockthermo.probes import ProbeKind, ProbeSpec, default_dim, make_state

GAMMA_PLUS = 0.015651764274966565
GAMMA_MINUS = 0.11565176427496657


def band_generator(dim: int, k: int, rates) -> np.ndarray:
    """The dense tridiagonal generator of coherence band k."""
    return BandStack.build(dim, np.array([k]), rates).dense_block(0, 1.0)


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
        rho = make_state(ProbeSpec.thermal(nT), 40).matrix()
        rhs = lindblad_rhs(rho, fig_rates)
        assert np.max(np.abs(rhs)) < 1e-10 * fig_rates.gamma0

    def test_vacuum_absorption_channel(self, fig_rates):
        rho = make_state(ProbeSpec.fock(0), 6).matrix()
        rhs = lindblad_rhs(rho, fig_rates)
        assert rhs[1, 1].real == pytest.approx(GAMMA_PLUS, rel=1e-12)

    def test_fock1_diagonal_flow(self, fig_rates):
        rho = make_state(ProbeSpec.fock(1), 6).matrix()
        diag = lindblad_rhs(rho, fig_rates).diagonal().real
        expected = np.zeros(6)
        expected[0] = GAMMA_MINUS
        expected[1] = -(2 * GAMMA_PLUS + GAMMA_MINUS)
        expected[2] = 2 * GAMMA_PLUS
        np.testing.assert_allclose(diag, expected, rtol=1e-12, atol=1e-18)

    def test_traceless_and_hermitian(self, fig_rates):
        rho = make_state(ProbeSpec.coherent(1.0 + 0.3j), 40).matrix()
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
        rho = make_state(ProbeSpec.coherent(1.2 + 0.3j), 20).matrix()
        rhs = lindblad_rhs(rho, fig_rates)
        for k in range(20):
            np.testing.assert_allclose(
                band_generator(20, k, fig_rates) @ rho.diagonal(k), rhs.diagonal(k), atol=1e-15
            )


class TestEvolve:
    def test_zero_time_returns_state(self, fig_rates):
        rho = make_state(ProbeSpec.fock(2), 10)
        out = evolve(rho, fig_rates, 0.0)
        np.testing.assert_array_equal(out.matrix(), rho.matrix())

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
        want = apply(propagator(dim, r, t), rho.matrix())
        assert np.max(np.abs(got.matrix() - want)) <= 1e-8

    def test_leakage_budget_aborts(self, fig_rates):
        rho = make_state(ProbeSpec.fock(8), 10)
        with pytest.raises(TruncationError, match="raise dim"):
            evolve(rho, fig_rates, 1.0)


def coherence_stack(state, r) -> tuple[BandStack, np.ndarray]:
    """The stack of the bands k >= 1 the state carries, and its initial vector."""
    return BandStack.build(state.dim, state.bands, r), state.coherences


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
        _, m, k = band_entries(dim, rho.bands)
        want = apply(propagator(dim, r, t), rho.matrix())[m, m + k]
        for kernel in (taylor_action, dense_action):
            assert np.max(np.abs(kernel(stack, v0, t) - want)) <= 1e-12

    @pytest.mark.parametrize("spec", ["squeezed:0.6", "coherent:1.0"])
    @pytest.mark.parametrize("T", [0.05, 0.5, 5.0])
    def test_a_real_vector_gets_the_real_part_of_its_complex_action(self, spec, T):
        # G is real: each kernel acts on Re v and Im v apart, so the real path
        # is the complex one without its zero imaginary part, bit for bit
        rho = make_state(ProbeSpec.parse(spec), 40)
        stack, v = coherence_stack(rho, rates(BathParams(T=T)))
        assert v.dtype == np.float64
        for t in (1e-3, 0.5, 5.0, 30.0):
            for kernel in (taylor_action, dense_action):
                real, both = kernel(stack, v, t), kernel(stack, v.astype(complex), t)
                assert real.dtype == np.float64 and both.dtype == np.complex128
                assert real.tobytes() == np.ascontiguousarray(both.real).tobytes()
                assert not both.imag.any()

    @pytest.mark.parametrize("spec, dtype", [
        ("squeezed:0.6", np.float64), ("coherent:1.0", np.float64),
        ("coherent:1j", np.complex128), ("fock:2", np.float64),
    ])
    def test_evolve_keeps_the_dtype_of_the_coherences(self, fig_rates, spec, dtype):
        rho = make_state(ProbeSpec.parse(spec), 40)
        assert rho.coherences.dtype == dtype
        for t in (1e-3, 30.0):  # the Taylor action and the dense kernel
            out = evolve(rho, fig_rates, t)
            assert out.coherences.dtype == out.matrix().dtype == dtype

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
            outs.append(evolve(rho, r, t).matrix())
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
        W = band_generator(12, 0, fig_rates)
        np.testing.assert_allclose(W.sum(axis=0), 0.0, atol=1e-16)

    @pytest.mark.parametrize("dim", [40, 180])
    def test_populations_are_one_dense_exponential(self, fig_rates, dim):
        p0 = np.zeros(dim)
        p0[1] = 1.0
        p = evolve(make_state(ProbeSpec.fock(1), dim), fig_rates, 0.5).populations
        np.testing.assert_array_equal(p, expm(band_generator(dim, 0, fig_rates) * 0.5) @ p0)
        np.testing.assert_array_equal(evolve(BandState(p0), fig_rates, 0.5).populations, p)

    @pytest.mark.parametrize("spec", ["fock:3", "thermal:0.5", "coherent:1.0", "squeezed:0.6"])
    def test_population_vector_evolves_alone(self, fig_rates, spec, monkeypatch):
        # band 0 never mixes with the coherences: band 0 alone evolves to the
        # populations of the whole state bit for bit, and fails alike
        state = make_state(ProbeSpec.parse(spec), 40)
        alone = evolve(BandState(state.populations), fig_rates, 0.7)
        assert alone.bands.size == alone.coherences.size == 0
        np.testing.assert_array_equal(alone.populations, evolve(state, fig_rates, 0.7).populations)
        # every top-level population exceeds a negative budget
        monkeypatch.setattr("fockthermo.dynamics.LEAKAGE_BUDGET", -1.0)
        with pytest.raises(TruncationError) as vector_error:
            evolve(BandState(state.populations), fig_rates, 0.7)
        with pytest.raises(TruncationError) as matrix_error:
            evolve(state, fig_rates, 0.7)
        assert str(vector_error.value) == str(matrix_error.value)

    @pytest.mark.parametrize("spec", ["fock:3", "coherent:1.0"])
    def test_a_prebuilt_generator_gives_the_same_bits(self, fig_rates, spec):
        state = make_state(ProbeSpec.parse(spec), 40)
        generator = BandGenerator.build(state, fig_rates)
        for t in (1e-3, 0.7, 30.0):  # the Taylor action and the dense kernel on the coherences
            built, given_rates = evolve(state, generator, t), evolve(state, fig_rates, t)
            np.testing.assert_array_equal(built.populations, given_rates.populations)
            np.testing.assert_array_equal(built.coherences, given_rates.coherences)
        others = [make_state(ProbeSpec.parse(spec), 41)]
        others += [BandState(state.populations)] if state.bands.size else []
        for other in others:
            with pytest.raises(DomainError, match="generator was built for other bands"):
                evolve(other, generator, 0.7)

    def test_population_vector_validation(self):
        with pytest.raises(DomainError):
            population_vector(np.array([0.5, 0.4]))
        with pytest.raises(PositivityError):
            population_vector(np.array([1.0 + 1e-6, -1e-6]))
        clipped = population_vector(np.array([1.0, -1e-13, 1e-13]))
        assert clipped[1] == 0.0
