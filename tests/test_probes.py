from __future__ import annotations

import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import number_operator

from fockthermo import probes
from fockthermo.errors import DomainError, InvalidDimensionError, TruncationError
from fockthermo.probes import (
    ProbeKind,
    ProbeSpec,
    _truncated,
    default_dim,
    make_state,
    squeezed_amplitudes,
    thermal_populations,
)

ASINH_1 = 0.881373587019543


def mean_photon_direct(state) -> float:
    """Independent route: explicit trace against the number operator."""
    return float(np.trace(np.diag(state.populations) @ number_operator(state.dim)).real)


class TestEnergyMatch:
    """``ProbeSpec.matched``: each probe kind at a target mean photon number."""

    def test_zero_energy(self):
        assert ProbeSpec.matched(ProbeKind.SQUEEZED, 0.0).value == 0.0
        assert ProbeSpec.matched(ProbeKind.COHERENT, 0.0).value == 0.0
        assert ProbeSpec.matched(ProbeKind.FOCK, 0.0) == ProbeSpec.fock(0)

    def test_unit_energy(self):
        assert ProbeSpec.matched(ProbeKind.SQUEEZED, 1.0).value == pytest.approx(ASINH_1, rel=1e-15)
        assert ProbeSpec.matched(ProbeKind.COHERENT, 1.0).value == 1.0
        assert ProbeSpec.matched(ProbeKind.THERMAL, 1.0) == ProbeSpec.thermal(1.0)

    def test_three_quanta_round_trip(self):
        r = ProbeSpec.matched(ProbeKind.SQUEEZED, 3.0).value
        assert r == pytest.approx(1.3169578969248166, rel=1e-15)
        assert math.sinh(r) ** 2 == pytest.approx(3.0, abs=1e-12)
        assert ProbeSpec.matched("fock", 3) == ProbeSpec.fock(3)

    def test_negative_rejected(self):
        # and every other n that is not a finite float >= 0, for every kind
        for kind in ProbeKind:
            for n in (-0.5, math.nan, math.inf):
                with pytest.raises(DomainError, match="target mean photon number must be >= 0"):
                    ProbeSpec.matched(kind, n)

    @pytest.mark.parametrize("n", [0.5, 2.25])
    def test_fractional_fock_rejected(self, n):
        # int(n) would truncate it to another energy
        with pytest.raises(DomainError, match="Fock probe needs an integer"):
            ProbeSpec.matched(ProbeKind.FOCK, n)

    @settings(max_examples=50, deadline=None)
    @given(n=st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    def test_round_trip_property(self, n):
        root = math.sqrt(n)
        squeezed = ProbeSpec.matched(ProbeKind.SQUEEZED, n)
        coherent = ProbeSpec.matched(ProbeKind.COHERENT, n)
        # r = asinh(sqrt(n)) and |alpha| = sqrt(n), bit for bit
        assert squeezed == ProbeSpec.squeezed(math.asinh(root))
        assert coherent == ProbeSpec.coherent(root)
        assert ProbeSpec.matched(ProbeKind.THERMAL, n) == ProbeSpec.thermal(n)
        assert squeezed.mean_photon == pytest.approx(n, abs=1e-12)
        assert coherent.mean_photon == pytest.approx(n, abs=1e-12)


class TestMakeState:
    def test_fock_zero_is_vacuum_projector(self):
        rho = make_state(ProbeSpec.fock(0), 8)
        np.testing.assert_array_equal(rho.populations, np.eye(8)[0])

    def test_coherent_mean_photon(self):
        rho = make_state(ProbeSpec.coherent(1.0), 40)
        assert mean_photon_direct(rho) == pytest.approx(1.0, abs=1e-10)

    def test_squeezed_mean_photon(self):
        # at dim=60 the renormalized tail still shifts the mean by ~8e-9;
        # the auto-chosen dimension brings it under 1e-9
        rho = make_state(ProbeSpec.squeezed(ASINH_1), 60)
        assert mean_photon_direct(rho) == pytest.approx(1.0, abs=1e-8)
        spec = ProbeSpec.squeezed(ASINH_1)
        rho = make_state(spec, default_dim(spec))
        assert mean_photon_direct(rho) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("spec", ["squeezed:0.6", "squeezed:-0.6", "coherent:1.5",
                                      "coherent:-1.5", "coherent:1j", "coherent:0.5+0.5j"])
    def test_populations_are_blind_to_the_phase(self, spec):
        # |c_m|^2 is the Poisson law of |alpha|^2, or the squeezed vacuum's
        # (2k choose k) tanh^2k(r) / (4^k cosh r) on even levels, whatever
        # the sign or phase of the amplitude
        probe = ProbeSpec.parse(spec)
        p = make_state(probe, 40).populations
        assert p.dtype == np.float64
        if probe.kind is ProbeKind.COHERENT:
            n = abs(probe.value) ** 2
            want = np.array([math.exp(-n) * n**m / math.factorial(m) for m in range(40)])
        else:
            r = abs(probe.value)
            want = np.zeros(40)
            want[::2] = [math.comb(2 * k, k) * math.tanh(r) ** (2 * k) / (4**k * math.cosh(r))
                         for k in range(20)]
        np.testing.assert_allclose(p, want / want.sum(), rtol=1e-12, atol=0.0)

    def test_trace_exactly_one_after_renormalization(self):
        rho = make_state(ProbeSpec.coherent(2.0), 60)
        assert abs(rho.populations.sum() - 1.0) < 1e-15

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(list(ProbeKind)),
        size=st.floats(0.05, 1.0),
        phase=st.floats(0.0, 2 * np.pi),
        sign=st.sampled_from((-1.0, 1.0)),
        extra=st.integers(0, 40),
    )
    def test_populations_are_the_probe_diagonal(self, kind, size, phase, sign, extra):
        spec = {
            ProbeKind.FOCK: ProbeSpec.fock(round(10 * size)),
            ProbeKind.COHERENT: ProbeSpec.coherent(3.0 * size * np.exp(1j * phase)),
            ProbeKind.SQUEEZED: ProbeSpec.squeezed(1.2 * sign * size),
            ProbeKind.THERMAL: ProbeSpec.thermal(3.0 * size),
        }[kind]
        dim = default_dim(spec) + extra
        p = make_state(spec, dim).populations
        if kind is ProbeKind.FOCK:
            np.testing.assert_array_equal(p, np.eye(dim)[spec.value])
        elif kind is ProbeKind.THERMAL:
            np.testing.assert_array_equal(p, _truncated(spec, dim)[0])
        else:  # |psi_m|^2 of the truncated amplitudes, bit for bit
            psi = _truncated(spec, dim)[0]
            np.testing.assert_array_equal(p, np.outer(psi, psi.conj()).diagonal().real)

    def test_fock_above_cutoff_rejected(self):
        with pytest.raises(InvalidDimensionError):
            make_state(ProbeSpec.fock(40), 40)

    def test_underresolved_squeezed_rejected(self):
        with pytest.raises(TruncationError, match="raise dim"):
            make_state(ProbeSpec.squeezed(2.0), 40)

    def test_underresolved_thermal_rejected(self):
        with pytest.raises(TruncationError, match="raise dim"):
            make_state(ProbeSpec.thermal(5.0), 20)

    @pytest.mark.parametrize("dim", [100, 4096])
    def test_unrepresentable_amplitudes_rejected(self, dim):
        # |alpha|^2/2 = 800: exp(-800) is 0, and alpha^m/sqrt(m!) overflows
        # past m ~ 1000, so the amplitudes are all 0 (dim 100) or NaN (4096)
        with pytest.raises(TruncationError, match=f"coherent:40.0 on dim={dim} levels"):
            make_state(ProbeSpec.coherent(40.0), dim)


class TestSqueezedAmplitudes:
    def test_recurrence_matches_factorial_form(self):
        r = 0.9
        c = squeezed_amplitudes(r, 30)
        for k in (1, 3, 7):
            direct = (
                math.sqrt(math.factorial(2 * k))
                / (2**k * math.factorial(k))
                * (-math.tanh(r)) ** k
                / math.sqrt(math.cosh(r))
            )
            assert c[2 * k].real == pytest.approx(direct, rel=1e-12)

    def test_large_dim_does_not_overflow(self):
        c = squeezed_amplitudes(1.5, 200)
        assert np.all(np.isfinite(c.real))


class TestDefaultDim:
    def test_fock_uses_floor(self):
        assert default_dim(ProbeSpec.fock(1)) == 40
        assert default_dim(ProbeSpec.fock(10)) == 100  # 8 n + 20

    def test_squeezed_grows_past_floor(self):
        dim = default_dim(ProbeSpec.squeezed(ASINH_1))
        assert dim > 40
        rho = make_state(ProbeSpec.squeezed(ASINH_1), dim)
        assert abs(mean_photon_direct(rho) - 1.0) < 1e-8

    def test_thermal_tail_resolved(self):
        spec = ProbeSpec.thermal(2.0)
        p = thermal_populations(2.0, default_dim(spec))
        assert 1.0 - p.sum() < 1e-9

    def test_env_cap_limits_growth(self, monkeypatch):
        monkeypatch.setenv("FOCKTHERMO_DIM_MAX", "50")
        # squeezed nbar=1 needs 68 levels; the safety valve refuses to grow
        with pytest.raises(TruncationError):
            default_dim(ProbeSpec.squeezed(ASINH_1))
        assert default_dim(ProbeSpec.fock(1)) == 40
        with pytest.raises(TruncationError):
            default_dim(ProbeSpec.fock(60))


    @pytest.mark.parametrize("r, expected", [(2.5, 1937), (3.0, None)])
    def test_search_takes_few_tail_tests(self, monkeypatch, r, expected):
        # a walk 4 levels at a time would take 407 tests to reach 1937, and 819 to refuse r = 3
        dims = []

        def counted(spec, dim):
            dims.append(dim)
            return _truncated(spec, dim)

        monkeypatch.setattr(probes, "_truncated", counted)
        if expected is None:
            with pytest.raises(TruncationError, match="no dimension <= 4096"):
                default_dim(ProbeSpec.squeezed(r))
        else:
            assert default_dim(ProbeSpec.squeezed(r)) == expected
        assert len(dims) <= 24

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from([ProbeKind.COHERENT, ProbeKind.SQUEEZED, ProbeKind.THERMAL]),
           n=st.floats(1e-3, 10.0))
    def test_search_returns_the_first_passing_dim(self, kind, n):
        spec = ProbeSpec.matched(kind, n)
        # the reference: walk up from the floor 4 levels at a time
        dim = max(40, math.ceil(8 * spec.mean_photon + 20))
        while _truncated(spec, dim)[1] * dim > 1e-9:
            dim += 4
        assert default_dim(spec) == dim


# every kind, with a value whose mean photon number is a finite float
PROBE_SPECS = st.one_of(
    st.integers(min_value=0).map(ProbeSpec.fock),
    st.complex_numbers(max_magnitude=1e150, allow_infinity=False, allow_nan=False)
    .map(ProbeSpec.coherent),
    st.floats(-350.0, 350.0).map(ProbeSpec.squeezed),
    st.floats(min_value=0.0, allow_infinity=False).map(ProbeSpec.thermal),
)


class TestProbeSpecText:
    @settings(max_examples=40, deadline=None)
    @given(drawn=PROBE_SPECS)
    @pytest.mark.parametrize(
        "spec",
        [
            ProbeSpec.fock(3),
            ProbeSpec.coherent(1.0),
            ProbeSpec.coherent(0.5 + 0.25j),
            ProbeSpec.squeezed(0.8814),
            ProbeSpec.thermal(0.5),
        ],
    )
    def test_canonical_round_trip(self, spec, drawn):
        assert ProbeSpec.parse(spec.canonical()) == spec
        assert ProbeSpec.parse(drawn.canonical()) == drawn

    def test_parse_examples(self):
        assert ProbeSpec.parse("fock:3") == ProbeSpec.fock(3)
        assert ProbeSpec.parse("coherent:1.0") == ProbeSpec.coherent(1.0)
        assert ProbeSpec.parse("squeezed:0.8814") == ProbeSpec.squeezed(0.8814)
        assert ProbeSpec.parse("thermal:0.5") == ProbeSpec.thermal(0.5)

    @pytest.mark.parametrize("text", ["fock", "fock:", "gauss:1", "fock:1.5", "thermal:-1"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(DomainError):
            ProbeSpec.parse(text)

    @pytest.mark.parametrize(
        "text", ["squeezed:400", "squeezed:-800", "coherent:1e200", "coherent:1e154+1e154j"]
    )
    def test_mean_photon_beyond_double_range_rejected(self, text):
        with pytest.raises(DomainError, match="mean photon number .* is not a finite float"):
            ProbeSpec.parse(text)

    def test_mean_photon(self):
        assert ProbeSpec.fock(4).mean_photon == 4.0
        assert ProbeSpec.coherent(2.0).mean_photon == pytest.approx(4.0)
        assert ProbeSpec.squeezed(ASINH_1).mean_photon == pytest.approx(1.0, abs=1e-12)
        assert ProbeSpec.thermal(0.7).mean_photon == 0.7

    def test_diagonal_flag(self):
        assert ProbeSpec.fock(1).is_number_diagonal
        assert ProbeSpec.thermal(1.0).is_number_diagonal
        assert not ProbeSpec.coherent(1.0).is_number_diagonal
        assert not ProbeSpec.squeezed(0.5).is_number_diagonal

    def test_invalid_payloads(self):
        with pytest.raises(DomainError):
            ProbeSpec.fock(-1)
        with pytest.raises(DomainError):
            ProbeSpec.thermal(-0.5)
        with pytest.raises(DomainError):
            ProbeSpec(ProbeKind.SQUEEZED, math.inf)

    def test_a_spec_is_its_kind_and_one_value(self):
        assert [f.name for f in dataclasses.fields(ProbeSpec)] == ["kind", "value"]
        # the value is converted once, to the type of its kind
        for spec, kind in [(ProbeSpec.fock(np.int64(3)), int), (ProbeSpec.coherent(1), complex),
                           (ProbeSpec.squeezed(1), float), (ProbeSpec.thermal(1), float)]:
            assert type(spec.value) is kind

    @pytest.mark.parametrize("n", [1.7, True, 2.0])
    def test_fock_refuses_a_value_that_is_not_an_integer(self, n):
        # int(n) used to truncate 1.7 to fock:1, and True spelled fock:True
        for make in (ProbeSpec.fock, partial(ProbeSpec, ProbeKind.FOCK)):
            with pytest.raises(DomainError, match="Fock excitation must be an integer >= 0"):
                make(n)

    @pytest.mark.parametrize(
        "make, value",
        [
            pytest.param(ProbeSpec.squeezed, True, id="squeezed-bool"),
            pytest.param(ProbeSpec.thermal, False, id="thermal-bool"),
            pytest.param(ProbeSpec.coherent, True, id="coherent-bool"),
            pytest.param(ProbeSpec.coherent, np.True_, id="coherent-numpy-bool"),
            pytest.param(ProbeSpec.thermal, np.False_, id="thermal-numpy-bool"),
            pytest.param(ProbeSpec.fock, np.True_, id="fock-numpy-bool"),
            pytest.param(ProbeSpec.coherent, "1", id="coherent-text"),
            pytest.param(ProbeSpec.thermal, "0.5", id="thermal-text"),
            pytest.param(ProbeSpec.squeezed, "abc", id="squeezed-bad-text"),
            pytest.param(ProbeSpec.coherent, None, id="coherent-none"),
            pytest.param(ProbeSpec.squeezed, 1j, id="squeezed-complex"),
            pytest.param(ProbeSpec.thermal, np.complex128(0.5), id="thermal-numpy-complex"),
        ],
    )
    def test_a_value_is_a_number_its_kind_holds(self, make, value):
        with pytest.raises(DomainError, match=r"must be an? (integer|real|complex)"):
            make(value)
        with pytest.raises(DomainError, match=r"must be an? (integer|real|complex)"):
            ProbeSpec(make(1).kind, value)

    @pytest.mark.parametrize(
        "make, value, stored",
        [
            pytest.param(ProbeSpec.fock, np.uint8(3), 3, id="fock-numpy-int"),
            pytest.param(ProbeSpec.coherent, np.float32(0.5), 0.5 + 0j, id="coherent-numpy-float"),
            pytest.param(ProbeSpec.coherent, np.complex64(0.5j), 0.5j, id="coherent-numpy-complex"),
            pytest.param(ProbeSpec.squeezed, np.int64(1), 1.0, id="squeezed-numpy-int"),
            pytest.param(ProbeSpec.thermal, 2, 2.0, id="thermal-int"),
        ],
    )
    def test_every_number_its_kind_holds_keeps_its_value(self, make, value, stored):
        spec = make(value)
        assert spec.value == stored and type(spec.value) is type(stored)
