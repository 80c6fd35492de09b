"""The benchmark's tracer wraps program names by string; a refactor that
renames or deletes one, or routes a stage around it, silently zeroes that
layer's metrics. Every site must resolve, apart from those that the
benchmark still has to retire, and a Fisher point must call through the
sites of the stages it runs. The benchmark's correctness cross-check must
keep running through the library calls it makes."""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from fockthermo import fisher
from fockthermo.dynamics import population_vector
from fockthermo.fisher import FisherMethod
from fockthermo.fockspace import EIGENVALUE_FLOOR
from fockthermo.probes import ProbeKind, ProbeSpec
from fockthermo.sweep import SweepAxis, SweepMethod, SweepSpec, run_sweep

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Names removed before the benchmark was updated; it still lists them.
STALE = {("fockthermo.sweep", "qfi_point"), ("fockthermo.dynamics", "_evolve_rk4"),
         ("fockthermo.fisher", "qfi_sld_detailed")}


def _sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer, tracer.SITES


_TRACER, _SITES = _sites()
_LIVE = [site for site in _SITES if (site[0], site[1]) not in STALE]


@pytest.mark.parametrize("owner, attr, name", _LIVE, ids=[f"{o}.{a}" for o, a, _ in _LIVE])
def test_tracer_site_resolves(owner, attr, name):
    assert callable(getattr(_TRACER._owner(owner), attr, None)), f"{name}: {owner}.{attr} is gone"


def test_stale_sites_are_still_listed_and_still_gone():
    # once the benchmark drops them, drop them from STALE too
    assert STALE <= {(owner, attr) for owner, attr, _ in _SITES}
    for owner, attr in STALE:
        assert getattr(_TRACER._owner(owner), attr, None) is None


# The channel kernel that propagates every probe but a thermal one. The
# benchmark's tracer has no site for it; the tests count it under this name.
CHANNEL = "dynamics.attenuate"


def _count_site_calls(monkeypatch) -> Counter:
    """The calls through each traced name from here on, as the tracer would
    see them, and through the channel kernel, as ``CHANNEL``."""
    calls: Counter = Counter()
    for owner, attr, name in [*_LIVE, ("fockthermo.fisher", "attenuate", CHANNEL)]:
        target = _TRACER._owner(owner)

        def counted(*args, _fn=getattr(target, attr), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(target, attr, counted)
    return calls


@pytest.mark.parametrize(
    "spec, method, expected",
    [
        # a number-diagonal QFI is the CFI sum with the eigenvalue floor; a
        # thermal probe evolves under its five stencil temperatures
        ("thermal:0.5", FisherMethod.QFI_SLD,
         {CHANNEL: 0, "dynamics.evolve": 5, "dynamics.expm": 5}),
        ("fock:1", FisherMethod.QFI_SLD, {}),
        ("coherent:1.0", FisherMethod.CFI_NUMBER, {}),
        # a Gaussian QFI is a closed form, reduced from no sum and from no
        # derivative: nothing is sized, prepared or propagated
        ("coherent:1.0", FisherMethod.QFI_SLD,
         {"fisher.cfi": 0, "fisher.d_dT_state": 0, "probes.default_dim": 0,
          "probes.make_state": 0, CHANNEL: 0}),
    ],
)
def test_a_point_calls_through_the_sites_of_its_stages(monkeypatch, fig_bath, spec, method, expected):
    calls = _count_site_calls(monkeypatch)
    fisher.qfi_point(ProbeSpec.parse(spec), fig_bath, 0.5, method)
    stages = {
        "fisher.qfi_point": 1,
        "fisher.d_dT_state": 1,
        "probes.default_dim": 1,
        "probes.make_state": 1,
        "fisher.cfi": 1,
        CHANNEL: 1,
        "dynamics.evolve": 0,
        "dynamics.expm": 0,
        **expected,
    }
    assert {name: calls[name] for name in stages} == stages


@pytest.mark.parametrize(
    "axis, values, probes",
    [
        (SweepAxis.TEMPERATURE, (0.3, 0.5, 1.0), (ProbeSpec.fock(1), ProbeSpec.thermal(0.5))),
        (SweepAxis.EXCITATION_N, (1, 2), (ProbeKind.FOCK, ProbeKind.COHERENT)),
    ],
)
def test_a_sweep_calls_the_derivative_site_once_per_value_and_probe(monkeypatch, axis, values,
                                                                     probes):
    calls = _count_site_calls(monkeypatch)
    spec = SweepSpec(axis=axis, axis_values=values, probes=probes, t=0.05,
                     methods=(SweepMethod.CFI, SweepMethod.QFI, SweepMethod.BOUND_FOCK_LINEAR))
    assert not any(row.error for row in run_sweep(spec, workers=1).rows)
    assert calls["fisher.d_dT_state"] == len(values) * len(probes)


@pytest.mark.parametrize("method", list(FisherMethod))
def test_evolve_span_reads_the_dim_of_the_point(monkeypatch, fig_bath, method):
    # the tracer reads the dim off the state that evolve takes first; a
    # thermal probe is the one that evolve propagates
    spec = "thermal:0.5"
    seen = []
    evolve = fisher.evolve

    def recorded(*args, **kwargs):
        seen.append(_TRACER.ATTRS["dynamics.evolve"](args, kwargs))
        return evolve(*args, **kwargs)

    monkeypatch.setattr(fisher, "evolve", recorded)
    record = fisher.qfi_point(ProbeSpec.parse(spec), fig_bath, 0.5, method)
    assert seen == [{"dim": record.dim}] * 5


@pytest.mark.parametrize(
    "spec, method, sizings, evolutions",
    [
        # an automatic Fock dim is sized, and the probe prepared, at each t
        ("fock:1", FisherMethod.QFI_SLD, 4, 0),
        ("squeezed:0.6", FisherMethod.CFI_NUMBER, 1, 0),
        # a thermal probe evolves under its five stencil temperatures at each t
        ("thermal:0.5", FisherMethod.CFI_NUMBER, 1, 5),
    ],
)
def test_a_curve_sizes_and_prepares_its_probe_once_or_at_each_time(monkeypatch, fig_bath, spec,
                                                                   method, sizings, evolutions):
    ts = (1e-3, 1e-2, 0.1, 0.5)
    calls = _count_site_calls(monkeypatch)
    seen = []
    evolve = fisher.evolve

    def recorded(*args, **kwargs):
        seen.append(_TRACER.ATTRS["dynamics.evolve"](args, kwargs))
        return evolve(*args, **kwargs)

    monkeypatch.setattr(fisher, "evolve", recorded)
    records = fisher.qfi_curve(ProbeSpec.parse(spec), fig_bath, ts, method)
    stages = {
        "fisher.qfi_curve": 1,
        "fisher.qfi_point": 0,
        "fisher.d_dT_state": 0,
        "probes.default_dim": sizings,
        "probes.make_state": sizings,
        CHANNEL: 0 if evolutions else len(ts),  # one channel kernel per time
        "dynamics.evolve": evolutions * len(ts),
        "dynamics.expm": evolutions * len(ts),
    }
    assert {name: calls[name] for name in stages} == stages
    assert seen == [{"dim": record.dim} for record in records for _ in range(evolutions)]


@pytest.mark.parametrize("spec, name, first", [
    ("thermal:0.5", "dynamics.evolve", 5),  # the five stencil temperatures of the first t
    ("coherent:1.0", CHANNEL, 1),
])
def test_a_curve_yields_each_derivative_before_evolving_the_next_time(monkeypatch, fig_bath, spec,
                                                                      name, first):
    calls = _count_site_calls(monkeypatch)
    curve = fisher.d_dT_curve(ProbeSpec.parse(spec), fig_bath, [k / 3.0 for k in range(1, 10)])
    next(curve)
    assert calls[name] == first


def test_benchmark_cross_check_path(fig_bath):
    # perfbench/workload.py recomputes the CFI of a number-diagonal point
    # from the derivative's state and matrix, with the QFI's eigenvalue floor
    deriv = fisher.d_dT_state(ProbeSpec.fock(1), fig_bath, 0.5)
    p = population_vector(deriv.rho.populations)
    dp = deriv.drho.diagonal().real
    cfi = fisher.cfi_number_basis(p, dp, p_floor=EIGENVALUE_FLOOR)
    assert cfi == fisher.fisher_record(deriv, FisherMethod.QFI_SLD).value
