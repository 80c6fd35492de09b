from __future__ import annotations

import dataclasses
import inspect
import json
import pydoc
import re
from pathlib import Path

import fockthermo
from fockthermo import cli, dynamics, fisher, fockspace, probes, sweep


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from fockthermo import *", namespace)
    assert set(fockthermo.__all__) <= namespace.keys()


def test_every_name_the_readme_cites_resolves():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    cited = set(re.findall(r"`(fockthermo(?:\.\w+)+)", readme))
    assert cited
    unresolved = [name for name in sorted(cited) if pydoc.locate(name) is None]
    assert not unresolved, f"README cites names that do not resolve: {unresolved}"


def test_retired_bound_types_are_gone():
    # the closed forms return floats; short_time_valid gives the validity flag
    retired = {"BoundResult", "BoundKind", "EnqfiResult", "enqfi"}
    assert not retired & set(fockthermo.__all__)
    assert not any(hasattr(fockthermo, name) for name in retired)


def test_retired_writer_and_record_fields_are_gone():
    # nothing in the program read the config writer or the record's copied
    # inputs and free-form dict; the record's facts are typed fields
    assert not hasattr(cli, "parse_config_text")
    assert not hasattr(cli.RunConfig, "to_text")
    fields = {f.name for f in dataclasses.fields(fockthermo.QfiRecord)}
    assert fields == {"value", "method", "dim", "leakage", "h_used"}
    assert not {"diagnostics", "probe", "bath", "t", "dropped_pairs"} & fields


def test_retired_probe_conversions_are_gone():
    # ProbeSpec.matched is the one energy-matched probe, and parse_args
    # converts each CLI value once, into the RunConfig it returns
    assert not {"EnergyMatch", "energy_match"} & set(fockthermo.__all__)
    for owner, name in [(fockthermo, "EnergyMatch"), (fockthermo, "energy_match"),
                        (probes, "EnergyMatch"), (probes, "energy_match"),
                        (sweep, "_instantiate_probe"), (cli.RunConfig, "probe_spec"),
                        (cli.RunConfig, "resolved_dim"), (cli, "_sweep_probes")]:
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"


def test_retired_sweep_and_evolve_options_are_gone():
    # SweepSpec states its domain rules in __post_init__, and evolve reads
    # the one leakage budget no caller changed
    assert not hasattr(sweep.SweepSpec, "_validate_axis_domain")
    assert "leakage_budget" not in inspect.signature(dynamics.evolve).parameters


def test_retired_coherence_machinery_is_gone():
    # the package propagates band 0 alone, and a Gaussian QFI is a closed
    # form: no coherence band, Taylor action or eigendecomposition is left
    for owner, name in [(fisher, "qfi_sld_detailed"), (fockspace, "band_entries"),
                        (fockspace.BandState, "matrix"), (fockspace.BandState, "bands"),
                        (fockspace.BandState, "coherences"), (dynamics, "taylor_action"),
                        (dynamics, "TAYLOR_THETA"), (dynamics, "TAYLOR_TOL"),
                        (dynamics, "ACTION_COST"), (dynamics, "BandStack"),
                        (dynamics, "dense_action"), (dynamics, "BandGenerator")]:
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    assert {f.name for f in dataclasses.fields(fockspace.BandState)} == {"populations"}
    for entry in (fisher.d_dT_state, fisher.d_dT_curve):
        assert "methods" not in inspect.signature(entry).parameters
    # a Gaussian QFI reads (probe, bath, t) directly, not off a derivative
    assert {"coherences_dropped", "bath", "t"}.isdisjoint(
        f.name for f in dataclasses.fields(fisher.TemperatureDerivative))


def test_scipy_loads_only_for_a_thermal_probe(fresh_python):
    # scipy takes ~0.2 s and ~26 MiB to import, and only a thermal probe's
    # stencil (dynamics.expm) uses it. Each case runs in turn in one fresh
    # interpreter and reports the scipy modules loaded by its end.
    out = fresh_python("""
        import contextlib, io, json, sys

        def scipy_loaded():
            return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

        seen = {}
        import fockthermo
        seen["import fockthermo"] = scipy_loaded()
        from fockthermo.cli import main
        seen["import fockthermo.cli"] = scipy_loaded()
        argvs = [["qfi", "--probe", p, "--method", "cfi,qfi"]
                 for p in ("fock:1", "coherent:1.0", "squeezed:0.6")]
        argvs.append(["bounds", "--method", "cfi"])
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
            seen[" ".join(argv)] = scipy_loaded()
        from fockthermo.probes import ProbeKind
        from fockthermo.sweep import SweepAxis, SweepMethod, SweepSpec, run_sweep
        spec = SweepSpec(axis=SweepAxis.EXCITATION_N, axis_values=(1, 2),
                         probes=(ProbeKind.FOCK, ProbeKind.SQUEEZED, ProbeKind.COHERENT),
                         methods=(SweepMethod.QFI,), t=0.5)
        assert not any(row.error for row in run_sweep(spec, workers=1).rows)
        seen["excitation sweep"] = scipy_loaded()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["qfi", "--probe", "thermal:0.5", "--method", "cfi"]) == 0
        seen["thermal"] = "scipy.linalg" in sys.modules
        print(json.dumps(seen))
    """)
    seen = json.loads(out.splitlines()[-1])
    assert seen.pop("thermal") is True  # the lazy import runs
    assert seen == {case: [] for case in seen}
    assert len(seen) == 7


def test_the_process_pool_loads_only_when_a_sweep_forks_one(fresh_python):
    # concurrent.futures and multiprocessing take ~1.4 MiB and ~10 ms to
    # import, and only run_sweep at workers > 1 uses them. Each case runs in
    # turn in one fresh interpreter and reports the pool modules loaded by its end.
    out = fresh_python("""
        import contextlib, io, json, sys

        def pool_loaded():
            return sorted(name for name in sys.modules
                          if name == "concurrent.futures.process"
                          or name.split(".")[0] == "multiprocessing")

        seen = {}
        import fockthermo
        seen["import fockthermo"] = pool_loaded()
        from fockthermo.cli import main
        seen["import fockthermo.cli"] = pool_loaded()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["qfi", "--probe", "fock:1", "--method", "cfi,qfi"]) == 0
        seen["qfi"] = pool_loaded()
        from fockthermo import BathParams, FisherMethod, ProbeSpec, qfi_curve
        from fockthermo.sweep import SweepAxis, SweepMethod, SweepSpec, run_sweep
        spec = SweepSpec(axis=SweepAxis.TIME, axis_values=(0.01, 0.1),
                         probes=(ProbeSpec.fock(1), ProbeSpec.coherent(1.0)),
                         methods=(SweepMethod.CFI, SweepMethod.QFI))
        serial = run_sweep(spec, workers=1).rows
        seen["workers=1 sweep"] = pool_loaded()
        qfi_curve(ProbeSpec.fock(1), BathParams(), [0.01, 0.1], FisherMethod.CFI_NUMBER)
        seen["qfi_curve"] = pool_loaded()
        forked = run_sweep(spec, workers=2).rows
        seen["workers=2 sweep"] = pool_loaded()
        print(json.dumps({"seen": seen, "len": len(spec.plan), "same": forked == serial}))
    """)
    report = json.loads(out.splitlines()[-1])
    seen = report["seen"]
    forked = seen.pop("workers=2 sweep")
    assert seen == {case: [] for case in seen} and len(seen) == 5
    assert "concurrent.futures.process" in forked and "multiprocessing" in forked
    assert report["len"] >= 2 and report["same"]
