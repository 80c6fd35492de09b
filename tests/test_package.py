from __future__ import annotations

import dataclasses
import inspect

import fockthermo
from fockthermo import cli, dynamics, fisher, fockspace, probes, sweep


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from fockthermo import *", namespace)
    assert set(fockthermo.__all__) <= namespace.keys()


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
                        (dynamics, "dense_action"), (dynamics.BandGenerator, "coherences"),
                        (dynamics.BandGenerator, "bands")]:
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    assert {f.name for f in dataclasses.fields(fockspace.BandState)} == {"populations"}
    for entry in (fisher.d_dT_state, fisher.d_dT_curve):
        assert "methods" not in inspect.signature(entry).parameters
    assert "coherences_dropped" not in {
        f.name for f in dataclasses.fields(fisher.TemperatureDerivative)}
