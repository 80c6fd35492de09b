from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockthermo import cli, selfcheck
from fockthermo.bath import RateModel
from fockthermo.cli import RunConfig, main, parse_args
from fockthermo.errors import ConfigError, DomainError
from fockthermo.probes import ProbeKind, ProbeSpec
from fockthermo.selfcheck import registered_checks
from fockthermo.sweep import AXIS_OVERRIDES, SweepAxis, SweepMethod

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so that stderr is what a user sees."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "fockthermo.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def parse_config_file(tmp_path: Path, text: str) -> RunConfig:
    """``qfi --config`` of a file holding ``text``."""
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return parse_args(["qfi", "--config", str(path)])[1]


class TestParsing:
    def test_defaults_are_the_reference_regime(self):
        _, cfg = parse_args(["qfi"])
        assert (cfg.omega, cfg.T, cfg.gamma, cfg.g, cfg.t) == (1.0, 0.5, 0.1, 0.05, 0.5)
        assert cfg.rate_model is RateModel.MARKOVIAN
        assert cfg.probe == ProbeSpec.fock(1)

    def test_flag_overrides(self):
        _, cfg = parse_args(["qfi", "--probe", "fock:3", "--T", "0.25"])
        assert cfg.probe == ProbeSpec.fock(3)
        assert cfg.T == 0.25
        assert cfg.gamma == 0.1  # untouched default

    def test_negative_temperature_rejected(self):
        with pytest.raises(ConfigError, match="T must be > 0"):
            parse_args(["qfi", "--T", "-1"])

    def test_unknown_flag_rejected(self):
        with pytest.raises(ConfigError):
            parse_args(["qfi", "--weird", "1"])

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="unknown method"):
            parse_args(["qfi", "--method", "psychic"])

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[bath]\nT = 0.3\ngamma = 0.2\n")
        _, cfg = parse_args(["qfi", "--config", str(cfg_file), "--T", "0.7"])
        assert cfg.T == 0.7      # flag wins
        assert cfg.gamma == 0.2  # file beats default

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_args(["qfi", "--config", "/nonexistent/run.cfg"])

    def test_unknown_config_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[bath\] humidity"):
            parse_config_file(tmp_path, "[bath]\nhumidity = 0.9\n")

    def test_unknown_config_section_named(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[lab\]"):
            parse_config_file(tmp_path, "[lab]\nbench = 3\n")

    def test_malformed_value_named(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[bath\] T must be a number"):
            parse_config_file(tmp_path, "[bath]\nT = warm\n")

    def test_values_arrive_as_the_types_the_program_reads(self, tmp_path):
        def parse(via, command, **values):
            if via == "flag":
                return parse_args([command, *(arg for name, text in values.items()
                                              for arg in (cli._flag(name), text))])[1]
            sections: dict[str, list[str]] = {}
            for name, text in values.items():
                section = cli._FIELDS[name].metadata["section"]
                sections.setdefault(section, []).append(f"{name} = {text}\n")
            path = tmp_path / f"{command}.cfg"
            path.write_text("".join(f"[{s}]\n" + "".join(lines) for s, lines in sections.items()))
            return parse_args([command, "--config", str(path)])[1]

        for via in ("flag", "config"):
            cfg = parse(via, "sweep", axis="N", axis_values="1,2",
                        probes="fock,Squeezed,coherent:1.0", method="CFI,bound-coherent",
                        rate_model="purcell", g="0.07")
            assert cfg.axis is SweepAxis.EXCITATION_N
            assert cfg.probes == (ProbeKind.FOCK, ProbeKind.SQUEEZED, ProbeSpec.coherent(1.0))
            assert cfg.method == (SweepMethod.CFI, SweepMethod.BOUND_COHERENT)
            assert cfg.rate_model is RateModel.PURCELL
            cfg = parse(via, "sweep", axis="temp", axis_values="0.5")
            assert cfg.axis is SweepAxis.TEMPERATURE
            cfg = parse(via, "qfi", probe=" Coherent:1.0", method="qfi,Cfi")
            assert cfg.probe == ProbeSpec.coherent(1.0)
            assert cfg.method == (SweepMethod.QFI, SweepMethod.CFI)
        # the command's default method: qfi for qfi and sweep, none for bounds
        assert parse_args(["qfi"])[1].method == (SweepMethod.QFI,)
        assert parse_args(["bounds"])[1].method == ()

    @pytest.mark.parametrize("value", ["foo", "PURCELL", "Markovian"])
    def test_rate_model_is_spelled_exactly(self, value, capsys):
        assert main(["qfi", "--rate-model", value]) == 1
        assert capsys.readouterr().err == (
            f"error: rate_model must be 'markovian' or 'purcell', got {value!r}\n")

    @pytest.mark.parametrize("argv, section, key, value, message", [
        pytest.param(["qfi", "--rate-model", "markovian"], "bath", "rate_model", "PURCELL",
                     "rate_model must be 'markovian' or 'purcell', got 'PURCELL'",
                     id="rate_model"),
        pytest.param(["qfi", "--probe", "fock:1"], "run", "probe", "nonsense:1",
                     "unknown probe kind 'nonsense'", id="probe"),
        pytest.param(["sweep", "--axis", "time", "--axis-values", "0.1", "--probes", "fock:1"],
                     "sweep", "probes", "fock:x", "bad probe payload in 'fock:x'", id="probes"),
        pytest.param(["qfi", "--method", "cfi"], "run", "method", "bogus",
                     "unknown method 'bogus'", id="method"),
        pytest.param(["sweep", "--axis", "time", "--axis-values", "0.1", "--probes", "fock:1"],
                     "sweep", "axis", "bogus", "unknown axis 'bogus'", id="axis"),
        # a number outside its key's domain is malformed too
        pytest.param(["qfi", "--t", "0.5"], "run", "t", "-1", "[run] t must be >= 0, got '-1'",
                     id="t"),
        pytest.param(["qfi", "--dim", "40"], "run", "dim", "1", "[run] dim must be >= 2, got '1'",
                     id="dim"),
        pytest.param(["qfi", "--T", "0.5"], "bath", "T", "-3", "[bath] T must be > 0, got '-3'",
                     id="T"),
        pytest.param(["sweep", "--axis", "time", "--axis-values", "0.1", "--probes", "fock:1",
                      "--workers", "1"], "sweep", "workers", "0",
                     "[sweep] workers must be >= 1, got '0'", id="workers"),
    ])
    def test_malformed_config_value_refused_under_its_flag(self, argv, section, key, value,
                                                           message, tmp_path, monkeypatch,
                                                           capsys):
        # the flag wins, but the file's value is parsed, and refused, all the same
        monkeypatch.chdir(tmp_path)  # a sweep would write sweep.csv here
        (tmp_path / "run.cfg").write_text(f"[{section}]\n{key} = {value}\n")
        assert main([*argv, "--config", "run.cfg"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert [f.name for f in tmp_path.iterdir()] == ["run.cfg"]

    def test_config_values_outside_their_domain_refused_under_their_flags(self, tmp_path,
                                                                         capsys):
        # every flag overrides a file value outside its domain; the first is named
        (tmp_path / "c.ini").write_text("[run]\nt = -1\ndim = 1\n[bath]\nT = -3\n")
        assert main(["qfi", "--config", str(tmp_path / "c.ini"), "--t", "0.5", "--dim", "40",
                     "--T", "0.5", "--method", "cfi"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: [run] t must be >= 0, got '-1'\n"


class TestCommands:
    @pytest.mark.parametrize("probe", [
        "squeezed:400", "coherent:1e200", "thermal:1e308", "coherent:1e154", "squeezed:355",
    ])
    def test_probe_beyond_every_dim_refused(self, probe, capsys):
        # its mean photon number, or 8 n + 20, leaves double range; a coherent
        # QFI reads no dim, so the CFI is the point that sizes coherent:1e154
        method = ["--method", "cfi"] if probe == "coherent:1e154" else []
        assert main(["qfi", "--probe", probe, *method]) in (1, 2)
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_unrepresentable_amplitudes_refused(self, capsys):
        # coherent:40 has NaN amplitudes on the cap's 4096 levels, which its
        # CFI reads
        assert main(["qfi", "--probe", "coherent:40", "--method", "cfi"]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: TruncationError: the amplitudes of coherent:40.0 on "
            "dim=4096 levels are not representable: their mass is nan\n"
        )

    def test_qfi_value_matches_short_time_oracle(self, capsys):
        # CFI at Gamma0 t = 1e-3 sits within 5% of the linear closed form
        assert main(["qfi", "--probe", "fock:1", "--t", "0.01", "--method", "cfi"]) == 0
        out = capsys.readouterr().out
        value = float(re.search(r"qfi=([0-9.e+-]+)", out).group(1))
        assert value == pytest.approx(0.007152434380288741, rel=0.05)
        assert "delta_t_min=" in out

    def test_gaussian_qfi_needs_no_truncation(self, capsys):
        # at T = 5, t = 5 the populations outgrow the automatic dim, but the
        # closed-form QFI reads none of them
        point = ["qfi", "--probe", "coherent:1.0", "--T", "5", "--t", "5"]
        assert main([*point, "--method", "qfi"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"  qfi=0\.0311600275 .* h_used=0 leakage=0 dim=0$", out, re.M), out
        assert main([*point, "--method", "cfi"]) == 2
        assert capsys.readouterr().err.startswith("numerical failure: TruncationError: ")

    def test_leakage_at_zero_time_is_refused(self, capsys):
        # fock:39 fills the top level of dim 40 from the start, as at t = 1e-12
        for t in ("0", "1e-12"):
            assert main(["qfi", "--probe", "fock:39", "--dim", "40", "--t", t,
                         "--method", "cfi"]) == 2
            assert capsys.readouterr().err.startswith(
                "numerical failure: TruncationError: top-level population 1.000e+00 exceeded "
                "the leakage budget 1e-08")

    def test_qfi_rejects_bound_methods(self, capsys):
        assert main(["qfi", "--method", "bound_squeezed"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [m.value for m in SweepMethod if m.value.startswith("bound_")])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_bounds_rejects_bound_methods(self, name, via, tmp_path, capsys):
        # the table always holds every closed form; --method only adds cfi/qfi
        argv = ["bounds", "--t", "0.01", "--axis-values", "1"]
        if via == "flag":
            argv += ["--method", name]
        else:
            (tmp_path / "run.cfg").write_text(f"[run]\nmethod = {name}\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bounds command computes 'cfi' or 'qfi', not {name!r}" in captured.err

    def test_bounds_table(self, capsys):
        assert main(["bounds", "--t", "0.01", "--axis-values", "0,1,2"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0].startswith("n,nbar,fock_linear")
        assert len(out) == 4
        assert out[1].split(",")[9] == ""  # simulated columns only on request

    def test_bounds_table_with_numerics(self, capsys):
        # each simulated column is filled exactly when its method was asked for
        for methods in ("cfi", "qfi", "cfi,qfi", "qfi,cfi"):
            argv = ["bounds", "--t", "0.01", "--axis-values", "1", "--method", methods]
            assert main(argv) == 0
            out = capsys.readouterr().out.strip().split("\n")
            cells = dict(zip(("cfi", "qfi"), out[1].split(",")[9:11]))
            for method, cell in cells.items():
                if method in methods.split(","):
                    # Fock probes: CFI = QFI
                    assert float(cell) == pytest.approx(0.007152434380288741, rel=0.05)
                else:
                    assert cell == "", (methods, method)

    def test_sweep_end_to_end(self, tmp_path, capsys):
        out_csv = tmp_path / "fig.csv"
        code = main([
            "sweep", "--axis", "time", "--axis-values", "0.01,0.02,0.05,0.1",
            "--probes", "fock:1,coherent:1.0", "--method", "cfi",
            "--workers", "1", "--out", str(out_csv),
        ])
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == (
            "axis,axis_value,probe,method,qfi,delta_t_min,valid_short_time,leakage,h_used,dim"
        )
        assert len(lines) == 9
        payload = json.loads(out_csv.with_suffix(".json").read_text())
        assert payload["metadata"]["spec"]["axis"] == "time"

    def test_sweep_requires_axis(self, capsys):
        assert main(["sweep", "--axis-values", "0.1,0.2"]) == 1
        assert "requires --axis" in capsys.readouterr().err

    def test_sweep_spec_usage_errors_exit_1(self, capsys):
        # bare probe kind off the excitation axis is a usage problem
        code = main(["sweep", "--axis", "time", "--axis-values", "0.1,0.2",
                     "--probes", "fock", "--method", "cfi"])
        assert code == 1
        assert "excitation axis" in capsys.readouterr().err

    def test_sweep_with_an_empty_plan_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        # no Fock row has a coherent closed form: nothing to compute, nothing written
        monkeypatch.chdir(tmp_path)
        code = main(["sweep", "--axis", "n", "--axis-values", "1", "--probes", "fock",
                     "--method", "bound_coherent"])
        assert code == 1
        assert "sweep plan is empty" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_probes_default_to_fock_1(self, tmp_path, capsys):
        out_csv = tmp_path / "d.csv"
        assert main(["sweep", "--axis", "time", "--axis-values", "0.01", "--method",
                     "bound_fock_linear", "--out", str(out_csv)]) == 0
        assert out_csv.read_text().splitlines()[1].split(",")[2] == "fock:1"

    @pytest.mark.parametrize("argv, repeat", [
        (["sweep", "--axis", "time", "--axis-values", "0.1", "--probes", "fock:1,fock:1"],
         "probe 'fock:1'"),
        (["sweep", "--axis", "time", "--axis-values", "0.1", "--method", "cfi,cfi"],
         "method 'cfi'"),
        (["qfi", "--method", "cfi,cfi"], "method 'cfi'"),
        (["bounds", "--method", "cfi,cfi"], "method 'cfi'"),
        (["bounds", "--axis-values", "1,1"], "axis value 1.0"),
    ])
    def test_repeated_entry_refused(self, argv, repeat, tmp_path, monkeypatch, capsys):
        # no row, record or table line is written twice, or collapsed into one
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"{repeat} is repeated" in captured.err
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["qfi", "--t", "-1"], "t must be >= 0"),
        (["qfi", "--dim", "1"], "dim must be >= 2"),
        (["sweep", "--axis", "time", "--axis-values", "0.1", "--probes", "fock:1",
          "--workers", "0"], "workers must be >= 1"),
        (["sweep", "--axis", "time", "--probes", "fock:1"], "sweep requires --axis-values"),
    ])
    def test_out_of_range_or_missing_input_refused(self, argv, message, tmp_path, monkeypatch,
                                                   capsys):
        monkeypatch.chdir(tmp_path)  # a sweep would write sweep.csv here
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_bounds_rejects_fractional_excitations(self, capsys):
        assert main(["bounds", "--axis-values", "1.5,2"]) == 1
        assert "integers" in capsys.readouterr().err

    def test_qfi_prints_one_record_per_method(self, capsys):
        assert main(["qfi", "--probe", "fock:1", "--t", "0.1", "--method", "cfi,qfi"]) == 0
        out = capsys.readouterr().out
        assert out.count("qfi=") == 2
        assert "method=cfi" in out and "method=qfi" in out

    def test_temperature_sweep_with_purcell_rates(self, tmp_path):
        out_csv = tmp_path / "temp.csv"
        code = main([
            "sweep", "--axis", "temperature", "--axis-values", "0.3,0.5,1.0",
            "--probes", "fock:2", "--method", "bound_fock_linear",
            "--rate-model", "purcell", "--g", "0.07", "--workers", "1",
            "--out", str(out_csv),
        ])
        assert code == 0
        rows = out_csv.read_text().strip().split("\n")[1:]
        assert len(rows) == 3
        assert all(float(r.split(",")[4]) > 0 for r in rows)

    def test_numerical_failure_exit_code(self, capsys):
        # squeezing this hard cannot be resolved at dim=40, where its CFI reads it
        code = main(["qfi", "--probe", "squeezed:2.0", "--dim", "40", "--t", "0.01",
                     "--method", "cfi"])
        assert code == 2
        assert "raise dim" in capsys.readouterr().err

    def test_dim_cap_env(self, monkeypatch):
        monkeypatch.setenv("FOCKTHERMO_DIM_MAX", "64")
        with pytest.raises(ConfigError, match="dim=128 exceeds FOCKTHERMO_DIM_MAX=64"):
            parse_args(["qfi", "--dim", "128"])
        assert parse_args(["qfi", "--dim", "48"])[1].dim == 48
        assert parse_args(["qfi"])[1].dim is None  # auto sizing stays on, capped downstream
        monkeypatch.setenv("FOCKTHERMO_DIM_MAX", "not-a-number")
        with pytest.raises(ConfigError):
            parse_args(["qfi"])

    @pytest.mark.parametrize("env, dim", [("64", "128"), ("not-a-number", None),
                                          ("not-a-number", "40"), ("1", None)])
    @pytest.mark.parametrize("command", [
        ["qfi"], ["bounds", "--axis-values", "1"],
        ["sweep", "--axis", "time", "--axis-values", "0.1", "--workers", "1"],
    ])
    def test_dim_cap_refused_by_each_command_that_reads_dim(self, command, env, dim,
                                                            tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # a sweep would write sweep.csv here
        monkeypatch.setenv("FOCKTHERMO_DIM_MAX", env)
        assert main(command + (["--dim", dim] if dim else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "FOCKTHERMO_DIM_MAX" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_validate_does_not_read_the_dim_cap(self, selfcheck_run, monkeypatch, capsys):
        results, _ = selfcheck_run
        monkeypatch.setattr(cli, "run_selfcheck", lambda: results)
        monkeypatch.setenv("FOCKTHERMO_DIM_MAX", "not-a-number")
        assert main(["validate"]) == 0
        assert capsys.readouterr().err == ""

    def test_usage_error_exit_code(self, capsys):
        assert main(["qfi", "--T", "-3"]) == 1
        assert "T must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, reason",
        [
            pytest.param(["--T", "1e-200", "--t", "0.01"],
                         "bound_squeezed value is not representable, got inf",
                         id="T-squared-underflows"),
            pytest.param(["--t", "1e300"], "bound_fock_quadratic is not representable here: "
                         "it overflows double precision", id="t-squared-overflows"),
            pytest.param(["--t", "1e200"], "bound_fock_quadratic is not representable here: "
                         "it overflows double precision", id="t-squared-overflows-at-1e200"),
        ],
    )
    def test_bounds_unrepresentable_value_is_a_numerical_failure(self, argv, reason, capsys):
        assert main(["bounds", *argv, "--axis-values", "1"]) == 2
        assert capsys.readouterr().err == f"numerical failure: DomainError: {reason}\n"

    def test_underflowing_omega_over_T_is_a_numerical_failure(self, capsys):
        assert main(["qfi", "--omega", "1e-309", "--T", "1e20"]) == 2
        assert capsys.readouterr().err.startswith("numerical failure: DomainError: omega/T")

    def test_unrepresentable_purcell_rate_is_a_numerical_failure(self, capsys):
        assert main(["qfi", "--g", "1e200", "--rate-model", "purcell"]) == 2
        assert capsys.readouterr().err.startswith("numerical failure: DomainError: Purcell rate")

    def test_non_finite_propagator_output_is_refused_by_name(self):
        # the stencil of a thermal probe takes the dense exponential, which
        # overflows here; the channel of any other probe gives the relaxed
        # state (test_a_relaxed_probe_has_the_fisher_information_of_the_bath)
        proc = run_cli("qfi", "--probe", "thermal:0.5", "--g", "1e15", "--rate-model", "purcell")
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            "numerical failure: DomainError: the dense population exponential is not "
            "finite at Gamma0*t=2.000e+31"
        )
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["qfi", "--probe", "fock:1", "--T", "1e10"], id="qfi"),
            pytest.param(["sweep", "--axis", "temperature", "--axis-values", "1e10",
                          "--probes", "fock:1", "--workers", "1"], id="sweep"),
        ],
    )
    def test_infinite_rates_are_refused_without_a_warning(self, argv, tmp_path):
        out = ["--out", str(tmp_path / "x.csv")] if argv[0] == "sweep" else []
        proc = run_cli(*argv, "--omega", "1e-300", *out)
        assert proc.returncode == 2
        assert "DomainError: rates must be finite" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["qfi", "--probe", "thermal:0.5", "--T", "1e308", "--dim", "40"],
                         id="qfi-T"),
            pytest.param(["sweep", "--axis", "decay_gamma", "--axis-values", "1e308",
                          "--probes", "thermal:0.5", "--workers", "1"], id="sweep-decay-gamma"),
        ],
    )
    def test_overflowing_generator_is_refused_without_a_warning(self, argv, tmp_path):
        # the band generator of a thermal probe's stencil overflows; its
        # exponential is refused as not finite
        out = ["--out", str(tmp_path / "x.csv")] if argv[0] == "sweep" else []
        proc = run_cli(*argv, *out)
        assert proc.returncode == 2
        assert "the dense population exponential is not finite" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_noise_that_fills_every_level_is_refused_without_a_warning(self):
        # without --dim, the Fock sizing refuses the noise N ~ 5e306 first
        proc = run_cli("qfi", "--T", "1e308")
        assert proc.returncode == 2
        assert proc.stderr == (
            "numerical failure: TruncationError: Fock n=1 under the added thermal noise "
            "N=4.8770575499285994e+306 spreads past the cap 4096\n"
        )

    def test_noise_that_fills_an_explicit_dim_is_refused_not_renormalised(self):
        # at --dim 40 the channel leaves nearly all of |1> above the space;
        # the kept levels are not scaled back to a distribution
        proc = run_cli("qfi", "--T", "1e308", "--dim", "40")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "numerical failure: TruncationError: the channel leaves 1.000e+00 at and above "
            "level 40 by t=0.5, over the leakage budget 1e-08; raise dim\n"
        )

    def test_a_fock_probe_is_sized_for_its_thermalised_state(self, capsys):
        # the Fock half of the automatic sizing: 808 levels, where a dim of
        # 40 refuses the point and 320 prints 0.00249691047
        assert main(["qfi", "--probe", "fock:1", "--T", "20", "--t", "50", "--method", "cfi"]) == 0
        out = capsys.readouterr().out
        assert "qfi=0.00249695857 " in out and out.endswith(" dim=808\n")

    @pytest.mark.parametrize("T", ["6e-309", "2e-309"])
    def test_derivative_step_whose_reciprocal_overflows_is_refused(self, T, capsys):
        # a thermal probe's stencil: T - h > 0 needs h < T, and 1/h then
        # overflows, so the quotient would be nan; the channel of a Fock
        # probe takes no step
        assert main(["qfi", "--probe", "thermal:0.5", "--T", T]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"numerical failure: DomainError: derivative step underflowed at T={T}\n")
        assert main(["qfi", "--probe", "thermal:0.5", "--T", "1e-308"]) == 0  # 1/h is finite here
        assert "qfi=0 " in capsys.readouterr().out
        assert main(["qfi", "--probe", "fock:1", "--T", T]) == 0
        assert "qfi=0 " in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [pytest.param(["--t", "3e6"], id="t-3e6"),
         pytest.param(["--g", "1e10", "--rate-model", "purcell"], id="purcell-g-1e10"),
         pytest.param(["--g", "1e15", "--rate-model", "purcell"], id="purcell-g-1e15"),
         pytest.param(["--gamma", "1e308"], id="gamma-1e308"),
         pytest.param(["--gamma", "1e308", "--t", "10"], id="gamma-t-overflows")],
    )
    def test_a_relaxed_probe_has_the_fisher_information_of_the_bath(self, argv, capsys):
        # at Gamma0 t >> 1 the probe relaxes to the thermal state of the bath,
        # whose Fisher information is nbar'^2/(nbar (nbar + 1)): 2.896246643865242
        # at omega = 1, T = 0.5. The Fock probe is sized for that state (22
        # levels), and the channel gives it at Gamma0 t = 2e21, 2e31, 5e307
        # and inf as at 3e5, where a dense exponential drifts in trace or
        # overflows
        omega, T = 1.0, 0.5
        x = omega / T
        nbar = 1.0 / math.expm1(x)
        dnbar = x / T * math.exp(x) / math.expm1(x) ** 2
        thermal = dnbar**2 / (nbar * (nbar + 1.0))
        assert main(["qfi", *argv]) == 0
        value = float(re.search(r"qfi=(\S+)", capsys.readouterr().out).group(1))
        # within 1e-9 relative, plus the rounding of the 9 digits printed
        assert abs(value - thermal) <= 1e-9 * thermal + 5e-9

    @pytest.mark.parametrize("probe", ["fock:1", "coherent:1.0", "squeezed:0.6", "thermal:0.5"])
    def test_an_uncoupled_bath_carries_no_information(self, probe, capsys):
        # g = 0 under the Purcell model gives Gamma0 = 0, where Rates.nbar is
        # 0/0: the Fock sizing read it and ended in a ZeroDivisionError
        assert main(["qfi", "--probe", probe, "--g", "0", "--rate-model", "purcell",
                     "--method", "cfi,qfi"]) == 0
        assert re.findall(r"qfi=(\S+)", capsys.readouterr().out) == ["0", "0"]

    def test_sweep_marks_the_row_whose_derivative_step_overflows(self, tmp_path, capsys):
        out_csv = tmp_path / "T.csv"
        code = main(["sweep", "--axis", "temperature", "--axis-values", "6e-309,0.5",
                     "--probes", "thermal:0.5", "--method", "cfi", "--workers", "1",
                     "--out", str(out_csv)])
        assert code == 2  # a failed row, not an aborted sweep
        rows = json.loads(out_csv.with_suffix(".json").read_text())["rows"]
        assert rows[0]["qfi"] is None
        assert rows[0]["error"] == "DomainError: derivative step underflowed at T=6e-309"
        assert rows[1]["error"] is None and rows[1]["qfi"] > 0

    def test_bounds_beyond_the_overflow_of_T_squared(self, capsys):
        assert main(["bounds", "--T", "1e160", "--t", "0.01", "--axis-values", "1"]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert float(row[3]) == pytest.approx(3e-6, rel=1e-8)  # fock_quadratic

    def test_sweep_marks_only_unrepresentable_purcell_rows(self, tmp_path, capsys):
        out_csv = tmp_path / "g.csv"
        code = main([
            "sweep", "--axis", "coupling_g", "--axis-values", "0.05,1e200",
            "--probes", "fock:1", "--method", "qfi,bound_fock_linear",
            "--workers", "1", "--out", str(out_csv),
        ])
        assert code == 2  # failed rows, not an aborted sweep
        rows = json.loads(out_csv.with_suffix(".json").read_text())["rows"]
        assert [(r["axis_value"], r["method"]) for r in rows] == [
            (0.05, "qfi"), (0.05, "bound_fock_linear"), (1e200, "qfi"), (1e200, "bound_fock_linear"),
        ]
        assert [r["error"] is None for r in rows] == [True, True, False, False]
        assert all(r["error"].startswith("DomainError") for r in rows[2:])

    def test_sweep_out_shadowed_by_json_mirror_rejected(self, tmp_path, capsys, monkeypatch):
        def no_points(*args, **kwargs):
            raise AssertionError("no point may be computed for a rejected --out")

        monkeypatch.setattr(cli, "run_sweep", no_points)
        out = tmp_path / "r.json"
        code = main(["sweep", "--axis", "time", "--axis-values", "0.01,0.02",
                     "--probes", "fock:1", "--method", "bound_fock_linear", "--out", str(out)])
        assert code == 1
        assert "JSON mirror" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out", [".", "/"])
    def test_sweep_out_without_a_file_name_rejected(self, out, capsys):
        assert main(["sweep", "--axis", "time", "--axis-values", "0.01", "--probes", "fock:1",
                     "--method", "bound_fock_linear", "--out", out]) == 1
        assert capsys.readouterr().err == f"error: --out {out} names no file\n"

    @pytest.mark.parametrize("out, directory", [("..", ".."), ("r.csv", "r.json")])
    def test_sweep_out_naming_a_directory_rejected_before_any_point(
            self, out, directory, tmp_path, capsys, monkeypatch):
        def no_points(*args, **kwargs):
            raise AssertionError("no point may be computed for a rejected --out")

        monkeypatch.setattr(cli, "run_sweep", no_points)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.json").mkdir()  # the JSON mirror of r.csv
        assert main(["sweep", "--axis", "time", "--axis-values", "0.1", "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: --out {out}: {directory} is a directory, not a file\n")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["r.json"]

    def test_bounds_out_naming_a_directory_rejected_before_the_table(self, tmp_path, capsys):
        assert main(["bounds", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out {tmp_path}: {tmp_path} is a directory, not a file\n"
        assert list(tmp_path.iterdir()) == []

    def test_bounds_out_matches_stdout(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["bounds", "--t", "0.01", "--axis-values", "0,1", "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out
        assert [f.name for f in tmp_path.iterdir()] == ["table.csv"]  # no temp file left


# A value each flag would accept where it is read.
_FLAG_VALUES = {
    "--config": "run.cfg", "--omega": "1.0", "--T": "0.5", "--gamma": "0.1", "--g": "0.05",
    "--rate-model": "markovian", "--t": "0.1", "--probe": "fock:3", "--probes": "fock:3",
    "--method": "cfi", "--axis": "time", "--axis-values": "0.1", "--dim": "40",
    "--workers": "7", "--out": "x.csv",
}


@pytest.mark.parametrize(
    "command, flag",
    [("validate", flag) for flag in _FLAG_VALUES]
    + [("qfi", flag) for flag in ("--probes", "--workers", "--axis", "--axis-values", "--out")]
    + [("bounds", flag) for flag in ("--probe", "--probes", "--workers", "--axis")]
    + [("sweep", "--probe")]  # sweep reads its probes from --probes alone
    + [(command, "--dt") for command in ("qfi", "bounds", "sweep")],
)
def test_subcommand_rejects_flags_it_does_not_read(command, flag, capsys):
    assert main([command, flag, _FLAG_VALUES.get(flag, "0.01")]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config",
    [
        pytest.param(["bounds", "--axis-values", "nan"], None, id="bounds-axis-values-nan"),
        pytest.param(["bounds", "--axis-values", "inf"], None, id="bounds-axis-values-inf"),
        pytest.param(["bounds", "--t", "nan"], None, id="bounds-t-nan"),
        pytest.param(["qfi", "--t", "nan"], None, id="qfi-t-nan"),
        pytest.param(["qfi", "--t", "inf"], None, id="qfi-t-inf"),
        pytest.param(["sweep", "--axis", "time", "--axis-values", "0.1,nan", "--probes", "fock:1",
                      "--method", "bound_fock_linear"], None, id="sweep-axis-values-nan"),
        pytest.param(["qfi"], "[run]\nt = inf\n", id="qfi-config-t-inf"),
        pytest.param(["sweep", "--axis", "time", "--probes", "fock:1"],
                     "[sweep]\naxis_values = 0.1,nan\n", id="sweep-config-axis-values-nan"),
    ],
)
def test_non_finite_numbers_rejected(argv, config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a sweep would write sweep.csv here
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = [*argv, "--config", "run.cfg"]
    assert main(argv) == 1
    assert "finite" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == (["run.cfg"] if config else [])


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["bounds", "--t", "0.01", "--axis-values", "1"], id="bounds"),
        pytest.param(["sweep", "--axis", "time", "--axis-values", "0.01", "--probes", "fock:1",
                      "--method", "bound_fock_linear"], id="sweep"),
    ],
)
def test_empty_out_rejected(argv, via_config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a sweep would write sweep.csv here
    if via_config:
        (tmp_path / "run.cfg").write_text("[output]\nout =\n")
        argv = [*argv, "--config", "run.cfg"]
    else:
        argv = [*argv, "--out", ""]
    assert main(argv) == 1
    assert "out must not be empty" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == (["run.cfg"] if via_config else [])


class TestConfigFileKeys:
    def test_key_the_subcommand_does_not_read_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("[sweep]\nprobes = fock:3\n")
        assert main(["qfi", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "[sweep] probes" in err and "qfi" in err

    def test_sweep_does_not_read_run_probe(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("[run]\nprobe = fock:2\n")
        assert main(["sweep", "--config", str(path), "--axis", "time", "--axis-values", "0.1",
                     "--probes", "fock:3", "--out", str(tmp_path / "s.csv")]) == 1
        assert "config key [run] probe is not read by sweep" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["c.cfg"]

    def test_derivative_section_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("[derivative]\nh_rel = 0.3\nrichardson = false\n")
        assert main(["qfi", "--config", str(path)]) == 1
        assert "unknown config section [derivative]" in capsys.readouterr().err

    def test_default_section_rejected(self, tmp_path):
        # configparser would copy its keys into every section, or drop them
        with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
            parse_config_file(tmp_path, "[DEFAULT]\nT = 0.3\n")

    def test_key_the_subcommand_reads_accepted(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        path = tmp_path / "c.cfg"
        path.write_text(f"[output]\nout = {out}\n")
        assert main(["bounds", "--config", str(path), "--t", "0.01", "--axis-values", "0,1"]) == 0
        assert out.read_text() == capsys.readouterr().out


# Each axis and an input its values replace: (axis, values, field, its config
# section, a value). Each of these used to leave the CSV byte-identical to a
# run without it.
_AXIS_OVERRIDE_CASES = [
    pytest.param("temperature", "0.3", "T", "bath", "9", id="temperature"),
    pytest.param("time", "0.1", "t", "run", "7", id="time"),
    pytest.param("coupling_g", "0.1", "g", "bath", "0.2", id="coupling_g"),
    pytest.param("coupling_g", "0.1", "rate_model", "bath", "markovian",
                 id="coupling_g-rate-model"),
    pytest.param("decay_gamma", "0.3", "gamma", "bath", "2", id="decay_gamma"),
    pytest.param("decay_gamma", "0.3", "rate_model", "bath", "purcell",
                 id="decay_gamma-rate-model"),
]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("axis, values, name, section, value", _AXIS_OVERRIDE_CASES)
def test_sweep_refuses_an_input_its_axis_replaces(axis, values, name, section, value, via,
                                                  tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a sweep would write sweep.csv here
    argv = ["sweep", "--axis", axis, "--axis-values", values, "--probes", "fock:1",
            "--method", "cfi", "--workers", "1"]
    if via == "flag":
        where = "--" + name.replace("_", "-")
        argv += [where, value]
    else:
        where = f"[{section}] {name}"
        (tmp_path / "run.cfg").write_text(f"[{section}]\n{name} = {value}\n")
        argv += ["--config", "run.cfg"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert where in err and f"{axis} axis" in err
    assert [f.name for f in tmp_path.iterdir()] == ([] if via == "flag" else ["run.cfg"])


# Under the Markovian rate, the default, given or forced by the decay_gamma
# axis, no computation reads g: each of these used to print the same numbers
# as a run without g, or write the same sweep.
@pytest.mark.parametrize("argv, where", [
    pytest.param(["qfi", "--g", "7"], "--g", id="qfi"),
    pytest.param(["bounds", "--g", "7"], "--g", id="bounds"),
    pytest.param(["qfi", "--g", "7", "--rate-model", "markovian"], "--g", id="qfi-markovian"),
    pytest.param(["sweep", "--axis", "decay_gamma", "--axis-values", "0.1,0.3", "--probes",
                  "fock:1", "--method", "cfi", "--g", "7"], "--g", id="sweep-decay-gamma"),
    pytest.param(["qfi", "--config", "run.cfg"], "[bath] g", id="qfi-config"),
    pytest.param(["sweep", "--axis", "temperature", "--axis-values", "0.3", "--probes", "fock:1",
                  "--config", "run.cfg"], "[bath] g", id="sweep-config"),
])
def test_g_refused_under_the_markovian_rate(argv, where, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a sweep would write sweep.csv here
    (tmp_path / "run.cfg").write_text("[bath]\ng = 0.05\n")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {where} is read only under the purcell rate model, not markovian\n"
    assert [f.name for f in tmp_path.iterdir()] == ["run.cfg"]


def test_g_read_under_the_purcell_rate(tmp_path, capsys):
    (tmp_path / "run.cfg").write_text("[bath]\nrate_model = purcell\ng = 0.07\n")
    assert main(["qfi", "--config", str(tmp_path / "run.cfg")]) == 0
    from_file = capsys.readouterr().out
    assert main(["qfi", "--rate-model", "purcell", "--g", "0.07"]) == 0
    assert capsys.readouterr().out == from_file
    assert "g=0.07 rate_model=purcell" in from_file


@pytest.mark.parametrize("axis, rate_model", [("coupling_g", "purcell"),
                                              ("decay_gamma", "markovian")])
def test_sweep_accepts_the_rate_model_its_axis_forces(axis, rate_model, tmp_path, capsys):
    out_csv = tmp_path / "r.csv"
    argv = ["sweep", "--axis", axis, "--axis-values", "0.1", "--probes", "fock:1",
            "--method", "bound_fock_linear", "--out", str(out_csv)]
    assert main(argv) == 0
    expected = out_csv.read_text()
    assert main([*argv, "--rate-model", rate_model]) == 0
    assert out_csv.read_text() == expected


def test_readme_flags_paragraph_matches_the_parser():
    # the paragraph names every flag once, and what each subcommand does not take
    text = " ".join(README.read_text().split())
    flags = re.search(r"Flags: `([^`]*)`", text).group(1).split()
    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    taken = {name: {flag for action in sub._actions for flag in action.option_strings}
             - {"-h", "--help"} for name, sub in subparsers.choices.items()}
    assert sorted(flags) == sorted(set(flags)) == sorted(set().union(*taken.values()))
    excluded = {command: set(flags) if rest == "none" else set(rest[4:-1].split())
                for command, rest in re.findall(r"`(\w+)` takes (none|no `[^`]*`)", text)}
    assert excluded.keys() == taken.keys()
    for command in taken:
        fields = {"--" + f.name.replace("_", "-") for f in dataclasses.fields(RunConfig)
                  if command in f.metadata["reads"]}
        reads = fields | {"--config"} if fields else set()  # --config comes with any field
        assert set(flags) - excluded[command] == reads == taken[command], command


# Front-end fuzzing: random subcommands, flags and config-file entries, with
# values that are malformed, non-finite or out of range as often as valid.
_FUZZ_VALUES = (
    "nan", "inf", "-inf", "-1", "", "0", "0.5", "2", "1e-3", "fock:1", "coherent:1.0",
    "squeezed", "fock", "cfi", "qfi,bound_squeezed", "psychic", "time", "temperature",
    "0,1,2", "0.1,0.2", "1.5", "purcell", "markovian", "x.csv",
)
_FUZZ_SECTIONS = ("bath", "run", "sweep", "output", "derivative", "lab", "DEFAULT")
_FUZZ_KEYS = (*(f.name for f in dataclasses.fields(RunConfig)), "h_rel", "richardson", "humidity")
# Numbers of either sign with magnitudes log-uniform over the whole double
# range, subnormals included, which the fixed pool above cannot reach.
_wide_number = st.builds(
    lambda sign, exponent: repr(sign * 10.0**exponent),
    st.sampled_from([1.0, -1.0]),
    st.floats(-320.0, 308.0),
)
_fuzz_value = st.sampled_from(_FUZZ_VALUES) | _wide_number


@st.composite
def _cli_inputs(draw, commands=("qfi", "bounds", "sweep", "validate")):
    command = draw(st.sampled_from(commands))
    flags = [f for f in _FLAG_VALUES if f != "--config"]
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(flags), unique=True, max_size=6)):
        argv += [flag, draw(_fuzz_value)]
    entries = draw(st.lists(
        st.tuples(st.sampled_from(_FUZZ_SECTIONS),
                  st.sampled_from(_FUZZ_KEYS),
                  _fuzz_value),
        max_size=4,
    ))
    sections: dict[str, list[str]] = {}
    for section, key, value in entries:
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    text = "".join(f"[{name}]\n" + "".join(lines) for name, lines in sections.items())
    config = draw(st.sampled_from([None, "file", "", "missing.cfg"]))
    return argv, config, text


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _with_config(argv, config, text, workdir):
    if config is None:
        return argv
    path = workdir / "run.cfg"
    path.write_text(text)
    return [*argv, "--config", str(path) if config == "file" else str(workdir / config)]


@settings(max_examples=200, deadline=None)
@given(inputs=_cli_inputs())
def test_fuzz_parse_args_returns_config_or_config_error(inputs, fuzz_dir):
    argv = _with_config(*inputs, fuzz_dir)
    try:
        command, cfg = parse_args(argv)
    except ConfigError:
        return
    assert command == argv[0]
    assert isinstance(cfg, RunConfig)


@settings(max_examples=100, deadline=None)
@given(
    inputs=_cli_inputs(commands=("bounds",)),
    methods=st.lists(st.sampled_from([m.value for m in SweepMethod]), max_size=3)
    | st.sampled_from([["cfi"], ["qfi"], ["cfi", "qfi"]]),
    one_value=st.booleans(),
)
def test_fuzz_bounds_exits_with_a_contract_code(inputs, methods, one_value, fuzz_dir):
    argv = _with_config(*inputs, fuzz_dir)
    if methods and "--method" not in argv:  # reach every method name, not only the pool's
        argv += ["--method", ",".join(methods)]
    if one_value and "--axis-values" not in argv:  # reach the closed forms at n = 1
        argv += ["--axis-values", "1"]
    if "--out" in argv:  # keep every written table inside the temp dir
        at = argv.index("--out") + 1
        argv[at] = str(fuzz_dir / argv[at]) if argv[at] else ""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:  # bounds computes only cfi and qfi; any other method is refused
        assert set(parse_args(argv)[1].method) <= {"cfi", "qfi"}


# Probe payloads of either sign with magnitudes log-uniform over 1e-300 to
# 1e300, complex for coherent probes: sizes whose mean photon number, or
# whose amplitudes, leave double range must be refused, not raise.
_magnitude = st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from([1.0, -1.0]),
    st.floats(-300.0, 300.0),
)
_probe_text = st.one_of(
    _magnitude.map(lambda x: f"fock:{int(x)}"),
    st.builds(lambda re, im: "coherent:" + repr(complex(re, im)).strip("()"),
              _magnitude, _magnitude | st.just(0.0)),
    _magnitude.map(lambda x: f"squeezed:{x!r}"),
    _magnitude.map(lambda x: f"thermal:{x!r}"),
)


@settings(max_examples=200, deadline=None)
@given(probe=_probe_text, method=st.sampled_from(["cfi", "qfi", "cfi,qfi"]))
def test_fuzz_qfi_probe_payloads_exit_with_a_contract_code(probe, method):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("FOCKTHERMO_DIM_MAX", "64")  # bounds the cost of a draw
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["qfi", "--probe", probe, "--method", method])
    assert code in (0, 1, 2)


# Sweep fuzzing: every axis under each of its spellings, axis values that are
# negative, non-integer or huge, probe specs and bare kinds, any methods, and
# the flags an axis replaces. FOCKTHERMO_DIM_MAX=64 bounds the cost of a draw.
_SWEEP_AXES = [(axis.value, axis) for axis in SweepAxis] + [
    ("n", SweepAxis.EXCITATION_N), ("temp", SweepAxis.TEMPERATURE),
    ("Coupling-G", SweepAxis.COUPLING_G), ("TIME", SweepAxis.TIME),
]
_sweep_value = st.sampled_from([0.0, 0.01, 0.3, 1.0, 2.0, 1.5, -1.0]) | _magnitude
_sweep_probe = st.sampled_from(
    ["fock", "squeezed", "coherent", "thermal", "fock:1", "coherent:1.0", "squeezed:0.5",
     "thermal:0.5", "Fock", "laser", "fock:x"]
) | _probe_text
_REPLACEABLE = [("--T", "0.3"), ("--t", "0.2"), ("--g", "0.2"), ("--gamma", "0.3"),
                ("--rate-model", "purcell"), ("--rate-model", "markovian")]


@settings(max_examples=100, deadline=None)
@given(
    axis=st.sampled_from(_SWEEP_AXES),
    values=st.lists(_sweep_value, min_size=1, max_size=3, unique=True)
    .flatmap(lambda vs: st.sampled_from([sorted(vs), vs])),
    probes=st.lists(_sweep_probe, min_size=1, max_size=2),
    methods=st.lists(st.sampled_from([m.value for m in SweepMethod]), min_size=1, max_size=3),
    extra=st.lists(st.sampled_from(_REPLACEABLE), max_size=2, unique_by=lambda f: f[0]),
)
def test_fuzz_sweep_exits_with_a_contract_code(axis, values, probes, methods, extra, fuzz_dir):
    spelling, member = axis
    out = fuzz_dir / "s.csv"
    argv = ["sweep", "--axis", spelling, "--axis-values", ",".join(repr(v) for v in values),
            "--probes", ",".join(probes), "--method", ",".join(methods),
            "--workers", "1", "--out", str(out)]
    for flag, value in extra:
        argv += [flag, value]
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("FOCKTHERMO_DIM_MAX", "64")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert not [f.name for f in fuzz_dir.iterdir() if f.name.endswith(".tmp")]
    name, rate_model = AXIS_OVERRIDES[member]
    given_names = {flag.lstrip("-").replace("-", "_"): value for flag, value in extra}
    forced = rate_model is not None and given_names.get("rate_model", rate_model) != rate_model
    if name in given_names or forced:
        assert code == 1  # an input the axis replaces is refused, never dropped
    effective = rate_model.value if rate_model else given_names.get("rate_model", "markovian")
    if "g" in given_names and effective == "markovian":
        assert code == 1  # g is read only under the Purcell rate
    if len(set(probes)) < len(probes) or len(set(methods)) < len(methods):
        assert code == 1  # a repeated probe or method is refused, never written twice


class TestValidateCommand:
    def test_validate_passes_on_clean_build(self, selfcheck_run, monkeypatch, capsys):
        results, _ = selfcheck_run
        monkeypatch.setattr(cli, "run_selfcheck", lambda: results)
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        for group in {group for group, _ in registered_checks()}:
            assert f"PASS {group}" in out
        assert "FAIL" not in out

    def test_failing_checks_exit_3(self, monkeypatch, capsys):
        def fails():
            return False, "forced failure"

        def raises():
            raise DomainError("forced error")

        checks = {(group, name): fn for group, name, fn in selfcheck._REGISTRY}
        monkeypatch.setattr(selfcheck, "_REGISTRY", [
            ("probes", "states_validate", checks["probes", "states_validate"]),
            ("bath", "detailed_balance", fails),
            ("sweep", "fit_exactness", raises),
        ])
        assert main(["validate"]) == 3
        captured = capsys.readouterr()
        assert "PASS probes (1/1)" in captured.out
        assert "FAIL bath (0/1)" in captured.out
        assert "[FAIL] detailed_balance: forced failure" in captured.out
        assert "FAIL sweep (0/1)" in captured.out
        assert "[FAIL] fit_exactness: DomainError: forced error" in captured.out
        assert "Traceback" not in captured.out + captured.err
