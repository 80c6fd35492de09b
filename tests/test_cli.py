from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockthermo import cli, selfcheck
from fockthermo.cli import RunConfig, main, parse_args, parse_config_text
from fockthermo.errors import ConfigError, DomainError
from fockthermo.selfcheck import registered_checks
from fockthermo.sweep import CSV_HEADER, SweepAxis, SweepMethod

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so that stderr is what a user sees."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "fockthermo.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


class TestParsing:
    def test_defaults_are_the_reference_regime(self):
        _, cfg = parse_args(["qfi"])
        assert (cfg.omega, cfg.T, cfg.gamma, cfg.g, cfg.t) == (1.0, 0.5, 0.1, 0.05, 0.5)
        assert cfg.rate_model == "markovian"
        assert cfg.probe == "fock:1"

    def test_flag_overrides(self):
        _, cfg = parse_args(["qfi", "--probe", "fock:3", "--T", "0.25"])
        assert cfg.probe == "fock:3"
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

    def test_unknown_config_key_named(self):
        with pytest.raises(ConfigError, match=r"\[bath\] humidity"):
            parse_config_text("[bath]\nhumidity = 0.9\n")

    def test_unknown_config_section_named(self):
        with pytest.raises(ConfigError, match=r"\[lab\]"):
            parse_config_text("[lab]\nbench = 3\n")

    def test_malformed_value_named(self):
        with pytest.raises(ConfigError, match=r"\[bath\] T must be a number"):
            parse_config_text("[bath]\nT = warm\n")

    def test_round_trip_is_identity(self):
        cfg = RunConfig(
            T=0.25, gamma=0.17, probe="fock:2", method=("cfi", "qfi"),
            axis="time", axis_values=(0.01, 0.1), probes=("fock:1", "coherent:1.0"),
            dim=48, workers=2, out="x.csv",
        )
        assert parse_config_text(cfg.to_text()) == cfg

    def test_round_trip_of_defaults(self):
        cfg = RunConfig()
        assert parse_config_text(cfg.to_text()) == cfg


class TestCommands:
    def test_qfi_value_matches_short_time_oracle(self, capsys):
        # CFI at Gamma0 t = 1e-3 sits within 5% of the linear closed form
        assert main(["qfi", "--probe", "fock:1", "--t", "0.01", "--method", "cfi"]) == 0
        out = capsys.readouterr().out
        value = float(re.search(r"qfi=([0-9.e+-]+)", out).group(1))
        assert value == pytest.approx(0.007152434380288741, rel=0.05)
        assert "delta_t_min=" in out

    def test_qfi_rejects_bound_methods(self, capsys):
        assert main(["qfi", "--method", "bound_squeezed"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bounds_table(self, capsys):
        assert main(["bounds", "--t", "0.01", "--axis-values", "0,1,2"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0].startswith("n,nbar,fock_linear")
        assert len(out) == 4
        assert out[1].split(",")[9] == ""  # simulated columns only on request

    def test_bounds_table_with_numerics(self, capsys):
        assert main(["bounds", "--t", "0.01", "--axis-values", "1", "--method", "cfi"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        cfi_col = out[1].split(",")[9]
        assert cfi_col != ""
        assert float(cfi_col) == pytest.approx(0.007152434380288741, rel=0.05)

    def test_sweep_end_to_end(self, tmp_path, capsys):
        out_csv = tmp_path / "fig.csv"
        code = main([
            "sweep", "--axis", "time", "--axis-values", "0.01,0.02,0.05,0.1",
            "--probes", "fock:1,coherent:1.0", "--method", "cfi",
            "--workers", "1", "--out", str(out_csv),
        ])
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
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
            "--probe", "fock:2", "--method", "bound_fock_linear",
            "--rate-model", "purcell", "--g", "0.07", "--workers", "1",
            "--out", str(out_csv),
        ])
        assert code == 0
        rows = out_csv.read_text().strip().split("\n")[1:]
        assert len(rows) == 3
        assert all(float(r.split(",")[4]) > 0 for r in rows)

    def test_numerical_failure_exit_code(self, capsys):
        # squeezing this hard cannot be resolved at dim=40
        code = main(["qfi", "--probe", "squeezed:2.0", "--dim", "40", "--t", "0.01"])
        assert code == 2
        assert "raise dim" in capsys.readouterr().err

    def test_dim_cap_env(self, monkeypatch):
        monkeypatch.setenv("FOCKTHERMO_DIM_MAX", "64")
        _, cfg = parse_args(["qfi", "--dim", "128"])
        with pytest.raises(ConfigError, match="FOCKTHERMO_DIM_MAX"):
            cfg.resolved_dim()
        _, cfg = parse_args(["qfi", "--dim", "48"])
        assert cfg.resolved_dim() == 48
        _, cfg = parse_args(["qfi"])
        assert cfg.resolved_dim() is None  # auto sizing stays on, capped downstream
        monkeypatch.setenv("FOCKTHERMO_DIM_MAX", "not-a-number")
        with pytest.raises(ConfigError):
            cfg.resolved_dim()

    def test_usage_error_exit_code(self, capsys):
        assert main(["qfi", "--T", "-3"]) == 1
        assert "T must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["--T", "1e-200", "--t", "0.01"], id="T-squared-underflows"),
            pytest.param(["--t", "1e300"], id="t-squared-overflows"),
        ],
    )
    def test_bounds_unrepresentable_value_is_a_numerical_failure(self, argv, capsys):
        assert main(["bounds", *argv, "--axis-values", "1"]) == 2
        assert "numerical failure: DomainError" in capsys.readouterr().err

    def test_unrepresentable_purcell_rate_is_a_numerical_failure(self, capsys):
        assert main(["qfi", "--g", "1e200", "--rate-model", "purcell"]) == 2
        assert capsys.readouterr().err.startswith("numerical failure: DomainError: Purcell rate")

    def test_non_finite_propagator_output_is_refused_by_name(self):
        proc = run_cli("qfi", "--g", "1e15", "--rate-model", "purcell")
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            "numerical failure: DomainError: the dense population exponential is not "
            "finite at Gamma0*t=2.000e+31"
        )
        assert "RuntimeWarning" not in proc.stderr

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
                     "--probe", "fock:1", "--method", "bound_fock_linear", "--out", str(out)])
        assert code == 1
        assert "JSON mirror" in capsys.readouterr().err
        assert not out.exists()

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
        pytest.param(["sweep", "--axis", "time", "--axis-values", "0.1,nan", "--probe", "fock:1",
                      "--method", "bound_fock_linear"], None, id="sweep-axis-values-nan"),
        pytest.param(["qfi"], "[run]\nt = inf\n", id="qfi-config-t-inf"),
        pytest.param(["sweep", "--axis", "time", "--probe", "fock:1"],
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
        pytest.param(["sweep", "--axis", "time", "--axis-values", "0.01", "--probe", "fock:1",
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

    def test_derivative_section_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("[derivative]\nh_rel = 0.3\nrichardson = false\n")
        assert main(["qfi", "--config", str(path)]) == 1
        assert "unknown config section [derivative]" in capsys.readouterr().err

    def test_default_section_rejected(self):
        # configparser would copy its keys into every section, or drop them
        with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
            parse_config_text("[DEFAULT]\nT = 0.3\n")

    def test_key_the_subcommand_reads_accepted(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        path = tmp_path / "c.cfg"
        path.write_text(f"[output]\nout = {out}\n")
        assert main(["bounds", "--config", str(path), "--t", "0.01", "--axis-values", "0,1"]) == 0
        assert out.read_text() == capsys.readouterr().out


# Front-end fuzzing: random subcommands, flags and config-file entries, with
# values that are malformed, non-finite or out of range as often as valid.
_FUZZ_VALUES = (
    "nan", "inf", "-inf", "-1", "", "0", "0.5", "2", "1e-3", "fock:1", "coherent:1.0",
    "squeezed", "fock", "cfi", "qfi,bound_squeezed", "psychic", "time", "temperature",
    "0,1,2", "0.1,0.2", "1.5", "purcell", "markovian", "x.csv",
)
_FUZZ_SECTIONS = ("bath", "run", "sweep", "output", "derivative", "lab", "DEFAULT")
_FUZZ_KEYS = (*(f.name for f in dataclasses.fields(RunConfig)), "h_rel", "richardson", "humidity")


@st.composite
def _cli_inputs(draw, commands=("qfi", "bounds", "sweep", "validate"), skip=()):
    command = draw(st.sampled_from(commands))
    flags = [f for f in _FLAG_VALUES if f != "--config" and f.lstrip("-") not in skip]
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(flags), unique=True, max_size=6)):
        argv += [flag, draw(st.sampled_from(_FUZZ_VALUES))]
    entries = draw(st.lists(
        st.tuples(st.sampled_from(_FUZZ_SECTIONS),
                  st.sampled_from([k for k in _FUZZ_KEYS if k not in skip]),
                  st.sampled_from(_FUZZ_VALUES)),
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
@given(inputs=_cli_inputs(commands=("bounds",), skip=("method",)))
def test_fuzz_bounds_exits_with_a_contract_code(inputs, fuzz_dir):
    argv = _with_config(*inputs, fuzz_dir)
    if "--out" in argv:  # keep every written table inside the temp dir
        at = argv.index("--out") + 1
        argv[at] = str(fuzz_dir / argv[at]) if argv[at] else ""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_nonnegative = st.floats(min_value=0.0, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(cfg=st.builds(
    RunConfig,
    omega=_positive, T=_positive, gamma=_positive, g=_nonnegative,
    rate_model=st.sampled_from(["markovian", "purcell"]), t=_nonnegative,
    probe=st.sampled_from(["fock:1", "coherent:1.0", "squeezed:0.5", "thermal:0.5"]),
    probes=st.lists(st.sampled_from(["fock:2", "coherent:0.5", "fock"])).map(tuple),
    method=st.lists(st.sampled_from([m.value for m in SweepMethod])).map(tuple),
    axis=st.none() | st.sampled_from([a.value for a in SweepAxis]),
    axis_values=st.lists(st.floats(allow_nan=False, allow_infinity=False)).map(tuple),
    dim=st.none() | st.integers(min_value=2, max_value=4096),
    workers=st.none() | st.integers(min_value=1, max_value=64),
    out=st.none() | st.sampled_from(["x.csv", "out/run.csv"]),
))
def test_fuzz_to_text_round_trip(cfg):
    assert parse_config_text(cfg.to_text()) == cfg


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
            ("fockspace", "adjoint_identity", checks["fockspace", "adjoint_identity"]),
            ("bath", "detailed_balance", fails),
            ("sweep", "fit_exactness", raises),
        ])
        assert main(["validate"]) == 3
        captured = capsys.readouterr()
        assert "PASS fockspace (1/1)" in captured.out
        assert "FAIL bath (0/1)" in captured.out
        assert "[FAIL] detailed_balance: forced failure" in captured.out
        assert "FAIL sweep (0/1)" in captured.out
        assert "[FAIL] fit_exactness: DomainError: forced error" in captured.out
        assert "Traceback" not in captured.out + captured.err
