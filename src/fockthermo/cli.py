"""Command-line frontend.

Subcommands: ``qfi`` (single-point Fisher information), ``bounds``
(closed-form scaling table), ``sweep`` (parameter sweep to CSV + JSON),
and ``validate`` (invariant suite). Parameters resolve with precedence
flags > config file > defaults; the defaults are the reference regime
omega=1.0, T=0.5, gamma=0.1, g=0.05, t=0.5.

Exit codes: 0 success, 1 usage or parse error, 2 numerical failure,
3 validation-suite failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from . import __version__
from .bath import BathParams, RateModel
from .bounds import ScalingRow, scaling_table
from .errors import ConfigError, FockThermoError
from .fisher import d_dT_state, fisher_record, gaussian_record, reads_populations
from .probes import DIM_MAX_ENV, ProbeKind, ProbeSpec, dim_ceiling
from .selfcheck import run_selfcheck
from .sweep import (
    AXIS_OVERRIDES,
    SweepAxis,
    SweepMethod,
    SweepSpec,
    _atomic_write,
    refuse_repeats,
    run_sweep,
)
from .tables import csv_text, fmt


# Text parsers shared by a flag and its config-file key, each returning the
# type the program reads. A ValueError names what the text must be; a
# ConfigError is the whole message.
def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError("must be a number") from None
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError("must be an integer") from None


def _at_least(parse: Callable[[str], float], low: float, *, strict: bool = False):
    """``parse``, then refuse a value below ``low`` (or at it, when ``strict``):
    the domain of the key, checked wherever its text comes from."""
    rule = f"must be {'>' if strict else '>='} {low:g}"

    def parse_in_domain(text: str):
        value = parse(text)
        if value < low or strict and value == low:
            raise ValueError(rule)
        return value

    return parse_in_domain


_positive = _at_least(_number, 0.0, strict=True)


def _path(text: str) -> str:
    if not text:
        raise ValueError("must not be empty")
    return text


def _names(text: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _numbers(text: str) -> tuple[float, ...]:
    try:
        return tuple(_number(item) for item in _names(text))
    except ValueError:
        raise ValueError("must be comma-separated finite numbers") from None


def _match(enum, what: str, name: str, aliases: dict[str, str] | None = None):
    """The member of ``enum`` that ``name`` names, case and '-'/'_' blind."""
    normalized = name.strip().lower().replace("-", "_")
    try:
        return enum((aliases or {}).get(normalized, normalized))
    except ValueError:
        valid = ", ".join(m.value for m in enum)
        raise ConfigError(f"unknown {what} {name!r} (expected one of: {valid})") from None


def _usage(convert, *args, **kwargs):
    """``convert(*args, **kwargs)``, with a package error reported as a usage error."""
    try:
        return convert(*args, **kwargs)
    except FockThermoError as exc:
        raise ConfigError(str(exc)) from None


def _rate_model(text: str) -> RateModel:
    try:
        return RateModel(text)  # spelled exactly
    except ValueError:
        raise ConfigError(f"rate_model must be 'markovian' or 'purcell', got {text!r}") from None


def _probes(text: str) -> tuple[ProbeSpec | ProbeKind, ...]:
    """Probe specs, or bare kinds on the excitation axis."""
    return tuple(_usage(ProbeSpec.parse, entry) if ":" in entry
                 else _match(ProbeKind, "probe kind", entry) for entry in _names(text))


def _methods(text: str) -> tuple[SweepMethod, ...]:
    return tuple(_match(SweepMethod, "method", name) for name in _names(text))


def _axis(text: str) -> SweepAxis:
    return _match(SweepAxis, "axis", text, {"n": "excitation_n", "temp": "temperature"})


def _param(default, section: str, parse: Callable[[str], object],
           reads: tuple[str, ...], help: str | None = None):
    """A parameter's only declaration: its config section, the parser of its
    text form, and the subcommands that read it (and so take its flag)."""
    return field(default=default,
                 metadata={"section": section, "parse": parse, "reads": reads, "help": help})


_COMPUTE = ("qfi", "bounds", "sweep")  # every subcommand but validate


@dataclass(frozen=True)
class RunConfig:
    """Every parameter of one invocation, as the type the program reads;
    :func:`parse_args` converts and checks each value once."""

    omega: float = _param(1.0, "bath", _positive, _COMPUTE)
    T: float = _param(0.5, "bath", _positive, _COMPUTE)
    gamma: float = _param(0.1, "bath", _positive, _COMPUTE)
    g: float = _param(0.05, "bath", _at_least(_number, 0.0), _COMPUTE)
    rate_model: RateModel = _param(RateModel.MARKOVIAN, "bath", _rate_model, _COMPUTE)
    t: float = _param(0.5, "run", _at_least(_number, 0.0), _COMPUTE)
    probe: ProbeSpec = _param(ProbeSpec.fock(1), "run", partial(_usage, ProbeSpec.parse), ("qfi",))
    probes: tuple[ProbeSpec | ProbeKind, ...] = _param(
        (ProbeSpec.fock(1),), "sweep", _probes, ("sweep",), "comma-separated probe list")
    # the command's default where none is given: 'qfi' for qfi and sweep, none for bounds
    method: tuple[SweepMethod, ...] = _param((), "run", _methods, _COMPUTE,
                                             "comma-separated method list")
    axis: SweepAxis | None = _param(None, "sweep", _axis, ("sweep",))
    axis_values: tuple[float, ...] = _param((), "sweep", _numbers, ("bounds", "sweep"),
                                            "comma-separated axis values")
    dim: int | None = _param(None, "run", _at_least(_integer, 2), _COMPUTE)  # within the cap
    workers: int | None = _param(None, "sweep", _at_least(_integer, 1), ("sweep",))
    out: str | None = _param(None, "output", _path, ("bounds", "sweep"))

    def bath(self) -> BathParams:
        return BathParams(omega=self.omega, T=self.T, gamma=self.gamma, g=self.g,
                          rate_model=self.rate_model)


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
_SECTIONS = {f.metadata["section"] for f in _FIELDS.values()}


def _convert(f: dataclasses.Field, raw: str, where: str):
    try:
        return f.metadata["parse"](raw)
    except ValueError as exc:
        raise ConfigError(f"{where} {exc}, got {raw!r}") from None


def _read_config(text: str, command: str) -> dict:
    """Field values set by a config file; a key ``command`` does not read is rejected."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case sensitive ('T')
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    if parser.defaults():  # would otherwise leak into every section
        raise ConfigError(f"unknown config section [{parser.default_section}]")
    updates: dict = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            where = f"[{section}] {key}"
            f = _FIELDS.get(key)
            if f is None or f.metadata["section"] != section:
                raise ConfigError(f"unknown config key {where}")
            if command not in f.metadata["reads"]:
                raise ConfigError(f"config key {where} is not read by {command}")
            updates[key] = _convert(f, raw, where)
    return updates


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2); usage errors are code 1
        raise ConfigError(message)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser() -> _Parser:
    parser = _Parser(prog="fockthermo", description=__doc__)
    parser.add_argument("--version", action="version", version=f"fockthermo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run in _COMMANDS.items():
        # no prefix matching: bounds would otherwise read --axis as --axis-values
        command = sub.add_parser(name, help=run.__doc__, allow_abbrev=False)
        # each subcommand takes exactly the flags of the fields it reads
        fields = [f for f in _FIELDS.values() if name in f.metadata["reads"]]
        if fields:
            command.add_argument("--config", help="config file (flat key = value with sections)")
        for f in fields:
            command.add_argument(_flag(f.name), dest=f.name, help=f.metadata["help"])
    return parser


def parse_args(argv: list[str] | None = None) -> tuple[str, RunConfig]:
    ns = vars(build_parser().parse_args(argv))
    command = ns.pop("command")
    path = ns.pop("config", None)
    updates: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        updates = _read_config(text, command)
    given = {name: f"[{_FIELDS[name].metadata['section']}] {name}" for name in updates}
    for name, raw in ns.items():  # flags win over the file
        if raw is not None:
            given[name] = _flag(name)
            updates[name] = _convert(_FIELDS[name], raw, given[name])
    return command, _build_config(command, updates, given)


def _build_config(command: str, updates: dict, given: dict[str, str]) -> RunConfig:
    """The config of ``command`` from typed ``updates``, with each per-command and
    cross-field rule checked in one fixed order, so an input that breaks several
    is refused for the first. ``given`` names the flag or config key of each value."""
    if command in ("qfi", "sweep") and not updates.get("method"):
        updates["method"] = (SweepMethod.QFI,)
    cfg = RunConfig(**updates)
    rate_model = cfg.rate_model
    if command == "sweep" and cfg.axis is not None:
        rate_model = _refuse_axis_overrides(cfg, given) or rate_model
    if "g" in given and rate_model is RateModel.MARKOVIAN:
        raise ConfigError(f"{given['g']} is read only under the purcell rate model, not markovian")
    if command == "bounds":
        if any(v != int(v) or v < 0 for v in cfg.axis_values):
            raise ConfigError("bounds --axis-values must be integers >= 0 (excitation numbers)")
        _usage(refuse_repeats, "axis value", cfg.axis_values)
    if command in ("qfi", "bounds"):
        for method in cfg.method:
            if method not in (SweepMethod.CFI, SweepMethod.QFI):
                raise ConfigError(f"{command} command computes 'cfi' or 'qfi', "
                                  f"not {method.value!r}")
        _usage(refuse_repeats, "method", cfg.method, lambda m: repr(m.value))
    if command == "sweep":
        if cfg.axis is None:
            raise ConfigError("sweep requires --axis")
        if not cfg.axis_values:
            raise ConfigError("sweep requires --axis-values")
        out_csv, out_json = _sweep_outputs(cfg.out)
        if out_json == out_csv:
            raise ConfigError(f"--out {out_csv} would be overwritten by its JSON mirror; "
                              "give the CSV a suffix other than .json")
    if command in _COMPUTE:  # the commands that read dim check the cap, set or not
        cap = _usage(dim_ceiling)
        if cfg.dim is not None and cfg.dim > cap:
            raise ConfigError(f"dim={cfg.dim} exceeds {DIM_MAX_ENV}={cap}")
    return cfg


def _refuse_axis_overrides(cfg: RunConfig, given: dict[str, str]) -> RateModel | None:
    """Refuse a sweep input that its axis replaces, naming where ``given`` says it
    was set (flag or config key); return the rate model the axis forces, if any."""
    name, rate_model = AXIS_OVERRIDES[cfg.axis]
    if name in given:
        raise ConfigError(f"{given[name]} cannot be set on the {cfg.axis.value} axis, "
                          f"whose values replace {name}")
    if rate_model is not None and "rate_model" in given and cfg.rate_model is not rate_model:
        raise ConfigError(f"{given['rate_model']} {cfg.rate_model.value} cannot be set on the "
                          f"{cfg.axis.value} axis, which uses the {rate_model.value} rate")
    return rate_model


def _sweep_outputs(out: str | None) -> tuple[Path, Path]:
    """The sweep's CSV and its JSON mirror."""
    out_csv = Path(out or "sweep.csv")
    try:
        return out_csv, out_csv.with_suffix(".json")
    except ValueError:  # a path without a file name, such as '.' or '/'
        raise ConfigError(f"--out {out} names no file") from None


def _refuse_directories(out: Path, *mirrors: Path) -> None:
    """Refuse, before any work, an ``out`` path or a mirror of it that is an
    existing directory."""
    for path in (out, *mirrors):
        if path.is_dir():
            raise ConfigError(f"--out {out}: {path} is a directory, not a file")


def cmd_qfi(cfg: RunConfig) -> int:
    """single-point Fisher information"""
    bath = cfg.bath()
    reads = [reads_populations(cfg.probe, method) for method in cfg.method]
    deriv = d_dT_state(cfg.probe, bath, cfg.t, dim=cfg.dim) if any(reads) else None
    for method, read in zip(cfg.method, reads):
        record = fisher_record(deriv, method) if read else gaussian_record(cfg.probe, bath, cfg.t)
        print(
            f"method={record.method} probe={cfg.probe.canonical()} "
            f"omega={fmt(bath.omega)} T={fmt(bath.T)} gamma={fmt(bath.gamma)} "
            f"g={fmt(bath.g)} rate_model={bath.rate_model.value} t={fmt(cfg.t)}"
        )
        print(
            f"  qfi={fmt(record.value)} delta_t_min={fmt(record.delta_t_min)} "
            f"h_used={fmt(record.h_used)} leakage={fmt(record.leakage)} dim={record.dim}"
        )
    return 0


def cmd_bounds(cfg: RunConfig) -> int:
    """closed-form short-time scaling table"""
    if cfg.out:
        _refuse_directories(Path(cfg.out))
    table = scaling_table(cfg.bath(), cfg.axis_values or range(6), cfg.t,
                          methods=cfg.method, dim=cfg.dim)
    text = csv_text(ScalingRow, table)
    print(text, end="")
    if cfg.out:
        _atomic_write(Path(cfg.out), text)
        print(f"# wrote {cfg.out}", file=sys.stderr)
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    """parameter sweep to CSV/JSON"""
    out_csv, out_json = _sweep_outputs(cfg.out)
    spec = _usage(SweepSpec, axis=cfg.axis, axis_values=cfg.axis_values, probes=cfg.probes,
                  methods=cfg.method, bath=cfg.bath(), t=cfg.t, dim=cfg.dim)
    _refuse_directories(out_csv, out_json)
    result = run_sweep(spec, workers=cfg.workers)
    result.write_csv(out_csv)
    result.write_json(out_json)
    failed = result.metadata["n_failed"]
    print(
        f"wrote {out_csv} and {out_json}: {result.metadata['n_points']} rows, "
        f"{failed} failed, {result.metadata['wall_time_s']:.2f} s"
    )
    return 0 if failed == 0 else 2


def cmd_validate(cfg: RunConfig) -> int:
    """run the invariant suite"""
    results = run_selfcheck()
    groups: dict[str, list] = {}
    for res in results:
        groups.setdefault(res.group, []).append(res)
    any_failed = False
    for group, items in groups.items():
        ok = all(r.passed for r in items)
        any_failed = any_failed or not ok
        print(f"{'PASS' if ok else 'FAIL'} {group} ({sum(r.passed for r in items)}/{len(items)})")
        for r in items:
            marker = "ok  " if r.passed else "FAIL"
            print(f"  [{marker}] {r.name}: {r.detail}")
    return 3 if any_failed else 0


_COMMANDS = {
    "qfi": cmd_qfi,
    "bounds": cmd_bounds,
    "sweep": cmd_sweep,
    "validate": cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    try:
        command, cfg = parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FockThermoError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
