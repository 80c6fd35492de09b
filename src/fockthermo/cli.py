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
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .bath import BathParams, RateModel
from .bounds import scaling_table, scaling_table_csv
from .errors import ConfigError, FockThermoError
from .fisher import DEFAULT_DIFF, DerivativeConfig, FisherMethod, qfi_point
from .probes import DIM_MAX_ENV, ProbeKind, ProbeSpec, dim_ceiling
from .selfcheck import run_selfcheck
from .sweep import SweepAxis, SweepMethod, SweepSpec, _atomic_write, run_sweep


def _fmt(x: float) -> str:
    return format(x, ".9g")


@dataclass(frozen=True)
class RunConfig:
    """Flat, fully validated parameter record for one invocation."""

    omega: float = 1.0
    T: float = 0.5
    gamma: float = 0.1
    g: float = 0.05
    rate_model: str = "markovian"
    t: float = 0.5
    probe: str = "fock:1"
    probes: tuple[str, ...] = ()
    method: tuple[str, ...] = ()  # empty means command default ('qfi')
    axis: str | None = None
    axis_values: tuple[float, ...] = ()
    dim: int | None = None
    h_rel: float = DEFAULT_DIFF.h_rel
    h_abs_floor: float = DEFAULT_DIFF.h_abs_floor
    richardson: bool = True
    workers: int | None = None
    out: str | None = None

    def bath(self) -> BathParams:
        try:
            return BathParams(
                omega=self.omega, T=self.T, gamma=self.gamma, g=self.g,
                rate_model=RateModel(self.rate_model),
            )
        except ValueError:
            raise ConfigError(
                f"rate_model must be 'markovian' or 'purcell', got {self.rate_model!r}"
            ) from None
        except FockThermoError as exc:
            raise ConfigError(str(exc)) from None

    def diff(self) -> DerivativeConfig:
        try:
            return DerivativeConfig(
                h_rel=self.h_rel, richardson=self.richardson, h_abs_floor=self.h_abs_floor
            )
        except FockThermoError as exc:
            raise ConfigError(str(exc)) from None

    def probe_spec(self) -> ProbeSpec:
        try:
            return ProbeSpec.parse(self.probe)
        except FockThermoError as exc:
            raise ConfigError(str(exc)) from None

    def resolved_dim(self) -> int | None:
        """Explicit dim checked against the safety cap; None keeps auto sizing
        (which is itself capped inside :func:`fockthermo.probes.default_dim`)."""
        try:
            cap = dim_ceiling()
        except FockThermoError as exc:
            raise ConfigError(str(exc)) from None
        if self.dim is not None and self.dim > cap:
            raise ConfigError(f"dim={self.dim} exceeds {DIM_MAX_ENV}={cap}")
        return self.dim

    def to_text(self) -> str:
        """Config-file serialization; ``parse_config_text`` is its inverse."""
        lines = ["[bath]"]
        lines.append(f"omega = {self.omega!r}")
        lines.append(f"T = {self.T!r}")
        lines.append(f"gamma = {self.gamma!r}")
        lines.append(f"g = {self.g!r}")
        lines.append(f"rate_model = {self.rate_model}")
        lines.append("")
        lines.append("[run]")
        lines.append(f"t = {self.t!r}")
        lines.append(f"probe = {self.probe}")
        if self.method:
            lines.append(f"method = {','.join(self.method)}")
        if self.dim is not None:
            lines.append(f"dim = {self.dim}")
        lines.append("")
        lines.append("[derivative]")
        lines.append(f"h_rel = {self.h_rel!r}")
        lines.append(f"h_abs_floor = {self.h_abs_floor!r}")
        lines.append(f"richardson = {'true' if self.richardson else 'false'}")
        lines.append("")
        lines.append("[sweep]")
        if self.axis is not None:
            lines.append(f"axis = {self.axis}")
        if self.axis_values:
            lines.append(f"axis_values = {','.join(repr(v) for v in self.axis_values)}")
        if self.probes:
            lines.append(f"probes = {','.join(self.probes)}")
        if self.workers is not None:
            lines.append(f"workers = {self.workers}")
        lines.append("")
        lines.append("[output]")
        if self.out is not None:
            lines.append(f"out = {self.out}")
        return "\n".join(lines) + "\n"


_FLOAT_KEYS = {
    ("bath", "omega"): "omega",
    ("bath", "T"): "T",
    ("bath", "gamma"): "gamma",
    ("bath", "g"): "g",
    ("run", "t"): "t",
    ("derivative", "h_rel"): "h_rel",
    ("derivative", "h_abs_floor"): "h_abs_floor",
}
_STR_KEYS = {
    ("bath", "rate_model"): "rate_model",
    ("run", "probe"): "probe",
    ("sweep", "axis"): "axis",
    ("output", "out"): "out",
}
_INT_KEYS = {
    ("run", "dim"): "dim",
    ("sweep", "workers"): "workers",
}
_LIST_KEYS = {
    ("run", "method"): "method",
    ("sweep", "probes"): "probes",
}
_KNOWN_SECTIONS = ("bath", "run", "derivative", "sweep", "output")


def parse_config_text(text: str) -> RunConfig:
    """Parse the flat key = value format with section headers."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case sensitive ('T')
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    updates: dict = {}
    for section in parser.sections():
        if section not in _KNOWN_SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            raw = raw.strip()
            where = f"[{section}] {key}"
            if (section, key) in _FLOAT_KEYS:
                try:
                    updates[_FLOAT_KEYS[(section, key)]] = float(raw)
                except ValueError:
                    raise ConfigError(f"{where} must be a number, got {raw!r}") from None
            elif (section, key) in _INT_KEYS:
                try:
                    updates[_INT_KEYS[(section, key)]] = int(raw)
                except ValueError:
                    raise ConfigError(f"{where} must be an integer, got {raw!r}") from None
            elif (section, key) in _STR_KEYS:
                updates[_STR_KEYS[(section, key)]] = raw
            elif (section, key) in _LIST_KEYS:
                updates[_LIST_KEYS[(section, key)]] = tuple(
                    item.strip() for item in raw.split(",") if item.strip()
                )
            elif (section, key) == ("sweep", "axis_values"):
                try:
                    updates["axis_values"] = tuple(float(v) for v in raw.split(",") if v.strip())
                except ValueError:
                    raise ConfigError(f"{where} must be comma-separated numbers, got {raw!r}") from None
            elif (section, key) == ("derivative", "richardson"):
                low = raw.lower()
                if low not in ("true", "false"):
                    raise ConfigError(f"{where} must be true or false, got {raw!r}")
                updates["richardson"] = low == "true"
            else:
                raise ConfigError(f"unknown config key {where}")
    return _build_config(updates)


def _build_config(updates: dict) -> RunConfig:
    try:
        cfg = RunConfig(**updates)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    if not cfg.T > 0:
        raise ConfigError(f"T must be > 0, got {cfg.T!r}")
    if not cfg.omega > 0:
        raise ConfigError(f"omega must be > 0, got {cfg.omega!r}")
    if not cfg.gamma > 0:
        raise ConfigError(f"gamma must be > 0, got {cfg.gamma!r}")
    if cfg.g < 0:
        raise ConfigError(f"g must be >= 0, got {cfg.g!r}")
    if cfg.t < 0:
        raise ConfigError(f"t must be >= 0, got {cfg.t!r}")
    if cfg.dim is not None and cfg.dim < 2:
        raise ConfigError(f"dim must be >= 2, got {cfg.dim!r}")
    if cfg.workers is not None and cfg.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {cfg.workers!r}")
    if cfg.rate_model not in (m.value for m in RateModel):
        raise ConfigError(f"rate_model must be 'markovian' or 'purcell', got {cfg.rate_model!r}")
    for name in cfg.method:
        _parse_method(name)
    if cfg.axis is not None:
        _parse_axis(cfg.axis)


def _parse_method(name: str) -> SweepMethod:
    normalized = name.strip().lower().replace("-", "_")
    try:
        return SweepMethod(normalized)
    except ValueError:
        valid = ", ".join(m.value for m in SweepMethod)
        raise ConfigError(f"unknown method {name!r} (expected one of: {valid})") from None


def _parse_axis(name: str) -> SweepAxis:
    normalized = name.strip().lower().replace("-", "_")
    aliases = {"n": "excitation_n", "temp": "temperature", "time": "time"}
    normalized = aliases.get(normalized, normalized)
    try:
        return SweepAxis(normalized)
    except ValueError:
        valid = ", ".join(a.value for a in SweepAxis)
        raise ConfigError(f"unknown axis {name!r} (expected one of: {valid})") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2); usage errors are code 1
        raise ConfigError(message)


_FLAGS = {
    "config": dict(type=str, help="config file (flat key = value with sections)"),
    "omega": dict(type=float),
    "T": dict(type=float),
    "gamma": dict(type=float),
    "g": dict(type=float),
    "rate-model": dict(type=str),
    "t": dict(type=float),
    "probe": dict(type=str),
    "probes": dict(type=str, help="comma-separated probe list"),
    "method": dict(type=str, help="comma-separated method list"),
    "axis": dict(type=str),
    "axis-values": dict(type=str, help="comma-separated axis values"),
    "dim": dict(type=int),
    "workers": dict(type=int),
    "out": dict(type=str),
}
_BATH_FLAGS = ("omega", "T", "gamma", "g", "rate-model")

# Each subcommand accepts exactly the flags it reads; argparse rejects the rest.
_SUBCOMMANDS = {
    "qfi": ("single-point Fisher information",
            ("config", *_BATH_FLAGS, "t", "probe", "method", "dim")),
    "bounds": ("closed-form short-time scaling table",
               ("config", *_BATH_FLAGS, "t", "method", "axis-values", "dim", "out")),
    "sweep": ("parameter sweep to CSV/JSON", tuple(_FLAGS)),
    "validate": ("run the invariant suite", ()),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="fockthermo", description=__doc__)
    parser.add_argument("--version", action="version", version=f"fockthermo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (brief, flags) in _SUBCOMMANDS.items():
        # no prefix matching: bounds would otherwise read --axis as --axis-values
        command = sub.add_parser(name, help=brief, allow_abbrev=False)
        for flag in flags:
            command.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def parse_args(argv: list[str] | None = None) -> tuple[str, RunConfig]:
    # a subcommand's namespace holds only the flags that subcommand reads
    ns = vars(build_parser().parse_args(argv))
    updates: dict = {}
    if ns.get("config") is not None:
        path = Path(ns["config"])
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        updates.update(dataclasses.asdict(parse_config_text(path.read_text())))
        # asdict gives every field; keep only non-default overrides is unnecessary,
        # flags below still win
    for key in ("omega", "T", "gamma", "g", "rate_model", "t", "probe",
                "dim", "workers", "out", "axis"):
        if ns.get(key) is not None:
            updates[key] = ns[key]
    for key in ("method", "probes"):
        if ns.get(key) is not None:
            updates[key] = tuple(item.strip() for item in ns[key].split(",") if item.strip())
    axis_values = ns.get("axis_values")
    if axis_values is not None:
        try:
            updates["axis_values"] = tuple(float(v) for v in axis_values.split(",") if v.strip())
        except ValueError:
            raise ConfigError(f"--axis-values must be comma-separated numbers, "
                              f"got {axis_values!r}") from None
    return ns["command"], _build_config(updates)


def cmd_qfi(cfg: RunConfig) -> int:
    bath = cfg.bath()
    probe = cfg.probe_spec()
    for name in cfg.method or ("qfi",):
        method = _parse_method(name)
        if method not in (SweepMethod.CFI, SweepMethod.QFI):
            raise ConfigError(f"qfi command computes 'cfi' or 'qfi', not {name!r}")
        record = qfi_point(
            probe, bath, cfg.t,
            FisherMethod.CFI_NUMBER if method is SweepMethod.CFI else FisherMethod.QFI_SLD,
            dim=cfg.resolved_dim(), diff=cfg.diff(),
        )
        diag = record.diagnostics
        print(
            f"method={record.method} probe={probe.canonical()} "
            f"omega={_fmt(bath.omega)} T={_fmt(bath.T)} gamma={_fmt(bath.gamma)} "
            f"g={_fmt(bath.g)} rate_model={bath.rate_model.value} t={_fmt(cfg.t)}"
        )
        print(
            f"  qfi={_fmt(record.value)} delta_t_min={_fmt(record.delta_t_min)} "
            f"h_used={_fmt(diag['h_used'])} leakage={_fmt(diag['leakage'])} "
            f"dropped_pairs={diag['dropped_pairs']} dim={diag['dim']}"
        )
    return 0


def cmd_bounds(cfg: RunConfig) -> int:
    bath = cfg.bath()
    if cfg.axis_values:
        if any(v != int(v) or v < 0 for v in cfg.axis_values):
            raise ConfigError("bounds --axis-values must be integers >= 0 (excitation numbers)")
        n_list = [int(v) for v in cfg.axis_values]
    else:
        n_list = [0, 1, 2, 3, 4, 5]
    include_numerics = any(
        _parse_method(m) in (SweepMethod.CFI, SweepMethod.QFI) for m in cfg.method
    )
    table = scaling_table(bath, n_list, cfg.t, include_numerics=include_numerics,
                          dim=cfg.resolved_dim())
    csv_text = scaling_table_csv(table)
    print(csv_text, end="")
    if cfg.out:
        _atomic_write(Path(cfg.out), csv_text)
        print(f"# wrote {cfg.out}", file=sys.stderr)
    return 0


def _sweep_probes(cfg: RunConfig) -> tuple:
    entries = cfg.probes if cfg.probes else (cfg.probe,)
    out = []
    for entry in entries:
        if ":" in entry:
            try:
                out.append(ProbeSpec.parse(entry))
            except FockThermoError as exc:
                raise ConfigError(str(exc)) from None
        else:
            try:
                out.append(ProbeKind(entry.strip().lower()))
            except ValueError:
                valid = ", ".join(k.value for k in ProbeKind)
                raise ConfigError(
                    f"unknown probe kind {entry!r} (expected one of: {valid})"
                ) from None
    return tuple(out)


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.axis is None:
        raise ConfigError("sweep requires --axis")
    if not cfg.axis_values:
        raise ConfigError("sweep requires --axis-values")
    axis = _parse_axis(cfg.axis)
    out_csv = Path(cfg.out or "sweep.csv")
    out_json = out_csv.with_suffix(".json")
    if out_json == out_csv:
        raise ConfigError(f"--out {out_csv} would be overwritten by its JSON mirror; "
                          "give the CSV a suffix other than .json")
    try:
        spec = SweepSpec(
            axis=axis,
            axis_values=cfg.axis_values,
            probes=_sweep_probes(cfg),
            methods=tuple(_parse_method(m) for m in cfg.method or ("qfi",)),
            bath=cfg.bath(),
            t=cfg.t,
            dim=cfg.resolved_dim(),
            diff=cfg.diff(),
        )
    except FockThermoError as exc:  # spec assembly failures are usage errors
        raise ConfigError(str(exc)) from None
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
