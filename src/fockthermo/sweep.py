"""Parameter sweeps over excitation number, temperature, coupling, decay
rate, or time, evaluated point by point with deterministic aggregation.

Every point is a pure computation, so results are identical for any worker
count. The rows of one (axis value, probe) pair form a task, whose rows
that read the populations reduce one shared temperature derivative; at
more than one worker a process pool, imported only then, maps the tasks,
and its map returns their rows in task order.
A bound method gets rows only for the probe class its closed form was
derived for. The CSV header is the field order of :class:`SweepRow`; files
are written atomically (temp file + rename), and a JSON mirror adds each
row's error and a metadata block.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import tempfile
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__, fisher
from .bath import BathParams, RateModel
from .bounds import (
    bound_coherent,
    bound_fock_linear,
    bound_fock_quadratic,
    bound_squeezed,
    short_time_valid,
)
from .errors import DomainError, FockThermoError, InsufficientDataError, SweepError
from .fisher import FisherMethod, TemperatureDerivative, delta_t_min, fisher_record
from .probes import ProbeKind, ProbeSpec
from .tables import columns, csv_text


class SweepAxis(str, Enum):
    EXCITATION_N = "excitation_n"
    TEMPERATURE = "temperature"
    COUPLING_G = "coupling_g"
    DECAY_GAMMA = "decay_gamma"
    TIME = "time"


class SweepMethod(str, Enum):
    CFI = "cfi"
    QFI = "qfi"
    BOUND_FOCK_LINEAR = "bound_fock_linear"
    BOUND_FOCK_QUADRATIC = "bound_fock_quadratic"
    BOUND_SQUEEZED = "bound_squeezed"
    BOUND_COHERENT = "bound_coherent"


# Each bound method: the probe class it was derived for, which alone gets
# its rows, and its closed form in the probe's mean photon number.
_BOUNDS = {
    SweepMethod.BOUND_FOCK_LINEAR: (ProbeKind.FOCK, bound_fock_linear),
    SweepMethod.BOUND_FOCK_QUADRATIC: (ProbeKind.FOCK, bound_fock_quadratic),
    SweepMethod.BOUND_SQUEEZED: (ProbeKind.SQUEEZED, bound_squeezed),
    SweepMethod.BOUND_COHERENT: (ProbeKind.COHERENT, bound_coherent),
}

# The methods that reduce the temperature derivative of the evolved probe.
_FISHER = {SweepMethod.CFI: FisherMethod.CFI_NUMBER, SweepMethod.QFI: FisherMethod.QFI_SLD}


# What an axis value replaces, the one statement of it: a BathParams field,
# or the evolution time 't', and the rate model the axis forces (None: the
# bath's own). The excitation axis replaces no input; it instantiates the
# probe kinds at each value instead.
AXIS_OVERRIDES: dict[SweepAxis, tuple[str | None, RateModel | None]] = {
    SweepAxis.EXCITATION_N: (None, None),
    SweepAxis.TEMPERATURE: ("T", None),
    SweepAxis.COUPLING_G: ("g", RateModel.PURCELL),
    SweepAxis.DECAY_GAMMA: ("gamma", RateModel.MARKOVIAN),
    SweepAxis.TIME: ("t", None),
}


def refuse_repeats(what: str, items: Sequence, label: Callable[[object], str] = repr) -> None:
    """Refuse the first of ``items`` equal to an earlier one, which would
    otherwise be evaluated twice or collapse into one without a word."""
    for i, item in enumerate(items):
        if item in items[:i]:
            raise DomainError(f"{what} {label(item)} is repeated")


def _name(probe: ProbeSpec | ProbeKind) -> str:
    """A sweep entry's text: a spec's canonical form, or a bare kind's value."""
    return probe.canonical() if isinstance(probe, ProbeSpec) else probe.value


@dataclass(frozen=True)
class SweepSpec:
    """A sweep and its plan: the tasks it evaluates, built once here, so a
    bath-axis value outside the domain :class:`BathParams` states, a negative
    or non-finite t on an axis that reads it, a repeated axis value, probe or
    method, or a spec whose probes and methods share no row, is refused on
    construction."""

    axis: SweepAxis
    axis_values: tuple[float, ...]
    probes: tuple[ProbeSpec | ProbeKind, ...]
    methods: tuple[SweepMethod, ...] = (SweepMethod.QFI,)
    bath: BathParams = BathParams()
    t: float = 0.5
    dim: int | None = None
    plan: tuple[_Task, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "axis", SweepAxis(self.axis))
        object.__setattr__(self, "axis_values", tuple(float(v) for v in self.axis_values))
        object.__setattr__(self, "methods", tuple(SweepMethod(m) for m in self.methods))
        if not self.axis_values:
            raise DomainError("axis_values must be nonempty")
        if not all(math.isfinite(v) for v in self.axis_values):
            raise DomainError(f"axis_values must be finite, got {self.axis_values!r}")
        if any(b <= a for a, b in zip(self.axis_values, self.axis_values[1:])):
            raise DomainError("axis_values must be strictly ascending")
        if not self.probes or not self.methods:
            raise DomainError("probes and methods must be nonempty")
        object.__setattr__(self, "probes", tuple(
            p if isinstance(p, ProbeSpec) else ProbeKind(p) for p in self.probes))
        excitation = self.axis is SweepAxis.EXCITATION_N
        for p in self.probes:
            if excitation and isinstance(p, ProbeSpec):
                raise DomainError("the excitation axis instantiates probes per axis value; "
                                  f"pass probe kinds, not {p.canonical()!r}")
            if not excitation and isinstance(p, ProbeKind):
                raise DomainError(
                    f"bare probe kind {p.value!r} is only valid on the excitation axis")
        refuse_repeats("probe", self.probes, lambda p: repr(_name(p)))
        refuse_repeats("method", self.methods, lambda m: repr(m.value))
        # The rules no constructor states; BathParams checks T, gamma and g.
        if excitation and any(v != int(v) or v < 0 for v in self.axis_values):
            raise DomainError("excitation axis values must be integers >= 0")
        if self.axis is SweepAxis.TIME and self.axis_values[0] < 0.0:
            raise DomainError("time values must be >= 0")
        if AXIS_OVERRIDES[self.axis][0] != "t" and not 0.0 <= self.t < math.inf:
            raise DomainError(f"t must be finite and >= 0, got {self.t!r}")
        object.__setattr__(self, "plan", _plan(self))
        if not self.plan:
            raise DomainError("sweep plan is empty (no probe/method combination applies)")

    def echo(self) -> dict:
        return {
            "axis": self.axis.value,
            "axis_values": list(self.axis_values),
            "probes": [_name(p) for p in self.probes],
            "methods": [m.value for m in self.methods],
            "bath": {**dataclasses.asdict(self.bath), "rate_model": self.bath.rate_model.value},
            "t": self.t,
            "dim": self.dim,
        }


@dataclass(frozen=True)
class SweepRow:
    """One sweep row; the field order is the CSV header."""

    axis: str
    axis_value: float
    probe: str
    method: str
    qfi: float
    delta_t_min: float
    valid_short_time: bool
    leakage: float
    h_used: float
    dim: int
    error: str | None = None

    def as_json_dict(self) -> dict:
        """Every field, with non-finite floats as None (JSON null)."""
        return {
            name: None if isinstance(value, float) and not math.isfinite(value) else value
            for name, value in dataclasses.asdict(self).items()
        }


CSV_HEADER = ",".join(columns(SweepRow))


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    metadata: dict

    def csv_body(self) -> str:
        return csv_text(SweepRow, self.rows)

    def write_csv(self, path: str | Path) -> None:
        _atomic_write(Path(path), self.csv_body())

    def write_json(self, path: str | Path) -> None:
        payload = {
            "metadata": self.metadata,
            "rows": [row.as_json_dict() for row in self.rows],
        }
        _atomic_write(Path(path), json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class _Task:
    """One (axis value, probe) pair and the methods of its rows, in the order
    they were requested. The rows that read the populations share one derivative."""

    axis: SweepAxis
    axis_value: float
    bath: BathParams
    t: float
    probe: ProbeSpec
    methods: tuple[SweepMethod, ...]
    dim: int | None


def _plan(spec: SweepSpec) -> tuple[_Task, ...]:
    name, rate_model = AXIS_OVERRIDES[spec.axis]
    tasks: list[_Task] = []
    for value in spec.axis_values:
        changes = {} if name is None else {name: value}
        if rate_model is not None:
            changes["rate_model"] = rate_model
        t = changes.pop("t", spec.t)
        bath = dataclasses.replace(spec.bath, **changes)  # BathParams checks the value
        for entry in spec.probes:
            probe = entry if isinstance(entry, ProbeSpec) else ProbeSpec.matched(entry, value)
            methods = tuple(
                m for m in spec.methods if m in _FISHER or _BOUNDS[m][0] is probe.kind
            )
            if methods:
                tasks.append(_Task(spec.axis, value, bath, t, probe, methods, spec.dim))
    return tuple(tasks)


def _evaluate_task(task: _Task) -> list[SweepRow]:
    try:
        # through the module, where a tracer of fisher.d_dT_state sees it
        deriv = (fisher.d_dT_state(task.probe, task.bath, task.t, dim=task.dim)
                 if any(fisher.reads_populations(task.probe, _FISHER[method])
                        for method in task.methods if method in _FISHER) else None)
    except FockThermoError as exc:
        deriv = exc  # reported on every row of the task that reads the populations
    return [_evaluate_row(task, method, deriv) for method in task.methods]


def _evaluate_row(
    task: _Task, method: SweepMethod, deriv: TemperatureDerivative | FockThermoError | None
) -> SweepRow:
    try:
        if method in _FISHER and fisher.reads_populations(task.probe, _FISHER[method]):
            if isinstance(deriv, FockThermoError):
                raise deriv
            record = fisher_record(deriv, _FISHER[method])
            value, leakage, h_used, dim = record.value, record.leakage, record.h_used, record.dim
        else:  # a closed form: a Gaussian QFI or a bound
            value = (fisher.gaussian_qfi(task.probe, task.bath, task.t) if method in _FISHER
                     else _BOUNDS[method][1](task.probe.mean_photon, task.bath, task.t))
            leakage, h_used, dim = 0.0, 0.0, 0
        valid = short_time_valid(task.bath, task.t, task.probe.mean_photon)
        floor, error = delta_t_min(value), None
    except FockThermoError as exc:
        value = floor = leakage = h_used = math.nan
        valid, dim, error = False, 0, f"{type(exc).__name__}: {exc}"
    return SweepRow(
        axis=task.axis.value,
        axis_value=task.axis_value,
        probe=task.probe.canonical(),
        method=method.value,
        qfi=value,
        delta_t_min=floor,
        valid_short_time=valid,
        leakage=leakage,
        h_used=h_used,
        dim=dim,
        error=error,
    )


def run_sweep(spec: SweepSpec, workers: int | None = None) -> SweepResult:
    """Evaluate the sweep; output is independent of the worker count.

    Individual point failures are recorded on their rows and the sweep
    continues; more than 50% failures raise :class:`SweepError`.
    """
    started = time.monotonic()
    tasks = spec.plan
    if workers is None:
        workers = os.cpu_count() or 1
    elif isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise DomainError(f"workers must be an integer >= 1, got {workers!r}")
    if workers == 1 or len(tasks) == 1:
        per_task = list(map(_evaluate_task, tasks))
    else:
        workers = min(workers, len(tasks))
        # about four chunks of consecutive tasks per worker: few pickling round
        # trips, and no chunk so long that it leaves the other workers idle
        chunk = -(-len(tasks) // (4 * workers))
        # the pool's modules load here, on the first fork: a serial sweep,
        # and the package's import, never hold them
        from concurrent.futures import ProcessPoolExecutor

        if any(task.probe.kind is ProbeKind.THERMAL for task in tasks):
            # a thermal task exponentiates (dynamics.expm): load scipy here,
            # once, so that the forked workers inherit it rather than each
            # importing it again
            import scipy.linalg  # noqa: F401
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_task = list(pool.map(_evaluate_task, tasks, chunksize=chunk))
    rows = tuple(row for task_rows in per_task for row in task_rows)

    failures = [
        {"axis_value": r.axis_value, "probe": r.probe, "method": r.method, "reason": r.error}
        for r in rows
        if r.error is not None
    ]
    if len(failures) * 2 > len(rows):
        raise SweepError(
            f"{len(failures)}/{len(rows)} sweep points failed; first: {failures[0]['reason']}"
        )
    metadata = {
        "spec": spec.echo(),
        "version": __version__,
        "wall_time_s": time.monotonic() - started,
        "n_points": len(rows),
        "n_failed": len(failures),
        "failures": failures,
    }
    return SweepResult(rows=rows, metadata=metadata)


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    r_squared: float
    n_used: int


def fit_scaling_exponent(times: Sequence[float], values: Sequence[float]) -> ScalingFit:
    """Least-squares slope of log(value) against log(t).

    Points whose time or value is nonpositive or not finite are excluded;
    at least four usable points are required.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise DomainError("times and values must have equal length")
    keep = (times > 0.0) & np.isfinite(times) & (values > 0.0) & np.isfinite(values)
    if int(keep.sum()) < 4:
        raise InsufficientDataError(
            f"need >= 4 positive points for a power-law fit, have {int(keep.sum())}"
        )
    x = np.log(times[keep])
    y = np.log(values[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return ScalingFit(
        slope=float(slope), intercept=float(intercept), r_squared=r2, n_used=int(keep.sum())
    )
