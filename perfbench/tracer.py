"""Spans around fockthermo's public calls, recorded from outside the program.

``install(trace_dir)`` rebinds each name in ``SITES`` where the calling
module looks it up (for example ``fockthermo.fisher.evolve``, which
``d_dT_state`` calls) to a wrapper that records a span: name, start, end,
parent span and Fisher point. Spans stay in memory and each process writes
its own ``spans-<pid>.json`` once, at the end: the main process when
``dump()`` is called, forked pool workers when they exit. A site missing
from the program (renamed or deleted by a later change) is skipped, and its
metrics read 0.

``layer_metrics(spans, ...)`` turns the spans of one traced pass into the
per-layer metrics that ``run.py`` reports.
"""

from __future__ import annotations

import importlib
import json
import math
import multiprocessing.util
import os
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name). The module is where the caller looks the
# name up; "module:Class" wraps a method on the class.
SITES = (
    ("fockthermo.cli", "main", "cli.main"),
    ("fockthermo.cli", "run_sweep", "sweep.run_sweep"),
    ("fockthermo.sweep", "run_sweep", "sweep.run_sweep"),
    ("fockthermo.sweep:SweepResult", "write_csv", "sweep.write"),
    ("fockthermo.sweep:SweepResult", "write_json", "sweep.write"),
    ("fockthermo.sweep", "qfi_point", "fisher.qfi_point"),
    ("fockthermo.fisher", "qfi_curve", "fisher.qfi_curve"),
    ("fockthermo.fisher", "qfi_point", "fisher.qfi_point"),
    ("fockthermo.fisher", "d_dT_state", "fisher.d_dT_state"),
    ("fockthermo.fisher", "cfi_number_basis", "fisher.cfi"),
    ("fockthermo.fisher", "qfi_sld_detailed", "fisher.qfi_sld"),
    ("fockthermo.fisher", "default_dim", "probes.default_dim"),
    ("fockthermo.fisher", "make_state", "probes.make_state"),
    ("fockthermo.fisher", "evolve", "dynamics.evolve"),
    ("fockthermo.dynamics", "_evolve_rk4", "dynamics.rk4"),
    ("fockthermo.dynamics", "expm", "dynamics.expm"),
)

# RK4 work model, per step: 4 right-hand sides, each 4 dense complex d x d
# products (a rho a^dag and a^dag rho a, two products each). A complex
# multiply-add is 8 real FLOPs; each product reads two d x d complex128
# operands and writes one (16 bytes per entry). Elementwise terms are left
# out, so both figures are computed lower bounds, not measurements.
RK4_PRODUCTS_PER_STEP = 16


def rk4_work(dim: int, steps: int) -> tuple[float, float]:
    """(FLOPs, bytes) of the dense products of ``steps`` RK4 steps at ``dim``."""
    products = RK4_PRODUCTS_PER_STEP * steps
    return products * 8.0 * dim**3, products * 3 * 16.0 * dim**2


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _point_attrs(args, kwargs):
    probe, bath, t, method = (
        _arg(args, kwargs, i, n) for i, n in enumerate(("probe", "bath", "t", "method"))
    )
    method = getattr(method, "value", method)
    return {"point": f"{probe.canonical()}|T={bath.T!r}|t={t!r}|{method}"}


def _evolve_attrs(args, kwargs):
    return {"dim": int(_arg(args, kwargs, 0, "rho0").dim)}


def _rk4_attrs(args, kwargs):
    rho0, rates, cfg = (_arg(args, kwargs, i, n) for i, n in enumerate(("rho0", "rates", "cfg")))
    # the step count RK4 takes, from the program's own step rule
    steps = max(1, int(math.ceil(cfg.t_final / cfg.step(rates))))
    flops, nbytes = rk4_work(rho0.dim, steps)
    return {"dim": int(rho0.dim), "steps": steps, "flops": flops, "bytes": nbytes}


def _expm_attrs(args, kwargs):
    return {"dim": int(_arg(args, kwargs, 0, "A").shape[0])}


# Call attributes recorded on a span, from the call's arguments.
ATTRS = {
    "fisher.qfi_point": _point_attrs,
    "dynamics.evolve": _evolve_attrs,
    "dynamics.rk4": _rk4_attrs,
    "dynamics.expm": _expm_attrs,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, trace_dir: str) -> None:
        self.trace_dir = Path(trace_dir)
        self.enabled = True
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.dumped = False

    def after_fork(self) -> None:
        """In a forked pool worker: start empty and write the spans at exit."""
        self._reset()
        multiprocessing.util.Finalize(self, Tracer.dump, args=(self,), exitpriority=100)

    def wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        attrs = ATTRS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            span = {
                "id": len(tracer.spans),
                "parent": parent["id"] if parent else None,
                "name": name,
                "point": parent["point"] if parent else None,
            }
            if attrs is not None:
                try:
                    span.update(attrs(args, kwargs))
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass  # the call's signature changed; keep the timing
            tracer.spans.append(span)
            tracer.stack.append(span)
            span["start"] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                tracer.stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", attr)
        setattr(owner, attr, traced)

    def dump(self) -> None:
        if self.dumped:
            return
        self.dumped = True
        path = self.trace_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps({"pid": self.pid, "spans": self.spans}))


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def install(trace_dir: str) -> Tracer:
    tracer = Tracer(trace_dir)
    for owner, attr, name in SITES:
        tracer.wrap(_owner(owner), attr, name)
    multiprocessing.util.register_after_fork(tracer, Tracer.after_fork)
    return tracer


def load_spans(trace_dir: str) -> list[dict]:
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.json")):
        data = json.loads(path.read_text())
        for span in data["spans"]:
            if "end" in span:
                span["pid"] = data["pid"]
                spans.append(span)
    return spans


def point_counts(spans: list[dict]) -> dict:
    """Exact work counts per Fisher point: dim, evolutions, RK4 steps,
    computed FLOPs and bytes."""
    counts: dict = defaultdict(
        lambda: {"dim": 0, "evolutions": 0, "rk4_steps": 0, "rk4_flops": 0.0, "rk4_bytes": 0.0}
    )
    for s in spans:
        if s["point"] is None:
            continue
        c = counts[s["point"]]
        if s["name"] == "dynamics.evolve":
            c["evolutions"] += 1
            c["dim"] = max(c["dim"], s.get("dim", 0))
        elif s["name"] == "dynamics.rk4":
            c["rk4_steps"] += s.get("steps", 0)
            c["rk4_flops"] += s.get("flops", 0.0)
            c["rk4_bytes"] += s.get("bytes", 0.0)
    return dict(sorted(counts.items()))


def layer_metrics(spans: list[dict], *, workers: int, cli_overhead_s: float) -> dict:
    """Per-layer busy time, self time and counts from the spans of one pass."""
    busy: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    child_s: dict = defaultdict(float)
    for s in spans:
        seconds = (s["end"] - s["start"]) * 1e-9
        s["seconds"] = seconds
        busy[s["name"]] += seconds
        calls[s["name"]] += 1
        if s["parent"] is not None:
            child_s[(s["pid"], s["parent"])] += seconds
    d_dT_self = sum(
        s["seconds"] - child_s[(s["pid"], s["id"])] for s in spans if s["name"] == "fisher.d_dT_state"
    )
    rk4 = [s for s in spans if s["name"] == "dynamics.rk4"]
    evolve_dims = [s.get("dim", 0) for s in spans if s["name"] == "dynamics.evolve"]
    points = calls["fisher.qfi_point"]
    sweep_wall = busy["sweep.run_sweep"]
    return {
        "dynamics.rk4.s": busy["dynamics.rk4"],
        "dynamics.rk4.calls": calls["dynamics.rk4"],
        "dynamics.rk4.steps": sum(s.get("steps", 0) for s in rk4),
        "dynamics.rk4.gflop_computed": sum(s.get("flops", 0.0) for s in rk4) * 1e-9,
        "dynamics.rk4.gbyte_computed": sum(s.get("bytes", 0.0) for s in rk4) * 1e-9,
        "dynamics.expm.s": busy["dynamics.expm"],
        "dynamics.expm.calls": calls["dynamics.expm"],
        "dynamics.evolve.s": busy["dynamics.evolve"],
        "dynamics.evolve.calls": calls["dynamics.evolve"],
        "dynamics.dim.max": max(evolve_dims, default=0),
        "fisher.evolutions_per_point": calls["dynamics.evolve"] / points if points else 0.0,
        "fisher.d_dT_state.self_s": d_dT_self,
        "fisher.qfi_sld.s": busy["fisher.qfi_sld"],
        "fisher.cfi.s": busy["fisher.cfi"],
        "probes.default_dim.s": busy["probes.default_dim"],
        "probes.default_dim.calls": calls["probes.default_dim"],
        "probes.make_state.s": busy["probes.make_state"],
        "sweep.run_sweep.s": sweep_wall,
        "sweep.write.s": busy["sweep.write"],
        "sweep.parallel_efficiency": (
            busy["fisher.qfi_point"] / (workers * sweep_wall) if sweep_wall else 0.0
        ),
        "cli.overhead_s": cli_overhead_s,
    }
