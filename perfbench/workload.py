"""One pass of one benchmark workload, in a fresh interpreter.

Usage (normally started by ``run.py``, from the root of the checkout):

    python3 perfbench/workload.py --workload NAME --seed N --out-dir DIR
        [--setup-only] [--trace-dir DIR] [--crosscheck RTOL]

The pass imports fockthermo from ``src/``, builds the workload's inputs
from the seed, evaluates every Fisher point through the public library or
CLI entry point, and prints one JSON object as its last stdout line: the
set-up time, the wall and CPU time of the points, peak RSS, and every
computed value for ``run.py`` to check. With ``--crosscheck`` it also
computes, untimed, what ``run.py`` needs to check CFI = QFI for the
number-diagonal probes.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# Pin BLAS/OpenMP to one thread before numpy loads, so that no workload
# runs more threads than the box has cores (see README.md).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import fockthermo  # noqa: E402
from fockthermo import fisher, sweep  # noqa: E402
from fockthermo.bath import BathParams  # noqa: E402
from fockthermo.dynamics import population_vector  # noqa: E402
from fockthermo.fisher import FisherMethod  # noqa: E402
from fockthermo.fockspace import EIGENVALUE_FLOOR  # noqa: E402
from fockthermo.probes import ProbeKind, ProbeSpec  # noqa: E402

# The default seed gives the fixed grids of the acceptance fixtures; any
# other seed draws the same number of values log-uniformly over the same
# range, so later claims can be checked on inputs nobody tuned for.
DEFAULT_SEED = 0

SHORT_TIME_RANGE = (1e-3, 1e-1, 9)
SHORT_TIME_CURVES = (  # (probe, dim); mirrors the criterion-1 fixture
    (ProbeSpec.fock(1), 40),
    (ProbeSpec.fock(3), 40),
    (ProbeSpec.coherent(1.0), 40),
    (ProbeSpec.squeezed(math.asinh(1.0)), None),  # automatic dim (68)
)
TEMPERATURE_RANGE = (0.05, 5.0, 96)
TEMPERATURE_PROBES = "fock:1,fock:4,fock:20,thermal:0.5,thermal:5.0"
CLI_T = 0.5  # the evolution time ``fockthermo sweep`` uses without --t
# Process-pool workers per workload; 2 = the cores of the box it was tuned on.
WORKERS = {"excitation_qfi": 1, "short_time_cfi": 1, "temperature_cli": 2}


def log_grid(lo: float, hi: float, n: int, seed: int) -> list[float]:
    """n ascending values in [lo, hi]: geometric for the default seed, else
    drawn log-uniformly from ``random.Random(seed)``."""
    if seed == DEFAULT_SEED:
        return [float(v) for v in np.geomspace(lo, hi, n)]
    rng = random.Random(seed)
    values = sorted(lo * (hi / lo) ** rng.random() for _ in range(n))
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"seed {seed} drew a repeated value; choose another seed")
    return values


def build_inputs(name: str, seed: int):
    if name == "excitation_qfi":
        # The integer excitation grid of the paper's Fig. 2; the seed does not
        # change it, so its stored reference applies to every seed.
        return sweep.SweepSpec(
            axis=sweep.SweepAxis.EXCITATION_N,
            axis_values=(1, 2, 3),
            probes=(ProbeKind.FOCK, ProbeKind.SQUEEZED, ProbeKind.COHERENT),
            methods=(sweep.SweepMethod.QFI,),
            t=0.5,
        )
    if name == "short_time_cfi":
        return log_grid(*SHORT_TIME_RANGE, seed)
    if name == "temperature_cli":
        return log_grid(*TEMPERATURE_RANGE, seed)
    raise ValueError(f"unknown workload {name!r}")


def point_key(probe: str, axis: str, value: float, method: str) -> str:
    return f"{probe}|{axis}={value!r}|{method}"


def run_excitation(spec, args, report: dict) -> list[dict]:
    try:
        result = sweep.run_sweep(spec, workers=WORKERS["excitation_qfi"])
    except Exception as exc:  # no rows: run.py counts every point as missing
        report["error"] = repr(exc)
        return []
    return [
        {
            "key": point_key(r.probe, "n", r.axis_value, r.method),
            "value": r.qfi,
            "error": r.error,
        }
        for r in result.rows
    ]


def run_short_time(ts: list[float], args, report: dict) -> list[dict]:
    bath = BathParams()
    points = []
    for probe, dim in SHORT_TIME_CURVES:
        keys = [point_key(probe.canonical(), "t", t, "cfi") for t in ts]
        try:
            records = fisher.qfi_curve(probe, bath, ts, FisherMethod.CFI_NUMBER, dim=dim)
        except Exception as exc:  # a failed curve fails each of its points
            points += [{"key": k, "value": None, "error": repr(exc)} for k in keys]
            continue
        points += [{"key": k, "value": r.value, "error": None} for k, r in zip(keys, records)]
    return points


def number_diagonal(name: str, inputs: list[float], points: list[dict], rtol: float) -> list[dict]:
    """CFI and QFI of every number-diagonal point, for run.py's CFI = QFI
    check; untimed.

    The program keeps outcomes with p > ``fisher.P_FLOOR`` (1e-14) in the CFI
    but treats eigenvalues below ``fockspace.EIGENVALUE_FLOOR`` (1e-12) as zero
    in the QFI, so the two differ wherever levels hold populations between the
    floors. Where they differ by more than ``rtol``, the CFI is recomputed
    through the public API twice: with the default floor, to show it is the
    same point, and with the QFI's floor, which is what CFI = QFI holds for.
    """
    values = {p["key"]: p["value"] for p in points}
    cases = []  # (key, probe, bath, t, dim, QFI)
    if name == "short_time_cfi":
        bath = BathParams()
        for probe, dim in SHORT_TIME_CURVES:
            if not probe.is_number_diagonal:
                continue
            try:
                qfis = [r.value for r in fisher.qfi_curve(
                    probe, bath, inputs, FisherMethod.QFI_SLD, dim=dim)]
            except Exception:  # None fails the check of each point
                qfis = [None] * len(inputs)
            cases += [(point_key(probe.canonical(), "t", t, "cfi"), probe, bath, t, dim, q)
                      for t, q in zip(inputs, qfis)]
    elif name == "temperature_cli":  # every probe of the sweep is number-diagonal
        probes = [ProbeSpec.parse(text) for text in TEMPERATURE_PROBES.split(",")]
        for T in inputs:
            bath = dataclasses.replace(BathParams(), T=T)
            for probe in probes:
                key = point_key(probe.canonical(), "T", T, "cfi")
                cases.append((key, probe, bath, CLI_T, None, values.get(key[: -len("cfi")] + "qfi")))
    out = []
    for key, probe, bath, t, dim, q in cases:
        c = values.get(key)
        entry = {"key": key, "cfi": c, "qfi": q, "cfi_recomputed": None, "cfi_qfi_floor": None}
        if c is not None and q is not None and abs(c - q) > rtol * max(abs(c), abs(q)):
            deriv = fisher.d_dT_state(probe, bath, t, dim=dim)
            p = population_vector(deriv.rho.populations)
            dp = deriv.drho.diagonal().real
            entry["cfi_recomputed"] = fisher.cfi_number_basis(p, dp)
            entry["cfi_qfi_floor"] = fisher.cfi_number_basis(p, dp, p_floor=EIGENVALUE_FLOOR)
        out.append(entry)
    return out


def run_temperature_cli(temps: list[float], args, report: dict) -> list[dict]:
    out_csv = Path(args.out_dir) / "temperature_cli.csv"
    cli_args = [
        "sweep", "--axis", "temperature",
        "--axis-values", ",".join(repr(T) for T in temps),
        "--probes", TEMPERATURE_PROBES,
        "--method", "cfi,qfi",
        "--workers", str(WORKERS["temperature_cli"]),
        "--out", str(out_csv),
    ]
    if args.trace_dir:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), args.trace_dir, *cli_args]
    else:
        cmd = [sys.executable, "-m", "fockthermo.cli", *cli_args]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170)
    report["cli_wall_s"] = time.perf_counter() - started
    report["csv_header"] = None
    if proc.returncode not in (0, 2):  # 2: some rows failed, both files written
        report["error"] = f"fockthermo sweep exited {proc.returncode}: {proc.stderr.strip()}"
        return []
    payload = json.loads(out_csv.with_suffix(".json").read_text())
    report["sweep_wall_time_s"] = payload["metadata"]["wall_time_s"]
    with open(out_csv, newline="") as handle:
        report["csv_header"] = handle.readline().rstrip("\n")
        report["csv_qfi"] = [row["qfi"] for row in csv.DictReader(
            handle, fieldnames=report["csv_header"].split(","))]
    return [
        {
            "key": point_key(r["probe"], "T", r["axis_value"], r["method"]),
            "value": r["qfi"],
            "error": r["error"],
        }
        for r in payload["rows"]
    ]


RUNNERS = {
    "excitation_qfi": run_excitation,
    "short_time_cfi": run_short_time,
    "temperature_cli": run_temperature_cli,
}


def cpu_seconds() -> float:
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any child it waited for (Linux KiB)."""
    self_ = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_, kids) / 1024.0


def versions() -> dict:
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fockthermo": fockthermo.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-dir", default="")
    ap.add_argument("--crosscheck", type=float, default=None, metavar="RTOL")
    args = ap.parse_args()

    inputs = build_inputs(args.workload, args.seed)
    tracer = None
    if args.trace_dir:
        sys.path.insert(0, str(HERE))
        import tracer as tracing

        tracer = tracing.install(args.trace_dir)
    setup_s = time.perf_counter() - T0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "fockthermo_file": fockthermo.__file__,
        "csv_header_expected": sweep.CSV_HEADER,
        "workers": WORKERS[args.workload],
    }
    if args.setup_only:
        report["versions"] = versions()
    else:
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        points = RUNNERS[args.workload](inputs, args, report)
        report["wall_s"] = time.perf_counter() - wall0
        report["cpu_s"] = cpu_seconds() - cpu0
        report["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            tracer.enabled = False
            tracer.dump()
        if args.crosscheck is not None:
            report["number_diagonal"] = number_diagonal(
                args.workload, inputs, points, args.crosscheck)
        report["points"] = points
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
