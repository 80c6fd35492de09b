"""Record the stored reference values, or the baseline of the current commit.

Usage, from the root of a checkout:

    python3 perfbench/record.py reference [WORKLOAD ...]
    python3 perfbench/record.py baseline

``reference`` runs one untraced pass of each named workload (default: all)
at the default seed and writes every point's value to
``perfbench/reference.json``, which ``run.py`` checks every pass against.
Rerun it only in a change whose purpose is to change results, and say why.

``baseline`` writes ``perfbench/baseline.json`` from the records in
``perfbench/_out``: for each workload the median and quartiles of the
end-to-end metrics over the last ten ``spread.py`` runs, and the per-layer
metrics, per-point counts and machine of the seed-0 traced run
(``run.py --trace 1 --seed 0``).
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time

import run


def workloads() -> list[str]:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in declared["workloads"]]


def reference(names: list[str]) -> None:
    path = run.HERE / "reference.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    run.OUT.mkdir(exist_ok=True)
    for name in names:
        with tempfile.TemporaryDirectory(dir=run.OUT) as out_dir:
            args = ["--workload", name, "--seed", str(run.DEFAULT_SEED), "--out-dir", out_dir]
            report, _ = run.spawn(args, time.perf_counter() + run.DEADLINE_S)
        failed = [p for p in report["points"] if p["error"] is not None]
        if failed:
            raise SystemExit(f"{name}: {len(failed)} points failed, first: {failed[0]['error']}")
        stored[name] = {"values": {p["key"]: p["value"] for p in report["points"]}}
        print(f"{name}: {len(report['points'])} values")
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def baseline() -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    out: dict = {
        "source_digest": run.source_digest(),
        "run_seconds": declared["run_seconds"],
        "workloads": {},
    }
    for name in (w["name"] for w in declared["workloads"]):
        lines = (run.OUT / f"spread-{name}.jsonl").read_text().splitlines()
        runs = [json.loads(line) for line in lines[-10:]]
        traced = json.loads((run.OUT / f"{name}-seed{run.DEFAULT_SEED}-trace1.json").read_text())
        end_to_end = {}
        for metric, m in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric] = {
                "median": statistics.median(values), "q1": q1, "q3": q3, "unit": m["unit"],
            }
        out["machine"] = traced["machine"]
        out["workloads"][name] = {
            "runs": [{"seed": r["seed"], "correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"]} for r in runs],
            "end_to_end": end_to_end,
            "per_layer_seed0": {k: v["value"] for k, v in traced["metrics"].items()},
            "failed_frac_seed0": traced["failed_frac"],
            "cfi_qfi_max_rel_gap_seed0": traced["cfi_qfi_max_rel_gap"],
            "cfi_qfi_floor_explained_seed0": traced["cfi_qfi_floor_explained"],
            "counts_seed0": traced["counts"],
        }
    (run.HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")


def main() -> int:
    if sys.argv[1:2] == ["reference"]:
        reference(sys.argv[2:] or workloads())
    elif sys.argv[1:] == ["baseline"]:
        baseline()
    else:
        raise SystemExit(__doc__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
