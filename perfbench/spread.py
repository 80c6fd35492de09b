"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds 30]

Runs ``run.py`` once per seed, one after the other, and prints for each
end-to-end metric its median, the distance between its first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
and that share against a third of the metric's bound from BENCHMARK.json.
Each run's result line is appended to ``perfbench/_out/spread-NAME.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default=None)
    args = ap.parse_args()
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or str(declared["run_seconds"])
    run.OUT.mkdir(exist_ok=True)
    log = run.OUT / f"spread-{args.workload}.jsonl"

    values: dict[str, list[float]] = {m["name"]: [] for m in declared["end_to_end"]}
    correct = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            raise SystemExit(f"seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(log, "a") as handle:
            handle.write(json.dumps({"seed": seed, **result}) + "\n")
        correct.append(result["correct"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)

    print(f"{args.workload}: {len(correct)} runs, correct in {sum(correct)}")
    for m in declared["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        verdict = "ok" if share < m["bound"] / 3 else "WIDE"
        print(f"  {m['name']:12s} median {med:.5g} {m['unit']}  IQR/median {share:.4f}  "
              f"bound/3 {m['bound'] / 3:.4f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
