#!/usr/bin/env python3
"""Run each workload repeatedly, one seed per run, and print the median and
quartiles of every end-to-end metric, with the spread (Q3 - Q1) / median
that the bounds in BENCHMARK.json are set against.

    python3 perfbench/steady.py --runs 10 --first-seed 1

Runs go one after another, each in a fresh process.  The summary is also
written to ``.perfbench/steady.json`` under the root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            results.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: " + json.dumps(results[-1]), file=sys.stderr)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        rows = {}
        print(f"\n{workload}: {args.runs} runs, all correct: "
              f"{all(r['correct'] for r in results)}, failed share: {shares}")
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "values": values}
            print(f"  {name:<14}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{spread:>9.3f}{bound:>7}")
        summary[workload] = {"failed_shares": shares,
                             "correct": all(r["correct"] for r in results),
                             "metrics": rows}
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
