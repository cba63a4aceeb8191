#!/usr/bin/env python3
"""Run one cyclosum benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact --seed 3 --seconds 10 --trace 0

Run from the root of a source tree: the program is imported from ``src/``.
One process, one call at a time (a closed loop; the campaign runs with
``--jobs 1``).  Whole rounds of the workload's operations run until
``--seconds`` have passed.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Diagnostics go to standard error; a traced run writes its
spans to ``.perfbench/`` under the root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy is first imported and inherited by the
# set-up probes.  OpenBLAS otherwise starts a thread pool at import whose
# threads spin on the second CPU, so that import and call times depend on
# whether that CPU is free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Set-up probes per run, half before the measured rounds and half after.
# Set-up is the same work every time and the host's interference only adds
# to it, so a run reports the fastest probe: one probe takes about 0.1 s,
# short enough for a neighbour's burst to slow a single sample by 40%.
SETUP_PROBES = 16
PROBE_TIMEOUT_S = 60


def import_program():
    """Import cyclosum from this tree's sources, and from nowhere else."""
    init = SRC / "cyclosum" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no cyclosum sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cyclosum
    import cyclosum.cli  # noqa: F401  (the campaign calls cyclosum.cli.main)

    if Path(cyclosum.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported cyclosum from {cyclosum.__file__}")
    return cyclosum


def setup_probe(workload: str, seed: int) -> None:
    """Time importing cyclosum and building the workload's inputs; this runs
    in a fresh interpreter, so the imports are cold."""
    start = time.perf_counter()
    pkg = import_program()
    import workloads

    workloads.WORKLOADS[workload](seed, pkg)
    print(repr(time.perf_counter() - start))


def measure_setup(workload: str, seed: int, count: int) -> list[float]:
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_round(wl, tracer=None):
    """One pass over the workload's operations.  Returns the round's wall
    time and, per operation, (op, records, extras, seconds, error)."""
    results = []
    clock = time.perf_counter
    start = clock()
    for index, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op = index
        t0 = clock()
        try:
            records, extras = op.call()
            error = None
        except Exception as exc:  # an operation that raises is a failed operation
            records, extras, error = [], {}, f"{type(exc).__name__}: {exc}"
        results.append((op, records, extras, clock() - t0, error))
    return clock() - start, results


def run_for(wl, seconds: float, tracer=None):
    """Whole rounds until ``seconds`` have passed; at least one.  With a
    tracer, also returns the per-layer metrics of each round."""
    rounds, layers = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        rounds.append(run_round(wl, tracer))
        if tracer is not None:
            layers.append(tracer.metrics())
    return rounds, layers


def tally(rounds) -> tuple[int, int]:
    """Operations attempted and failed: one per non-skipped record, or one
    for a call that raised."""
    attempted = failed = 0
    for _, results in rounds:
        for _, records, _, _, error in results:
            if error is not None:
                attempted += 1
                failed += 1
            for r in records:
                if r["verdict"] != "skipped":
                    attempted += 1
                    failed += r["verdict"] != "pass"
    return attempted, failed


def check(wl, rounds) -> bool:
    """Check the first round against the independent computations, and
    every later round against the first.  Failed operations are not judged;
    for those the benchmark says whether the statement itself holds."""
    import checks

    _, first = rounds[0]
    problems = wl.check_round([(op, recs, extras) for op, recs, extras, _, _ in first])
    for op, records, extras, _, error in first:
        if error is not None:
            print(f"failed: {op.label} raised {error}", file=sys.stderr)
        if "sha256" in extras:
            print(f"{op.label}: sha256 {extras['sha256']}", file=sys.stderr)
        for r in records:
            if r["verdict"] == "skipped":
                continue
            if r["verdict"] == "pass":
                problems += checks.check_record(r, op.matrix(r))
                continue
            print(f"failed: {r['identity_id']} n={r['n']} verdict {r['verdict']!r}: "
                  f"{r['notes']}", file=sys.stderr)
            if r["identity_id"] in checks.DETERMINISTIC:
                own = checks.statement_holds(r["identity_id"], r["n"])
                print("  the benchmark's own check: "
                      + ("the statement holds" if not own else "; ".join(own)),
                      file=sys.stderr)
    for k, (_, results) in enumerate(rounds[1:], start=2):
        if [r[1] for r in results] != [r[1] for r in first]:
            problems.append(f"round {k} gave other records than round 1")
    for p in problems:
        print(f"incorrect: {p}", file=sys.stderr)
    return not problems


def family_seconds(results) -> dict[str, float]:
    out = {f: 0.0 for f in ("det", "permanent", "charpoly", "eei", "spectrum")}
    for op, _, _, seconds, _ in results:
        if op.family in out:
            out[op.family] += seconds
    return out


def unit(name: str) -> str:
    if name.endswith((".calls", ".items")):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "s"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("campaign", "exact", "spectral"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    pkg = import_program()
    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, pkg)
    median = statistics.median

    if not args.trace:
        setup = measure_setup(args.workload, args.seed, SETUP_PROBES // 2)
        rounds, _ = run_for(wl, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup += measure_setup(args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)
        metrics = {
            "wall_s": median(wall for wall, _ in rounds),
            "setup_s": min(setup),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        # One untraced round first, as the first round of an untraced run,
        # for the family times and the tracing overhead.
        untraced_wall, untraced = run_round(wl)
        tracer = Tracer()
        tracer.install(pkg)
        try:
            rounds, layers = run_for(wl, args.seconds, tracer)
        finally:
            tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = {k: median(m[k] for m in layers) for k in layers[0]}
        counts = [{k: v for k, v in m.items() if unit(k) == "count"} for m in layers]
        if any(c != counts[0] for c in counts):
            print("warning: operation counts differ between traced rounds", file=sys.stderr)
        for family, seconds in family_seconds(untraced).items():
            metrics[f"{family}_s"] = seconds
        metrics["trace.overhead_s"] = median(wall for wall, _ in rounds) - untraced_wall
        rounds = [(untraced_wall, untraced)] + rounds

    attempted, failed = tally(rounds)
    correct = check(wl, rounds)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
