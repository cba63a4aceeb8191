"""Command-line harness: verification campaigns over ranges of n, single
exact computations on serialized matrices, and spectrum checks.

Campaign output is deterministic: work items may run in a process pool, but
records are buffered and emitted sorted by (identity_id, n, trial), child
generators are seeded by hashing (seed, identity, n, trial), and timing is
left out of the serialized records unless explicitly requested, so the same
config and seed produce byte-identical jsonl twice.

A work item that raises still yields a record: verdict "error", empty lhs
and rhs, and "<ExceptionClass>: <message>" in notes, so one bad item never
costs the campaign its other records.

Exit codes: 0 all pass/skipped/inconclusive, 1 any fail, 2 usage or parse
error, 3 cap exceeded, 4 any other error in a work item.  A campaign exits
with its worst outcome, ranked 0 < 1 < 3 < 4.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass
from random import Random

from .exact import cp_minor_determinant, cyc_context
from .identities import EEI_TOL, IDENTITY_IDS, STATEMENTS, VerificationReport
from .matrices import (
    PERMANENT_CAP,
    CapExceededError,
    build_cp_matrix,
    delete_rows_cols,
    derangement_sums,
    det_exact,
    load_matrix,
    permanent_ryser,
)
from .spectral import cp_eigenpair_failures, cp_eigenvalues, liu_spectrum_check


@dataclass(frozen=True)
class CampaignConfig:
    identities: tuple[str, ...]
    n_range: tuple[int, int]
    seed: int = 0
    trials: int = 5
    permanent_cap: int = PERMANENT_CAP
    enumeration_cap: int = 11
    tol: float = EEI_TOL
    output: str | None = None
    format: str = "jsonl"
    jobs: int | None = None
    timing: bool = False

    def validate(self) -> None:
        unknown = [i for i in self.identities if i not in IDENTITY_IDS]
        if unknown:
            raise ValueError(f"unknown identities: {', '.join(unknown)}")
        repeated = {i: None for i in self.identities if self.identities.count(i) > 1}
        if repeated:
            raise ValueError(f"duplicate identities: {', '.join(repeated)}")
        if not self.identities:
            raise ValueError("no identities selected")
        lo, hi = self.n_range
        if lo > hi:
            raise ValueError(f"empty range {lo}..{hi}")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.permanent_cap < 1 or self.enumeration_cap < 1:
            raise ValueError("caps must be positive")
        _check_tol(self.tol)
        if self.jobs is not None and self.jobs < 1:
            raise ValueError("jobs must be positive")
        if self.format not in ("jsonl", "csv", "pretty"):
            raise ValueError(f"unknown format {self.format!r}")


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def _worker_count(jobs: int | None) -> int:
    """jobs if given, else CYCLOSUM_JOBS if set, else the CPU count."""
    if jobs is not None:
        return jobs
    env = os.environ.get("CYCLOSUM_JOBS")
    if not env:
        return os.cpu_count() or 1
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"CYCLOSUM_JOBS must be a positive integer, got {env!r}")
    return int(env)


def _child_rng(seed: int, identity: str, n: int, trial: int) -> Random:
    digest = hashlib.sha256(f"{seed}|{identity}|{n}|{trial}".encode()).hexdigest()
    return Random(int(digest, 16))


def _run_item(args: tuple) -> tuple[VerificationReport, float]:
    """One work item's report and its wall time in milliseconds, the input
    draw included; an exception becomes an "error" record."""
    identity, n, trial, cfg = args
    t0 = time.perf_counter()
    try:
        rng = _child_rng(cfg.seed, identity, n, trial)
        report = STATEMENTS[identity].run(n, trial, rng, cfg)
    except Exception as exc:
        sys.stderr.write(
            f"error: {identity} n={n} trial {trial}\n{traceback.format_exc()}"
        )
        report = VerificationReport(
            identity, n, {"trial": trial}, "", "", "error", f"{type(exc).__name__}: {exc}"
        )
    return report, (time.perf_counter() - t0) * 1e3


def _render_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)


def _render_csv(records: list[dict]) -> str:
    if not records:
        return ""
    fields = list(records[0].keys())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for r in records:
        writer.writerow(
            [
                json.dumps(r[f], separators=(",", ":")) if f == "parameters" else r[f]
                for f in fields
            ]
        )
    return buf.getvalue()


def _render_pretty(records: list[dict], timing: bool) -> str:
    cols = ["identity_id", "n", "verdict", "lhs", "rhs", "notes"]
    rows = [[str(r[c]) for c in cols] for r in records]
    if timing:
        cols.insert(5, "elapsed_ms")
        for row, r in zip(rows, records):
            row.insert(5, f"{r['elapsed']:.3f}")
    widths = [max(len(c), *(len(row[i]) for row in rows)) if rows else len(c)
              for i, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def cmd_verify(config: CampaignConfig) -> int:
    try:
        config.validate()
        jobs = _worker_count(config.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    lo, hi = config.n_range
    # (report, elapsed ms) pairs; a skipped order takes no time.
    timed: list[tuple[VerificationReport, float]] = []
    work: list[tuple] = []
    for identity in config.identities:
        statement = STATEMENTS[identity]
        for n in range(lo, hi + 1):
            reason = statement.skip_reason(n, config)
            if reason is not None:
                skipped = VerificationReport(
                    identity, n, {"trial": 0}, "", "", "skipped", reason
                )
                timed.append((skipped, 0.0))
                continue
            trials = config.trials if statement.randomized else 1
            for trial in range(trials):
                work.append((identity, n, trial, config))

    if jobs > 1 and len(work) > 1:
        # Imported here: loading the process pool costs a serial run memory
        # and start-up time for nothing.
        from concurrent.futures import ProcessPoolExecutor

        # The pool forks all its workers up front: no more than there are items.
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            timed.extend(pool.map(_run_item, work))
    else:
        timed.extend(map(_run_item, work))

    timed.sort(key=lambda t: (t[0].identity_id, t[0].n, t[0].parameters.get("trial", 0)))
    reports = [report for report, _ in timed]
    records = [report.to_json_dict() for report in reports]
    if config.timing:
        for record, (_, ms) in zip(records, timed):
            record["elapsed"] = ms
    if config.format == "pretty":
        text = _render_pretty(records, config.timing)
    else:
        text = {"jsonl": _render_jsonl, "csv": _render_csv}[config.format](records)
    if config.output is None or config.output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {config.output}: {exc}", file=sys.stderr)
            return 2
    return _exit_code(reports)


def _exit_code(reports: list[VerificationReport]) -> int:
    """The campaign's worst outcome: 4 for an item that raised anything but
    CapExceededError, 3 for one that hit a cap, 1 for a fail, else 0."""
    code = 0
    for r in reports:
        if r.verdict == "fail":
            code = max(code, 1)
        elif r.verdict == "error":
            capped = r.notes.startswith(f"{CapExceededError.__name__}:")
            code = max(code, 3 if capped else 4)
    return code


def cmd_compute(kind: str, matrix_file: str, permanent_cap: int) -> int:
    if permanent_cap < 1:
        print("error: caps must be positive", file=sys.stderr)
        return 2
    # A bad path or bad JSON, a field of the wrong type or shape, or a zero
    # denominator in an entry.
    try:
        m = load_matrix(matrix_file)
    except (
        OSError, ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError
    ) as exc:
        print(f"error: cannot load matrix: {exc}", file=sys.stderr)
        return 2
    try:
        if kind == "det":
            print(det_exact(m))
        elif kind == "per":
            print(permanent_ryser(m, cap=permanent_cap))
        elif kind == "derangement-sums":
            sums = derangement_sums(m, permanent_cap=permanent_cap)
            print(f"total={sums.total}")
            print(f"even_class={sums.even_class}")
            print(f"odd_class={sums.odd_class}")
            print(f"signed={sums.signed}")
        else:
            print(f"error: unknown kind {kind!r}", file=sys.stderr)
            return 2
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_spectrum(target: str, n: int) -> int:
    """Exact spectrum checks: cp the eigenpairs of the cotangent matrix, minor
    the determinant of its (n-1)-minor, liu the twisted product's spectrum."""
    # Each target checks part of one statement and shares its orders.
    statement = STATEMENTS[{"cp": "thm2_1", "minor": "eq1_3", "liu": "eq2_3_liu"}[target]]
    if not statement.covers(n):
        print(f"error: target {target!r} {statement.note}", file=sys.stderr)
        return 2
    if target == "cp":
        failing = cp_eigenpair_failures(n)
        print("expected:", " ".join(str(x) for x in cp_eigenvalues(n)))
        print(f"eigenpairs hold exactly: {not failing}")
        if failing:
            print("failing columns:", " ".join(str(i) for i in failing))
        return 1 if failing else 0
    if target == "minor":
        det = det_exact(delete_rows_cols(build_cp_matrix(cyc_context(n)), {n}))
        expected = cp_minor_determinant(n)
        print(f"determinant: {det} (expected {expected})")
        return 0 if det == expected else 1
    res = liu_spectrum_check(n)
    print("expected:", " ".join(str(x) for x in res.expected))
    print(f"characteristic polynomial matches: {res.charpoly_matches}")
    print(f"determinant: {res.det_value} (expected {res.det_expected})")
    return 0 if res.charpoly_matches and res.det_matches else 1


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        return int(lo_s), int(hi_s)
    value = int(text)
    return value, value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclosum",
        description="Exact verification of root-of-unity matrix identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification campaign")
    v.add_argument(
        "--identities",
        default=",".join(IDENTITY_IDS),
        help="comma-separated identity ids (default: all)",
    )
    v.add_argument("--n", required=True, metavar="LO..HI", help="inclusive n range")
    v.add_argument("--trials", type=int, default=CampaignConfig.trials)
    v.add_argument("--seed", type=int, default=CampaignConfig.seed)
    v.add_argument(
        "--tol",
        type=float,
        default=CampaignConfig.tol,
        help="float tolerance for the eigenvector-eigenvalue identity, the one "
        "identity judged in floating point",
    )
    v.add_argument(
        "--permanent-cap",
        type=int,
        default=CampaignConfig.permanent_cap,
        help="largest permanent dimension",
    )
    v.add_argument(
        "--enumeration-cap",
        type=int,
        default=CampaignConfig.enumeration_cap,
        help="largest l for the subset DPs",
    )
    v.add_argument(
        "--format", choices=("jsonl", "csv", "pretty"), default=CampaignConfig.format
    )
    v.add_argument("--output", default=None, help="output path (default: stdout)")
    v.add_argument("--jobs", type=int, default=None, help="worker processes")
    v.add_argument(
        "--timing",
        action="store_true",
        help="include each work item's elapsed milliseconds, also as an "
        "elapsed_ms column in --format pretty (breaks byte reproducibility)",
    )

    c = sub.add_parser("compute", help="exact computation on a matrix file")
    c.add_argument("kind", choices=("det", "per", "derangement-sums"))
    c.add_argument("matrix_file")
    c.add_argument(
        "--permanent-cap",
        type=int,
        default=PERMANENT_CAP,
        help="largest permanent dimension (per, derangement-sums); must be positive",
    )

    s = sub.add_parser("spectrum", help="exact spectrum checks against closed forms")
    s.add_argument("target", choices=("cp", "minor", "liu"))
    s.add_argument("--n", type=int, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "verify":
        try:
            n_range = _parse_range(args.n)
            identities = tuple(
                x.strip() for x in args.identities.split(",") if x.strip()
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        config = CampaignConfig(
            identities=identities,
            n_range=n_range,
            seed=args.seed,
            trials=args.trials,
            permanent_cap=args.permanent_cap,
            enumeration_cap=args.enumeration_cap,
            tol=args.tol,
            output=args.output,
            format=args.format,
            jobs=args.jobs,
            timing=args.timing,
        )
        return cmd_verify(config)
    if args.command == "compute":
        return cmd_compute(args.kind, args.matrix_file, permanent_cap=args.permanent_cap)
    return cmd_spectrum(args.target, args.n)


if __name__ == "__main__":
    sys.exit(main())
