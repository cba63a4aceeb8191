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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from random import Random

import numpy as np

from .exact import cp_minor_determinant, cyc_context
from .identities import (
    IDENTITY_IDS,
    VerificationReport,
    random_distinct_rationals,
    verify_eei,
    verify_eq1_1,
    verify_eq1_2,
    verify_eq1_3,
    verify_eq2_3_liu,
    verify_eq2_4,
    verify_eq3_1,
    verify_lemma3_2,
    verify_thm2_1,
    verify_thm3_1,
)
from .matrices import (
    CapExceededError,
    build_cp_matrix,
    delete_rows_cols,
    derangement_sums,
    det_exact,
    load_matrix,
    permanent_ryser,
)
from .spectral import embed_matrix, herm_eigen, liu_spectrum_check

RANDOMIZED_IDS = frozenset({"lemma3_2", "eq3_1", "thm3_1_odd", "thm3_1_even", "eei"})


@dataclass(frozen=True)
class CampaignConfig:
    identities: tuple[str, ...]
    n_range: tuple[int, int]
    seed: int = 0
    trials: int = 5
    permanent_cap: int = 16
    enumeration_cap: int = 11
    tol: float = 1e-8
    output: str | None = None
    format: str = "jsonl"
    jobs: int | None = None
    timing: bool = False

    def validate(self) -> None:
        unknown = [i for i in self.identities if i not in IDENTITY_IDS]
        if unknown:
            raise ValueError(f"unknown identities: {', '.join(unknown)}")
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


def _thm3_1_valid_ks(n: int, want_odd_l: bool, cfg: CampaignConfig) -> list[int]:
    # derangement_sums takes the permanent route up to its cap and
    # enumerates beyond it up to the enumeration cap.
    cap = max(cfg.permanent_cap, cfg.enumeration_cap)
    ks = [0] + list(range(2, n))
    return [k for k in ks if (n - k) % 2 == (1 if want_odd_l else 0) and n - k <= cap]


def _skip_reason(identity: str, n: int, cfg: CampaignConfig) -> str | None:
    if identity == "eq1_1":
        if n < 2 or n % 2:
            return "needs even n >= 2"
        if n > cfg.permanent_cap:
            return f"dimension {n} exceeds permanent cap {cfg.permanent_cap}"
    elif identity == "eq1_2":
        if n < 3 or n % 2 == 0:
            return "needs odd n >= 3"
        if n - 1 > cfg.permanent_cap:
            return f"dimension {n - 1} exceeds permanent cap {cfg.permanent_cap}"
    elif identity in ("eq1_3", "eq2_3_liu"):
        if n < 3 or n % 2 == 0:
            return "needs odd n >= 3"
    elif identity in ("eq2_4", "thm2_1"):
        if n < 2:
            return "needs n >= 2"
    elif identity == "eei":
        if n < 1:
            return "needs n >= 1"
    elif identity == "lemma3_2":
        if n < 3:
            return "statement needs l > 2"
        if n > cfg.enumeration_cap:
            return f"l={n} exceeds enumeration cap {cfg.enumeration_cap}"
    elif identity == "eq3_1":
        if n < 3 or n % 2 == 0:
            return "needs odd l >= 3"
        if n > cfg.enumeration_cap:
            return f"l={n} exceeds enumeration cap {cfg.enumeration_cap}"
    elif identity == "thm3_1_odd":
        if not _thm3_1_valid_ks(n, True, cfg):
            return "no deletion size gives odd l within the cap"
    elif identity == "thm3_1_even":
        if not _thm3_1_valid_ks(n, False, cfg):
            return "no deletion size gives even l within the cap"
    return None


def _run_item(args: tuple) -> VerificationReport:
    """One work item's report; an exception becomes an "error" record."""
    identity, n, trial, cfg = args
    t0 = time.perf_counter()
    try:
        return _verify_item(identity, n, trial, cfg)
    except Exception as exc:
        sys.stderr.write(
            f"error: {identity} n={n} trial {trial}\n{traceback.format_exc()}"
        )
        return VerificationReport(
            identity,
            n,
            {"trial": trial},
            "",
            "",
            "error",
            (time.perf_counter() - t0) * 1e3,
            f"{type(exc).__name__}: {exc}",
        )


def _verify_item(
    identity: str, n: int, trial: int, cfg: CampaignConfig
) -> VerificationReport:
    permanent_cap, tol = cfg.permanent_cap, cfg.tol
    rng = _child_rng(cfg.seed, identity, n, trial)
    if identity == "eq1_1":
        return verify_eq1_1(n, permanent_cap=permanent_cap)
    if identity == "eq1_2":
        return verify_eq1_2(n, permanent_cap=permanent_cap)
    if identity == "eq1_3":
        return verify_eq1_3(n)
    if identity == "eq2_3_liu":
        return verify_eq2_3_liu(n, tol=tol)
    if identity == "eq2_4":
        return verify_eq2_4(n, tol=tol)
    if identity == "thm2_1":
        return verify_thm2_1(n, tol=tol)
    if identity == "eei":
        report = verify_eei(n, rng=rng, tol=tol)
    elif identity == "lemma3_2":
        report = verify_lemma3_2(n, random_distinct_rationals(n, rng))
    elif identity == "eq3_1":
        report = verify_eq3_1(n, random_distinct_rationals(n, rng))
    elif identity in ("thm3_1_odd", "thm3_1_even"):
        ks = _thm3_1_valid_ks(n, identity == "thm3_1_odd", cfg)
        k = 0 if trial == 0 and 0 in ks else ks[rng.randrange(len(ks))]
        deleted = sorted(rng.sample(range(1, n + 1), k))
        report = verify_thm3_1(
            n,
            deleted,
            permanent_cap=permanent_cap,
            enumeration_cap=cfg.enumeration_cap,
        )
    else:
        raise ValueError(f"unknown identity {identity!r}")
    return replace(report, parameters={"trial": trial, **report.parameters})


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
    reports: list[VerificationReport] = []
    work: list[tuple] = []
    for identity in config.identities:
        for n in range(lo, hi + 1):
            reason = _skip_reason(identity, n, config)
            if reason is not None:
                reports.append(
                    VerificationReport(
                        identity, n, {"trial": 0}, "", "", "skipped", 0.0, reason
                    )
                )
                continue
            trials = config.trials if identity in RANDOMIZED_IDS else 1
            for trial in range(trials):
                work.append((identity, n, trial, config))

    if jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports.extend(pool.map(_run_item, work))
    else:
        reports.extend(_run_item(w) for w in work)

    reports.sort(key=lambda r: (r.identity_id, r.n, r.parameters.get("trial", 0)))
    records = [r.to_json_dict(include_elapsed=config.timing) for r in reports]
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


def cmd_compute(
    kind: str,
    matrix_file: str,
    permanent_cap: int = 16,
    enumeration_cap: int = 11,
) -> int:
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
            sums = derangement_sums(
                m, enumeration_cap=enumeration_cap, permanent_cap=permanent_cap
            )
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


def cmd_spectrum(target: str, n: int, tol: float = 1e-8) -> int:
    try:
        _check_tol(tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if target in ("minor", "liu") and (n < 3 or n % 2 == 0):
        print(f"error: target {target!r} needs odd n >= 3", file=sys.stderr)
        return 2
    if n < 2:
        print("error: n must be >= 2", file=sys.stderr)
        return 2
    if target == "cp":
        dec = herm_eigen(embed_matrix(build_cp_matrix(cyc_context(n))))
        expected = [2 * i - n - 1 for i in range(1, n + 1)]
        deviation = float(
            max(abs(dec.eigenvalues[i] - expected[i]) for i in range(n))
        )
        print("computed:", " ".join(f"{x:.12g}" for x in dec.eigenvalues))
        print("expected:", " ".join(str(x) for x in expected))
    elif target == "minor":
        minor = delete_rows_cols(build_cp_matrix(cyc_context(n)), {n})
        dec = herm_eigen(embed_matrix(minor))
        product = float(np.prod(dec.eigenvalues))
        expected_det = float(cp_minor_determinant(n))
        deviation = abs(product - expected_det) / abs(expected_det)
        print("computed:", " ".join(f"{x:.12g}" for x in dec.eigenvalues))
        print(f"eigenvalue product: {product:.12g}")
        print(f"expected determinant: {expected_det:.12g}")
    else:
        res = liu_spectrum_check(n)
        print("expected:", " ".join(str(x) for x in res.expected))
        print(f"characteristic polynomial matches: {res.charpoly_matches}")
        print(f"determinant: {res.det_value} (expected {res.det_expected})")
        return 0 if res.charpoly_matches and res.det_matches else 1
    print(f"max deviation: {deviation:.3e}")
    return 0 if deviation <= tol else 1


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
    v.add_argument("--trials", type=int, default=5)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument(
        "--tol",
        type=float,
        default=1e-8,
        help="float tolerance for eei and thm2_1 (eq2_3_liu and eq2_4 are judged exactly)",
    )
    v.add_argument(
        "--permanent-cap",
        type=int,
        default=16,
        help="largest permanent dimension (eq1_1, eq1_2, thm3_1)",
    )
    v.add_argument(
        "--enumeration-cap",
        type=int,
        default=11,
        help="largest l enumerated (lemma3_2, eq3_1; thm3_1 beyond the permanent cap)",
    )
    v.add_argument("--format", choices=("jsonl", "csv", "pretty"), default="jsonl")
    v.add_argument("--output", default=None, help="output path (default: stdout)")
    v.add_argument("--jobs", type=int, default=None, help="worker processes")
    v.add_argument(
        "--timing",
        action="store_true",
        help="include elapsed milliseconds, also as an elapsed_ms column in "
        "--format pretty (breaks byte reproducibility)",
    )

    c = sub.add_parser("compute", help="exact computation on a matrix file")
    c.add_argument("kind", choices=("det", "per", "derangement-sums"))
    c.add_argument("matrix_file")
    c.add_argument("--permanent-cap", type=int, default=16)
    c.add_argument("--enumeration-cap", type=int, default=11)

    s = sub.add_parser("spectrum", help="spectrum checks against closed forms")
    s.add_argument("target", choices=("cp", "minor", "liu"))
    s.add_argument("--n", type=int, required=True)
    s.add_argument(
        "--tol",
        type=float,
        default=1e-8,
        help="float tolerance for cp and minor (liu is judged exactly)",
    )
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
        return cmd_compute(
            args.kind,
            args.matrix_file,
            permanent_cap=args.permanent_cap,
            enumeration_cap=args.enumeration_cap,
        )
    return cmd_spectrum(args.target, args.n, args.tol)


if __name__ == "__main__":
    sys.exit(main())
