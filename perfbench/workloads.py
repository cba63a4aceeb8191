"""The three workloads: their inputs, made from the seed, and the calls
that run them.

Each operation calls a public cyclosum function by module attribute, at
call time, so that a traced run goes through the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

# The ROADMAP's fixed campaign; the seed is the benchmark's.
CAMPAIGN_N = (2, 9)
CAMPAIGN_TRIALS = 2
CAMPAIGN_IDENTITIES = (
    "eq1_1", "eq1_2", "eq1_3", "lemma3_2", "eq3_1", "thm3_1_odd",
    "thm3_1_even", "eq2_3_liu", "eq2_4", "thm2_1", "eei",
)

# Identity families of the exact workload, each with its n range.  eq1_3 is
# inverse-heavy (Gaussian elimination in Q(zeta_n)); eq1_1 and eq1_2 are
# multiply-heavy (Gray-code Ryser); eq2_4 and eq2_3_liu build exact
# characteristic polynomials.  eq2_3_liu stops at 19: the program's float
# root finder raises at 21 and turns NaN into a verdict at 23.  eq1_2 stops
# at 11 and the cotangent EEI below at 8 so that a run of each workload
# stays near 30 s on a 2-CPU host; eq1_1 at 14 keeps the multiply-heavy end.
EXACT = (
    ("det", "eq1_3", range(3, 26, 2)),
    ("permanent", "eq1_1", range(2, 15, 2)),
    ("permanent", "eq1_2", range(3, 12, 2)),
    ("charpoly", "eq2_4", range(3, 16, 2)),
    ("charpoly", "eq2_3_liu", range(3, 20, 2)),
)

# Spectral workload: random Hermitian matrices for the EEI, the structured
# cotangent matrices for the EEI, and thm2_1's one eigensolve per order.
RANDOM_DIMS = range(2, 10)
RANDOM_PER_DIM = 2
COTANGENT_EEI_N = range(2, 9)
THM2_1_N = range(2, 33)


@dataclass(frozen=True)
class Op:
    """One call into cyclosum.  ``call`` returns (records, extras): the
    verification records in their jsonl form, and facts about the call.
    ``matrix`` gives, for one of those records, the Hermitian matrix its
    EEI residuals are recomputed on, or None."""

    label: str
    family: str
    call: Callable[[], tuple[list[dict], dict]]
    matrix: Callable[[dict], np.ndarray | None] = lambda record: None


def _no_round_check(results) -> list[str]:
    return []


@dataclass(frozen=True)
class Workload:
    """The operations of one round.  ``check_round`` takes the round's
    (op, records, extras) triples and returns problems that no single
    record shows."""

    ops: list[Op]
    check_round: Callable[[list[tuple[Op, list[dict], dict]]], list[str]] = _no_round_check


def _report(fn, *args, **kwargs) -> tuple[list[dict], dict]:
    return [fn(*args, **kwargs).to_json_dict()], {}


def campaign(seed: int, pkg) -> Workload:
    lo, hi = CAMPAIGN_N
    argv = ["verify", "--n", f"{lo}..{hi}", "--trials", str(CAMPAIGN_TRIALS),
            "--seed", str(seed), "--jobs", "1"]

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pkg.cli.main(argv)
        text = buf.getvalue()
        records = [json.loads(line) for line in text.splitlines()]
        return records, {"exit_code": code,
                         "sha256": hashlib.sha256(text.encode()).hexdigest()}

    def check_round(results):
        (_, records, extras), = results
        if "exit_code" not in extras:
            return []  # the call raised: a failed operation, not judged
        out = checks.check_campaign(records, list(CAMPAIGN_IDENTITIES), lo, hi, CAMPAIGN_TRIALS)
        # Every statement of the campaign holds and no random EEI matrix
        # has a degenerate spectrum, so no verdict may be anything but a
        # pass or a planned skip.
        out += [f"{r['identity_id']} n={r['n']}: campaign verdict {r['verdict']!r}"
                for r in records if r["verdict"] in ("fail", "inconclusive")]
        failing = any(r["verdict"] == "fail" for r in records)
        if extras["exit_code"] != (1 if failing else 0):
            out.append(f"campaign exit code {extras['exit_code']}")
        return out

    def matrix(record):
        if record["identity_id"] != "eei":
            return None
        return checks.campaign_eei_matrix(seed, record["n"], record["parameters"]["trial"])

    op = Op("cyclosum " + " ".join(argv), "campaign", call, matrix)
    return Workload([op], check_round)


def exact(seed: int, pkg) -> Workload:
    ids = pkg.identities
    ops = []
    for family, ident, ns in EXACT:
        for n in ns:
            ops.append(Op(f"{ident} n={n}", family,
                          lambda ident=ident, n=n: _report(getattr(ids, f"verify_{ident}"), n)))
    random.Random(seed).shuffle(ops)
    return Workload(ops)


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    """A GUE-like matrix: complex Gaussian entries, Hermitian part."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def spectral(seed: int, pkg) -> Workload:
    ids, sp, mx, ex = pkg.identities, pkg.spectral, pkg.matrices, pkg.exact
    rng = np.random.default_rng(seed)
    ops = []
    for d in RANDOM_DIMS:
        for k in range(RANDOM_PER_DIM):
            a = random_hermitian(rng, d)
            h = sp.HermMatrix.from_rows(a)
            ops.append(Op(f"eei random d={d} #{k}", "eei",
                          lambda d=d, h=h: _report(ids.verify_eei, d, matrix=h),
                          lambda record, a=a: a))
    for n in COTANGENT_EEI_N:
        def call(n=n):
            h = sp.embed_matrix(mx.build_cp_matrix(ex.cyc_context(n)))
            return _report(ids.verify_eei, n, matrix=h)
        ops.append(Op(f"eei cotangent n={n}", "eei", call,
                      lambda record, a=checks.cotangent_matrix(n): a))
    for n in THM2_1_N:
        ops.append(Op(f"thm2_1 n={n}", "spectrum",
                      lambda n=n: _report(ids.verify_thm2_1, n)))
    random.Random(seed).shuffle(ops)
    return Workload(ops)


WORKLOADS = {"campaign": campaign, "exact": exact, "spectral": spectral}
