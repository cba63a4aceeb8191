"""Each benchmark check accepts the right value and rejects a wrong one.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def record(identity, n, lhs, rhs, verdict="pass", **params):
    return {"identity_id": identity, "n": n, "parameters": params,
            "lhs": lhs, "rhs": rhs, "verdict": verdict, "notes": ""}


def test_closed_forms_from_first_principles():
    assert checks.full_permanent(6) == Fraction(225, 64)
    assert checks.minor_permanent(9) == Fraction(576, 9)
    assert checks.minor_determinant(7) == Fraction(-36, 7)
    assert checks.liu_determinant(7) == -36
    assert checks.cotangent_spectrum(4) == [-3, -1, 1, 3]


@pytest.mark.parametrize("identity,n,want", [
    ("eq1_1", 6, checks.full_permanent(6)),
    ("eq1_2", 7, checks.minor_permanent(7)),
    ("eq1_3", 9, checks.minor_determinant(9)),
])
def test_exact_closed_form_records(identity, n, want):
    assert checks.check_record(record(identity, n, str(want), str(want))) == []
    wrong = str(want + Fraction(1, n))
    assert checks.check_record(record(identity, n, wrong, str(want)))
    assert checks.check_record(record(identity, n, str(want), str(-want)))
    assert checks.check_record(record(identity, n, "n:[1/2]", str(want)))


@pytest.mark.parametrize("identity,n,closed_form", [
    ("eq1_1", 8, "full_permanent"),
    ("eq1_2", 7, "minor_permanent"),
    ("eq1_3", 11, "minor_determinant"),
    ("eq2_3_liu", 9, "liu_determinant"),
    ("eq2_4", 7, "cotangent_minor_charpoly_at"),
    ("thm2_1", 6, "cotangent_spectrum"),
])
def test_float_cross_checks_reject_a_wrong_closed_form(identity, n, closed_form, monkeypatch):
    assert not checks.statement_holds(identity, n)
    right = getattr(checks, closed_form)
    if closed_form == "cotangent_spectrum":
        monkeypatch.setattr(checks, closed_form, lambda n: [x + 1 for x in right(n)])
    else:
        monkeypatch.setattr(checks, closed_form, lambda *a: right(*a) * Fraction(101, 100))
    assert checks.statement_holds(identity, n)


def test_numpy_ryser_against_small_permanents():
    assert checks.ryser_permanent(np.ones((3, 3))) == pytest.approx(6)
    assert checks.ryser_permanent(np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(10)


def test_liu_record():
    n, det = 9, checks.liu_determinant(9)
    good = dict(expected_spectrum=checks.liu_spectrum(n), max_spectrum_deviation=1e-12, tol=1e-7)
    assert checks.check_record(record("eq2_3_liu", n, str(det), str(det), **good)) == []
    assert checks.check_record(record("eq2_3_liu", n, str(-det), str(det), **good))
    bad_spectrum = dict(good, expected_spectrum=list(range(1, n)))
    assert checks.check_record(record("eq2_3_liu", n, str(det), str(det), **bad_spectrum))
    drifted = dict(good, max_spectrum_deviation=8.5e-6)
    assert checks.check_record(record("eq2_3_liu", n, str(det), str(det), **drifted))
    nan = dict(good, max_spectrum_deviation=float("nan"))
    assert checks.check_record(record("eq2_3_liu", n, str(det), str(det), **nan))


def test_float_deviation_records():
    assert checks.check_record(record("eq2_4", 5, 1e-12, 0.0, tol=1e-6)) == []
    assert checks.check_record(record("eq2_4", 5, 2e-6, 0.0, tol=1e-6))
    ok = dict(eigenvector_residual=1e-14, tol=1e-8)
    assert checks.check_record(record("thm2_1", 5, 1e-14, 0.0, **ok)) == []
    assert checks.check_record(record("thm2_1", 5, 1e-6, 0.0, **ok))
    assert checks.check_record(record("thm2_1", 5, 1e-14, 0.0, **dict(ok, eigenvector_residual=1.0)))


def test_eei_records_recomputed_with_numpy():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = (a + a.conj().T) / 2
    worst, degenerate = checks.eei_worst_residual(a)
    assert worst < 1e-12 and degenerate == 0
    ok = dict(pairs=16, inconclusive_pairs=0, tol=1e-8)
    assert checks.check_record(record("eei", 4, 1e-14, 0.0, **ok), a) == []
    assert checks.check_record(record("eei", 4, 1e-3, 0.0, **ok), a)
    assert checks.check_record(record("eei", 4, 1e-14, 0.0, **dict(ok, pairs=12)), a)
    # A repeated eigenvalue makes every pair inconclusive, so a record that
    # judged those pairs is rejected.
    assert checks.check_record(record("eei", 4, 1e-14, 0.0, **ok), np.eye(4))


def test_cycle_sums_must_vanish():
    assert checks.check_record(record("lemma3_2", 5, "0", "0")) == []
    assert checks.check_record(record("lemma3_2", 5, "1/3", "0"))
    assert checks.check_record(record("eq3_1", 5, "0", "0")) == []
    assert checks.check_record(record("eq3_1", 5, "2", "2"))
    odd = dict(k=2, l=5)
    assert checks.check_record(record("thm3_1_odd", 7, "0", "0", **odd)) == []
    assert checks.check_record(record("thm3_1_odd", 7, "0", "1/7", **odd))
    assert checks.check_record(record("thm3_1_even", 6, "0", "0", k=2, l=4)) == []
    assert checks.check_record(record("thm3_1_even", 6, "-1", "0", k=2, l=4))


def test_no_verdict_may_fail():
    want = checks.minor_determinant(5)
    assert checks.check_record(record("eq1_3", 5, str(want), str(want), verdict="fail"))
    assert checks.check_record(record("eei", 3, 0.0, 0.0, verdict="inconclusive",
                                      pairs=9, inconclusive_pairs=9, tol=1e-8))


def campaign_records(lo, hi, trials, identities=checks.RANDOMIZED + ("eq1_3", "thm2_1")):
    out = []
    for ident in sorted(identities):
        for n in range(lo, hi + 1):
            if not checks.campaign_applies(ident, n):
                out.append(record(ident, n, "", "", verdict="skipped", trial=0))
                continue
            for t in range(trials if ident in checks.RANDOMIZED else 1):
                out.append(record(ident, n, "0", "0", trial=t))
    return out


def test_campaign_plan():
    idents = sorted(checks.RANDOMIZED + ("eq1_3", "thm2_1"))
    recs = campaign_records(2, 6, 2)
    assert checks.check_campaign(recs, idents, 2, 6, 2) == []
    assert checks.check_campaign(recs[:-1], idents, 2, 6, 2)
    assert checks.check_campaign(recs[::-1], idents, 2, 6, 2)
    skipped = [dict(r, verdict="skipped") if r["identity_id"] == "eq1_3" and r["n"] == 5
               else r for r in recs]
    assert checks.check_campaign(skipped, idents, 2, 6, 2)


def test_campaign_rejects_a_failed_or_inconclusive_verdict():
    wl = workloads.campaign(0, pkg=None)
    (op,) = wl.ops
    lo, hi = workloads.CAMPAIGN_N
    recs = campaign_records(lo, hi, workloads.CAMPAIGN_TRIALS, workloads.CAMPAIGN_IDENTITIES)
    assert wl.check_round([(op, recs, {"exit_code": 0})]) == []
    for verdict, code in (("fail", 1), ("inconclusive", 0)):
        bad = [dict(r, verdict=verdict) if (r["identity_id"], r["n"]) == ("eei", 5) else r
               for r in recs]
        assert wl.check_round([(op, bad, {"exit_code": code})])
    assert wl.check_round([(op, recs, {"exit_code": 1})])


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import cyclosum
        import cyclosum.cli  # noqa: F401
    finally:
        sys.path.remove(str(SRC))
    return cyclosum


def test_campaign_eei_matrix_is_the_campaigns_matrix():
    cyclosum = import_program()
    for seed, n, trial in ((0, 2, 0), (7, 9, 1)):
        rng = cyclosum.cli._child_rng(seed, "eei", n, trial)
        want = cyclosum.spectral.random_hermitian(n, rng).entries
        got = checks.campaign_eei_matrix(seed, n, trial)
        assert np.array_equal(got, want)
    assert not np.array_equal(checks.campaign_eei_matrix(0, 4, 0),
                              checks.campaign_eei_matrix(0, 4, 1))


def test_tracer_counts_repeat_and_uninstall_restores():
    cyclosum = import_program()
    from spans import Tracer

    originals = (cyclosum.identities.verify_eq1_3, cyclosum.matrices.det_exact,
                 cyclosum.exact.CycElem.__mul__)
    tracer = Tracer()
    tracer.install(cyclosum)
    try:
        counts = []
        for _ in range(2):
            tracer.reset()
            assert cyclosum.identities.verify_eq1_3(7).verdict == "pass"
            counts.append(tracer.metrics())
    finally:
        tracer.uninstall()
    assert (cyclosum.identities.verify_eq1_3, cyclosum.matrices.det_exact,
            cyclosum.exact.CycElem.__mul__) == originals
    first, second = counts
    assert first["matrices.det_exact.calls"] == 2
    assert first["exact.inverse.calls"] > 0 and first["exact.mul.calls"] > 0
    assert {k: v for k, v in first.items() if k.endswith(".calls")} == {
        k: v for k, v in second.items() if k.endswith(".calls")}
    assert 0 < first["identities.self_s"] < first["identities.eq1_3.s"]
