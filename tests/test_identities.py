"""Tests for the verification operations and their reports."""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from random import Random

import numpy as np
import pytest

import cyclosum.identities
import cyclosum.spectral
from cyclosum.exact import cp_minor_determinant, cyc_context
from cyclosum.identities import (
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
from cyclosum.matrices import (
    build_cp_matrix,
    build_sun_matrix,
    delete_rows_cols,
    derangement_sums,
    det_exact,
    make_matrix,
)
from cyclosum.spectral import HermMatrix, eei_residual, embed_matrix, random_hermitian


# --- permanent of the full matrix ----------------------------------------------


@pytest.mark.parametrize(
    "n,value",
    [(2, "1/4"), (4, "9/16"), (6, "225/64")],
)
def test_full_permanent_closed_form(n, value):
    report = verify_eq1_1(n)
    assert report.verdict == "pass"
    assert report.lhs == value
    assert report.rhs == value
    assert report.identity_id == "eq1_1"


def test_full_permanent_rejects_odd_orders():
    with pytest.raises(ValueError):
        verify_eq1_1(5)


def test_full_permanent_records_determinant_cross_check():
    report = verify_eq1_1(4)
    assert report.parameters.get("det_cross_check") is True


# --- permanent of the minor -------------------------------------------------------


@pytest.mark.parametrize("n,value", [(3, "1/3"), (5, "4/5"), (7, "36/7")])
def test_minor_permanent_closed_form(n, value):
    report = verify_eq1_2(n)
    assert report.verdict == "pass"
    assert report.lhs == value == report.rhs
    assert report.parameters.get("deletions_agree") is True


def test_minor_permanent_rejects_even_orders():
    with pytest.raises(ValueError):
        verify_eq1_2(4)


# --- determinant of the minor -------------------------------------------------------


@pytest.mark.parametrize("n,value", [(3, "-1/3"), (5, "4/5"), (9, "64")])
def test_minor_determinant_closed_form(n, value):
    report = verify_eq1_3(n)
    assert report.verdict == "pass"
    assert report.lhs == value == report.rhs


def test_minor_determinant_consistency_chain():
    report = verify_eq1_3(7)
    assert report.parameters.get("scaling_chain") is True
    assert report.parameters.get("double_factorial_chain") is True
    assert report.parameters.get("deletions_agree") is True


def test_minor_determinant_scaling_consistency():
    # 2^(1-n) times the doubled-matrix minor determinant gives the same value.
    for n in range(3, 14, 2):
        report = verify_eq1_3(n)
        minor = delete_rows_cols(build_sun_matrix(cyc_context(n)), {n})
        assert det_exact(minor).as_rational() == Fraction(
            cp_minor_determinant(n)
        ) * Fraction(2) ** (1 - n)
        assert report.verdict == "pass"


def _recording(monkeypatch, name):
    """Replace identities.<name> by a wrapper that records the matrix of
    each call; returns the list it records into."""
    seen = []
    real = getattr(cyclosum.identities, name)

    def recorded(m, *args, **kwargs):
        seen.append(m)
        return real(m, *args, **kwargs)

    monkeypatch.setattr(cyclosum.identities, name, recorded)
    return seen


@pytest.mark.parametrize(
    "verify,kernel,calls",
    [(verify_eq1_2, "permanent_ryser", 1), (verify_eq1_3, "det_exact", 2)],
)
def test_minor_deletions_compared_by_value(monkeypatch, verify, kernel, calls):
    # The circulant matrix's two minors are equal entry for entry, so the
    # kernel runs once on them (eq1_3 also takes the cotangent minor's
    # determinant).  Off the circulant both minors are computed, and
    # deletions_agree follows their values.
    seen = _recording(monkeypatch, kernel)
    assert verify(7).parameters["deletions_agree"] is True
    assert len(seen) == calls

    def scaled_sun(scale):
        def build(ctx):
            rows = enumerate(build_sun_matrix(ctx).entries, 1)
            scaled = [[e * scale(j, k) for k, e in enumerate(row, 1)] for j, row in rows]
            return make_matrix(ctx, scaled)

        return build

    # Conjugating by diag(1..n) changes the entries but no principal minor's
    # value; doubling row 1 doubles the index-n minor's value only.
    similar, row_doubled = (lambda j, k: Fraction(j, k)), (lambda j, k: 1 + (j == 1))
    for scale, agree in ((similar, True), (row_doubled, False)):
        monkeypatch.setattr(cyclosum.identities, "build_sun_matrix", scaled_sun(scale))
        seen.clear()
        report = verify(7)
        assert len(seen) == calls + 1
        assert report.parameters["deletions_agree"] is agree
        assert report.verdict == ("pass" if agree else "fail")


# --- full-cycle sums ------------------------------------------------------------------


def test_cycle_sum_three_points():
    report = verify_lemma3_2(3, (Fraction(0), Fraction(1), Fraction(2)))
    assert report.verdict == "pass"
    assert report.lhs == "0"


def test_cycle_sum_two_points_fails_with_note():
    report = verify_lemma3_2(2, (Fraction(0), Fraction(1)))
    assert report.verdict == "fail"
    assert report.lhs == "-1"
    assert "l > 2" in report.notes


def test_cycle_sum_five_random_points():
    xs = random_distinct_rationals(5, Random(13))
    report = verify_lemma3_2(5, xs)
    assert report.verdict == "pass"
    assert report.parameters["classes"] == 6
    assert report.parameters["class_sums_vanish"] is True


def test_cycle_sum_scale_invariance():
    rng = Random(14)
    for l in range(3, 7):
        xs = random_distinct_rationals(l, rng)
        scaled = tuple(Fraction(3, 2) * x + 7 for x in xs)
        assert verify_lemma3_2(l, xs).verdict == "pass"
        assert verify_lemma3_2(l, scaled).verdict == "pass"


def test_cycle_sum_works_over_roots_of_unity():
    ctx = cyc_context(5)
    xs = tuple(ctx.zeta_pow(k) for k in range(5))
    report = verify_lemma3_2(5, xs)
    assert report.verdict == "pass"


def test_cycle_sum_input_validation():
    with pytest.raises(ValueError):
        verify_lemma3_2(3, (Fraction(1), Fraction(1), Fraction(2)))
    with pytest.raises(ValueError):
        verify_lemma3_2(1, (Fraction(1),))
    with pytest.raises(ValueError):
        verify_lemma3_2(3, (Fraction(1), Fraction(2)))


# --- even-sign derangement sums ----------------------------------------------------------


def test_partition_decomposition_three_points():
    report = verify_eq3_1(3, (Fraction(0), Fraction(1), Fraction(2)))
    assert report.verdict == "pass"
    assert report.lhs == "0" == report.rhs


def test_partition_decomposition_five_and_seven_points():
    rng = Random(15)
    for l in (5, 7):
        report = verify_eq3_1(l, random_distinct_rationals(l, rng))
        assert report.verdict == "pass"
        assert report.lhs == "0" == report.rhs


def test_partition_decomposition_lhs_is_the_even_derangement_class(monkeypatch):
    # The lhs is derangement_sums on W_jk = 1/(x_k - x_j); it must equal the
    # even class of that matrix by plain enumeration.
    seen = _recording(monkeypatch, "derangement_sums")
    rng = Random(23)
    for l in (3, 5, 7):
        xs = random_distinct_rationals(l, rng)
        seen.clear()
        report = verify_eq3_1(l, xs)
        (w,) = seen
        for j in range(1, l + 1):
            for k in range(1, l + 1):
                assert w.entry(j, k) == (0 if j == k else 1 / (xs[k - 1] - xs[j - 1]))
        assert report.lhs == str(derangement_sums(w, method="enumerate").even_class)


def test_partition_decomposition_fails_on_a_wrong_lhs(monkeypatch):
    real = cyclosum.identities.derangement_sums

    def off_by_one(m, *args, **kwargs):
        sums = real(m, *args, **kwargs)
        return dataclasses.replace(sums, even_class=sums.even_class + 1)

    monkeypatch.setattr(cyclosum.identities, "derangement_sums", off_by_one)
    report = verify_eq3_1(5, random_distinct_rationals(5, Random(3)))
    assert report.verdict == "fail"
    assert (report.lhs, report.rhs) == ("1", "0")


def test_partition_decomposition_rejects_even_orders():
    with pytest.raises(ValueError):
        verify_eq3_1(4, (Fraction(0), Fraction(1), Fraction(2), Fraction(3)))


# --- sign-class vanishing under deletion ---------------------------------------------------


def test_sign_classes_both_vanish_for_odd_remainder():
    report = verify_thm3_1(7, [2, 5])
    assert report.identity_id == "thm3_1_odd"
    assert report.verdict == "pass"
    assert report.lhs == "0" == report.rhs


def test_even_class_vanishes_for_order_six():
    report = verify_thm3_1(6, [])
    assert report.identity_id == "thm3_1_even"
    assert report.verdict == "pass"
    assert report.parameters["vanishing_class"] == "even"


def test_single_deletion_reports_sums_without_judgement():
    report = verify_thm3_1(5, [1])
    assert report.verdict == "inconclusive"
    assert report.parameters["odd_class"] == "0"
    assert report.parameters["even_class"] == "4/5"


def test_sign_class_deletion_validation():
    with pytest.raises(ValueError):
        verify_thm3_1(5, [0])
    with pytest.raises(ValueError):
        verify_thm3_1(5, [6])
    with pytest.raises(ValueError):
        verify_thm3_1(5, [1, 2, 3, 4, 5])


def test_sign_classes_transpose_invariant():
    # The derangement sums of a minor agree with those of its transpose.
    rng = Random(16)
    for n in range(4, 9):
        deleted = sorted(rng.sample(range(1, n + 1), rng.choice([0, 2])))
        minor = delete_rows_cols(build_sun_matrix(cyc_context(n)), set(deleted))
        transpose = make_matrix(minor.context, list(zip(*minor.entries)))
        assert derangement_sums(minor) == derangement_sums(transpose)


def test_vanishing_class_alternates_with_half_dimension():
    # Sign class with sign (-1)^(l/2+1) vanishes: odd class for l = 4, 8, ...
    assert verify_thm3_1(4, []).parameters["vanishing_class"] == "odd"
    assert verify_thm3_1(6, []).parameters["vanishing_class"] == "even"
    assert verify_thm3_1(8, []).parameters["vanishing_class"] == "odd"


# --- spectra -------------------------------------------------------------------------------


def test_integer_spectrum_reports():
    for n in (2, 5, 10):
        report = verify_thm2_1(n)
        assert report.verdict == "pass"
        assert float(report.lhs) <= 1e-8


def test_minor_spectra_identity_random_and_structured():
    report = verify_eei(5, rng=Random(99))
    assert report.verdict == "pass"
    assert report.parameters["pairs"] == 25
    structured = verify_eei(6, matrix=random_hermitian(6, Random(5)))
    assert structured.verdict in ("pass", "inconclusive")


def test_minor_spectra_identity_needs_a_source():
    with pytest.raises(ValueError):
        verify_eei(4)


def test_minor_spectra_identity_degenerate_is_inconclusive():
    report = verify_eei(3, matrix=HermMatrix.from_rows(np.eye(3)))
    assert report.verdict == "inconclusive"


def _eei_matrices():
    for dim in range(1, 8):
        yield random_hermitian(dim, Random(700 + dim))
    for n in range(2, 9):
        yield embed_matrix(build_cp_matrix(cyc_context(n)))
    yield HermMatrix.from_rows(np.eye(3))


def test_minor_spectra_identity_equals_per_pair_oracle():
    """verify_eei shares eigensolves across pairs; a loop over the per-pair
    eei_residual, which solves both spectra afresh for each pair, must give
    bit-identical numbers."""
    tol = 1e-8
    for matrix in _eei_matrices():
        d = matrix.dim
        worst, inconclusive = 0.0, 0
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                r = eei_residual(matrix, i, j)
                if r.conclusive:
                    worst = max(worst, r.residual)
                else:
                    inconclusive += 1
        if inconclusive == d * d:
            verdict = "inconclusive"
        else:
            verdict = "pass" if worst <= tol else "fail"
        report = verify_eei(d, matrix=matrix, tol=tol)
        assert report.lhs == worst
        assert report.parameters["inconclusive_pairs"] == inconclusive
        assert report.verdict == verdict


def test_minor_spectra_identity_solves_each_spectrum_once(monkeypatch):
    calls = []
    solve = cyclosum.spectral.herm_eigen

    def counting(m, *args, **kwargs):
        calls.append(m.dim)
        return solve(m, *args, **kwargs)

    monkeypatch.setattr(cyclosum.spectral, "herm_eigen", counting)
    for d in range(1, 7):
        calls.clear()
        verify_eei(d, rng=Random(d))
        assert len(calls) == (d + 1 if d >= 2 else 1)
        calls.clear()
        eei_residual(random_hermitian(d, Random(d)), 1, d)
        assert len(calls) == (2 if d >= 2 else 1)


def test_product_spectrum_reports():
    report = verify_eq2_3_liu(9)
    assert report.verdict == "pass"
    assert report.lhs == "576" == report.rhs
    assert report.parameters["max_spectrum_deviation"] == 0.0


@pytest.mark.parametrize("n", [19, 21])
def test_product_spectrum_passes_past_the_float_root_finder(n):
    # Float roots of this characteristic polynomial lose about 1e-5 at n=19
    # and do not converge at n=21; the exact comparison must still pass.
    report = verify_eq2_3_liu(n)
    assert report.verdict == "pass"
    assert report.lhs == report.rhs
    assert report.parameters["max_spectrum_deviation"] == 0.0


def test_product_spectrum_mismatch_fails_with_null_deviation(monkeypatch):
    exact_charpoly = cyclosum.spectral.charpoly_exact

    def off_by_one(m):
        coeffs = exact_charpoly(m)
        return [coeffs[0] + 1] + coeffs[1:]

    monkeypatch.setattr(cyclosum.spectral, "charpoly_exact", off_by_one)
    report = verify_eq2_3_liu(7)
    assert report.verdict == "fail"
    assert report.lhs == report.rhs
    assert report.parameters["max_spectrum_deviation"] is None


def test_interpolation_report_records_factor_discrepancy():
    report = verify_eq2_4(7)
    assert report.verdict == "pass"
    assert report.lhs == 0.0
    assert report.parameters["factor_ratio"] == str(2**7)
    assert report.parameters["printed_node_factor"] == "1/(2n)"
    assert report.parameters["derived_node_factor"] == "2^(n-1)/n"


@pytest.mark.parametrize("offset", [Fraction(1), Fraction(1, 10**30)])
def test_interpolation_mismatch_fails_exactly(monkeypatch, offset):
    # One coefficient off by 1 fails with a float deviation of about 1; one
    # off by 1e-30 is invisible in floats, where the deviation stays inside
    # the tolerance the float comparison used, and must fail as well.
    exact_charpoly = cyclosum.identities.charpoly_exact

    def off(m):
        coeffs = exact_charpoly(m)
        return [coeffs[0] + offset] + coeffs[1:]

    monkeypatch.setattr(cyclosum.identities, "charpoly_exact", off)
    report = verify_eq2_4(7, tol=1e-6)
    assert report.verdict == "fail"
    assert abs(report.lhs - float(offset)) < 1e-6


# --- report plumbing -------------------------------------------------------------------------


def test_identity_id_registry():
    assert "eq1_1" in IDENTITY_IDS
    assert len(set(IDENTITY_IDS)) == len(IDENTITY_IDS)
    for report_id in ("thm3_1_odd", "thm3_1_even", "eei", "eq2_3_liu"):
        assert report_id in IDENTITY_IDS


def test_report_serialization_field_order():
    report = verify_eq1_2(3)
    record = report.to_json_dict()
    assert list(record.keys()) == [
        "identity_id",
        "n",
        "parameters",
        "lhs",
        "rhs",
        "verdict",
        "notes",
    ]
    timed = report.to_json_dict(include_elapsed=True)
    assert list(timed.keys())[-1] == "elapsed"
    assert isinstance(timed["elapsed"], float)


def test_report_is_immutable():
    report = verify_eq1_2(3)
    with pytest.raises(Exception):
        report.verdict = "fail"
    assert isinstance(report, VerificationReport)


def test_random_distinct_rationals_properties():
    rng = Random(0)
    for l in (2, 5, 9):
        xs = random_distinct_rationals(l, rng)
        assert len(set(xs)) == l
        for x in xs:
            assert abs(x.numerator) <= 99 * 20
            assert 1 <= x.denominator <= 20
    assert random_distinct_rationals(4, Random(3)) == random_distinct_rationals(
        4, Random(3)
    )
