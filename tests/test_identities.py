"""Tests for the verification operations and their reports."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest

import cyclosum.identities
import cyclosum.matrices
import cyclosum.spectral
from cyclosum.combinatorics import full_cycles, partitions_min2
from cyclosum.exact import cp_minor_determinant, cyc_context
from cyclosum.identities import (
    IDENTITY_IDS,
    VerificationReport,
    _block_cycle_sums,
    _insertion_table,
    _odd_partition_sum,
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
from oracles import derangement_sums_enumerated


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
def test_minor_deletions_compared_entry_for_entry(monkeypatch, verify, kernel, calls):
    # The circulant matrix's two minors are equal entry for entry, so the
    # kernel runs once on them (eq1_3 also takes the cotangent minor's
    # determinant).  Minors that differ in an entry disagree, even where
    # their values are equal, and the second minor is never computed.
    seen = _recording(monkeypatch, kernel)
    assert verify(7).parameters["deletions_agree"] is True
    assert len(seen) == calls

    def scaled_sun(scale):
        def build(ctx):
            rows = enumerate(build_sun_matrix(ctx).entries, 1)
            scaled = [[e * scale(j, k) for k, e in enumerate(row, 1)] for j, row in rows]
            return make_matrix(ctx, scaled)

        return build

    def scaled_pair(scale):
        # verify_eq1_3 builds the sun matrix together with twice it
        def build(ctx):
            sun = scaled_sun(scale)(ctx)
            return sun, make_matrix(ctx, [[2 * e for e in row] for row in sun.entries])

        return build

    # Conjugating by diag(1..n) changes the entries but no principal minor's
    # value, so it fails on the deletions alone; doubling row 1 doubles the
    # index-n minor's value only.
    similar, row_doubled = (lambda j, k: Fraction(j, k)), (lambda j, k: 1 + (j == 1))
    for scale in (similar, row_doubled):
        monkeypatch.setattr(cyclosum.identities, "build_sun_matrix", scaled_sun(scale))
        monkeypatch.setattr(cyclosum.identities, "build_sun_and_cp_matrices", scaled_pair(scale))
        seen.clear()
        report = verify(7)
        assert len(seen) == calls
        assert report.parameters["deletions_agree"] is False
        assert report.verdict == "fail"


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


def _cycle_term(xs, mapping):
    """prod_j 1/(x_{tau(j)} - x_j), the enumeration oracle's summand."""
    prod = Fraction(1)
    for j, v in enumerate(mapping, start=1):
        prod = prod / (xs[v - 1] - xs[j - 1])
    return prod


def _full_cycle_sum(ys):
    return sum((_cycle_term(ys, c.mapping) for c in full_cycles(len(ys))), Fraction(0))


def _cyclic_order_after_one(mapping):
    """The cyclic order on {2..l} a full cycle leaves once label 1 is
    skipped, read from 2."""
    order = [2]
    cur = mapping[1]
    while cur != 2:
        if cur != 1:
            order.append(cur)
        cur = mapping[cur - 1]
    return tuple(order)


def test_block_cycle_sums_equal_full_cycle_enumeration():
    rng = Random(31)
    cases = [(Fraction(0), Fraction(1))]
    cases += [random_distinct_rationals(l, rng) for l in range(2, 9)]
    for xs in cases:
        l = len(xs)
        sums = _block_cycle_sums(xs)
        assert sorted(sums) == [m for m in range(1 << l) if m.bit_count() >= 2]
        for mask, value in sums.items():
            ys = [x for i, x in enumerate(xs) if mask >> i & 1]
            assert value == _full_cycle_sum(ys), (xs, mask)
    assert _block_cycle_sums(cases[0]) == {0b11: Fraction(-1)}


def test_insertion_class_sums_equal_scaled_table_sums():
    # Each class sum, by enumeration, is W(c) times the table's sum over
    # the edges of its cyclic order c.
    rng = Random(32)
    for l in range(3, 9):
        xs = random_distinct_rationals(l, rng)
        classes = {}
        for tau in full_cycles(l):
            key = _cyclic_order_after_one(tau.mapping)
            classes[key] = classes.get(key, Fraction(0)) + _cycle_term(xs, tau.mapping)
        assert len(classes) == math.factorial(l - 2)
        table = _insertion_table(xs)
        for order, class_sum in classes.items():
            edges = list(zip(order, order[1:] + order[:1]))
            weight = math.prod(Fraction(1) / (xs[b - 1] - xs[a - 1]) for a, b in edges)
            assert weight
            assert class_sum == weight * sum(table[edge] for edge in edges)
        report = verify_lemma3_2(l, xs)
        assert report.parameters["classes"] == len(classes)
        assert report.parameters["class_sums_vanish"] is True


def test_cycle_sum_fails_on_one_wrong_table_entry(monkeypatch):
    real = cyclosum.identities._insertion_table

    def one_wrong(xs):
        table = real(xs)
        table[3, 2] += 1
        return table

    monkeypatch.setattr(cyclosum.identities, "_insertion_table", one_wrong)
    report = verify_lemma3_2(5, random_distinct_rationals(5, Random(33)))
    assert report.verdict == "fail"
    assert report.parameters["class_sums_vanish"] is False
    assert report.lhs == "0"


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
        assert report.lhs == str(derangement_sums_enumerated(w).even_class)


def test_partition_decomposition_fails_on_a_wrong_lhs(monkeypatch):
    real = cyclosum.identities.derangement_sums

    def off_by_one(m, *args, **kwargs):
        sums = real(m, *args, **kwargs)
        return dataclasses.replace(sums, even_class=sums.even_class + 1)

    monkeypatch.setattr(cyclosum.identities, "derangement_sums", off_by_one)
    report = verify_eq3_1(5, random_distinct_rationals(5, Random(3)))
    assert report.verdict == "fail"
    assert (report.lhs, report.rhs) == ("1", "0")


def test_odd_partition_sum_equals_partition_enumeration():
    # Arbitrary nonzero block values, so that a dropped or doubled block
    # shows in the sum and not only in the count.
    rng = Random(34)
    for l in range(0, 9):
        f = {
            m: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
            for m in range(1 << l)
            if m.bit_count() >= 2
        }
        total, count = Fraction(0), 0
        for part in partitions_min2(l, "odd"):
            count += 1
            total += math.prod(f[sum(1 << (j - 1) for j in b)] for b in part.blocks)
        assert _odd_partition_sum(f, l) == (total, count), l


def test_partition_decomposition_rhs_equals_partition_enumeration():
    rng = Random(35)
    for l in (3, 5, 7):
        xs = random_distinct_rationals(l, rng)
        rhs, count = Fraction(0), 0
        for part in partitions_min2(l, "odd"):
            count += 1
            rhs += math.prod(
                _full_cycle_sum([xs[j - 1] for j in block]) for block in part.blocks
            )
        report = verify_eq3_1(l, xs)
        assert report.rhs == str(rhs)
        assert report.parameters["partitions"] == count


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
        assert report.lhs == 0.0
        assert report.parameters["eigenvector_residual"] == 0.0


def test_integer_spectrum_fails_on_an_eigenvalue_off_by_one(monkeypatch):
    real = cyclosum.spectral.cp_eigenvalues

    def off_by_one(n):
        lam = real(n)
        lam[2] += 1
        return lam

    monkeypatch.setattr(cyclosum.spectral, "cp_eigenvalues", off_by_one)
    report = verify_thm2_1(6)
    assert report.verdict == "fail"
    assert report.lhs == 1
    assert report.parameters["eigenvector_residual"] is None
    assert "failing columns [3]" in report.notes


def test_integer_spectrum_fails_on_a_wrong_eigenvector(monkeypatch):
    # Mutations of the route: eigenvalues paired with the wrong
    # eigenvectors, and a matrix that is no longer circulant.
    real_eigenvalues = cyclosum.spectral._circulant_eigenvalues
    real_matrix = cyclosum.spectral.build_cp_matrix

    def check(failing):
        report = verify_thm2_1(5)
        assert report.verdict == "fail"
        assert report.lhs == len(failing)
        assert report.parameters["eigenvector_residual"] is None
        assert f"failing columns {failing}" in report.notes

    def swapped(ctx, t):
        # Column i reads lambda_(-i mod 5): columns 1 and 2 then meet each
        # other's eigenvalue.
        lam = real_eigenvalues(ctx, t)
        lam[4], lam[3] = lam[3], lam[4]
        return lam

    monkeypatch.setattr(cyclosum.spectral, "_circulant_eigenvalues", swapped)
    check([1, 2])
    monkeypatch.setattr(cyclosum.spectral, "_circulant_eigenvalues", real_eigenvalues)

    def one_entry(ctx):
        # Off row 0, so row 0 still holds the true cotangent row.
        m = real_matrix(ctx)
        rows = [list(row) for row in m.entries]
        rows[2][4] = rows[2][4] + 1
        return dataclasses.replace(m, entries=tuple(map(tuple, rows)))

    monkeypatch.setattr(cyclosum.spectral, "build_cp_matrix", one_entry)
    check([1, 2, 3, 4, 5])


def test_integer_spectrum_makes_no_matrix_product(monkeypatch):
    calls = []
    product = cyclosum.matrices.matmul

    def counting(a, b):
        calls.append(a.dim)
        return product(a, b)

    for module in (cyclosum.matrices, cyclosum.spectral, cyclosum.identities):
        if hasattr(module, "matmul"):
            monkeypatch.setattr(module, "matmul", counting)
    assert verify_thm2_1(32).verdict == "pass"
    assert calls == []


def test_integer_spectrum_makes_no_eigensolve(monkeypatch):
    calls = []
    solve = cyclosum.spectral.herm_eigen

    def counting(m, *args, **kwargs):
        calls.append(m.dim)
        return solve(m, *args, **kwargs)

    monkeypatch.setattr(cyclosum.spectral, "herm_eigen", counting)
    for n in (2, 5, 10):
        assert verify_thm2_1(n).verdict == "pass"
    assert calls == []


def test_minor_spectra_identity_random_and_structured():
    report = verify_eei(5, rng=Random(99))
    assert report.verdict == "pass"
    assert report.parameters["pairs"] == 25
    structured = verify_eei(6, matrix=random_hermitian(6, Random(5)))
    assert structured.verdict in ("pass", "inconclusive")


def test_minor_spectra_identity_records_its_source():
    rng_only = verify_eei(4, rng=Random(1))
    matrix = random_hermitian(4, Random(2))
    both = verify_eei(4, rng=Random(1), matrix=matrix)
    assert rng_only.parameters["source"] == "random"
    assert both.parameters["source"] == "supplied"
    assert both == verify_eei(4, matrix=matrix)


def test_minor_spectra_identity_needs_a_source():
    with pytest.raises(ValueError):
        verify_eei(4)


def test_minor_spectra_identity_degenerate_is_inconclusive():
    report = verify_eei(3, matrix=HermMatrix.from_rows(np.eye(3)))
    assert report.verdict == "inconclusive"


def test_minor_spectra_identity_overflow_is_inconclusive():
    # At this scale the eigenvalue-gap products overflow and every residual
    # is NaN; a NaN residual must count as inconclusive, not vanish into a
    # pass with lhs 0.0.
    matrix = HermMatrix.from_rows(random_hermitian(9, Random(1)).entries * 1e40)
    with np.errstate(over="ignore", invalid="ignore"):
        report = verify_eei(9, matrix=matrix)
        pair = eei_residual(matrix, 1, 1)
    assert report.verdict == "inconclusive"
    assert report.parameters["inconclusive_pairs"] == 81
    assert not math.isfinite(pair.residual) and not pair.conclusive


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


def _perturb_charpoly(monkeypatch, index):
    # liu reads the product's polynomial through _twisted_charpoly.
    twisted_charpoly = cyclosum.spectral._twisted_charpoly

    def off_by_one(m):
        coeffs = list(twisted_charpoly(m))
        coeffs[index] = coeffs[index] + 1
        return coeffs

    monkeypatch.setattr(cyclosum.spectral, "_twisted_charpoly", off_by_one)


def test_product_spectrum_mismatch_fails_with_null_deviation(monkeypatch):
    # Coefficient 1 carries the spectrum but not the determinant.
    _perturb_charpoly(monkeypatch, 1)
    report = verify_eq2_3_liu(7)
    assert report.verdict == "fail"
    assert report.lhs == report.rhs
    assert report.parameters["max_spectrum_deviation"] is None


def test_product_determinant_is_the_constant_coefficient(monkeypatch):
    # The determinant is read off coefficient 0, so perturbing it fails
    # both the spectrum and the determinant.
    _perturb_charpoly(monkeypatch, 0)
    report = verify_eq2_3_liu(7)
    assert report.verdict == "fail"
    assert report.lhs != report.rhs
    assert report.parameters["max_spectrum_deviation"] is None


def test_product_check_fails_when_the_sun_matrix_is_not_circulant(monkeypatch):
    # One entry off inside the minor: the lemma does not apply, and the
    # check must fail rather than read a polynomial it did not prove.
    ctx = cyc_context(7)
    rows = [list(row) for row in build_sun_matrix(ctx).entries]
    rows[3][1] = rows[3][1] + 1
    near = make_matrix(ctx, rows)
    assert cyclosum.matrices._circulant_row(near) is None
    assert cyclosum.spectral._twisted_charpoly(near) is None
    monkeypatch.setattr(cyclosum.spectral, "build_sun_matrix", lambda _ctx: near)
    report = verify_eq2_3_liu(7)
    assert report.verdict == "fail"
    assert report.lhs != report.rhs
    assert report.parameters["max_spectrum_deviation"] is None


def test_characteristic_polynomials_make_no_matrix_product(monkeypatch):
    # eq2_4 and eq2_3_liu read their polynomials off the circulant
    # spectrum; Faddeev-LeVerrier would call the packed product d times.
    calls = []
    packed = cyclosum.matrices._matmul_ints

    def counting(ctx, a, b):
        calls.append(len(a))
        return packed(ctx, a, b)

    monkeypatch.setattr(cyclosum.matrices, "_matmul_ints", counting)
    assert verify_eq2_4(15).verdict == "pass"
    assert verify_eq2_3_liu(19).verdict == "pass"
    assert calls == []


def test_interpolation_report_records_factor_discrepancy():
    report = verify_eq2_4(7)
    assert report.verdict == "pass"
    assert report.lhs == 0.0
    assert report.parameters["factor_ratio"] == str(2**7)
    assert report.parameters["printed_node_factor"] == "1/(2n)"
    assert report.parameters["derived_node_factor"] == "2^(n-1)/n"


@pytest.mark.parametrize("offset", [Fraction(1), Fraction(1, 10**30)])
def test_interpolation_mismatch_fails_exactly(monkeypatch, offset):
    # One coefficient off by 1 and one off by 1e-30, which is invisible in
    # floats, both fail, and lhs counts the one mismatching coefficient.
    exact_charpoly = cyclosum.identities.charpoly_exact

    def off(m):
        coeffs = exact_charpoly(m)
        return [coeffs[0] + offset] + coeffs[1:]

    monkeypatch.setattr(cyclosum.identities, "charpoly_exact", off)
    report = verify_eq2_4(7)
    assert report.verdict == "fail"
    assert report.lhs == 1.0
    assert report.notes.startswith("lhs counts the coefficients")


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
