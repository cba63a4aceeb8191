"""Tests for exact matrix construction, determinants, permanents, and
derangement sums."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import permutations
from random import Random

import pytest

from cyclosum.exact import cyc_context
from cyclosum.matrices import (
    CapExceededError,
    build_cp_matrix,
    build_sun_and_cp_matrices,
    build_sun_matrix,
    charpoly_exact,
    delete_rows_cols,
    derangement_sums,
    det_exact,
    load_matrix,
    make_matrix,
    matmul,
    matrix_from_json,
    matrix_to_json,
    permanent_ryser,
    save_matrix,
)
from oracles import (
    derangement_sums_enumerated,
    identity_matrix,
    leibniz_det,
    permanent_naive,
    random_element,
)


def random_matrix(n: int, dim: int, rng: Random, max_numerator: int = 3):
    ctx = cyc_context(n)
    rows = [
        [random_element(ctx, rng, max_numerator=max_numerator, max_denominator=3)
         for _ in range(dim)]
        for _ in range(dim)
    ]
    return make_matrix(ctx, rows)


# --- builders -------------------------------------------------------------------


def test_reciprocal_difference_matrix_order_two():
    m = build_sun_matrix(cyc_context(2))
    half = Fraction(1, 2)
    assert m.entry(1, 1) == 0 and m.entry(2, 2) == 0
    assert m.entry(1, 2) == half and m.entry(2, 1) == half


def test_off_diagonal_entries_pair_to_one():
    # 1/(1-y) + 1/(1-1/y) = 1 pairs entry(j,k) with entry(k,j).
    for n in range(2, 21):
        m = build_sun_matrix(cyc_context(n))
        for j in range(1, n + 1):
            assert m.entry(j, j) == 0
            for k in range(j + 1, n + 1):
                assert m.entry(j, k) + m.entry(k, j) == 1


def test_entries_depend_only_on_index_difference():
    m = build_sun_matrix(cyc_context(7))
    for j in range(1, 8):
        for k in range(1, 8):
            if j != k and j + 1 <= 7 and k + 1 <= 7:
                assert m.entry(j, k) == m.entry(j + 1, k + 1)


def test_entry_embeds_to_cotangent_form():
    m = build_sun_matrix(cyc_context(3))
    got = m.entry(2, 1).to_complex()
    want = 0.5 * (1 + 1j / math.tan(math.pi / 3))
    assert abs(got - want) < 1e-12
    assert abs(m.entry(1, 2).to_complex() - want.conjugate()) < 1e-12


def test_doubled_matrix_is_twice_base():
    for n in (2, 3, 4, 9):
        ctx = cyc_context(n)
        base = build_sun_matrix(ctx)
        doubled = build_cp_matrix(ctx)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                assert doubled.entry(j, k) == 2 * base.entry(j, k)


def test_sun_and_cp_matrices_from_one_set_of_inverses():
    for n in (2, 3, 4, 9):
        ctx = cyc_context(n)
        sun, cp = build_sun_and_cp_matrices(ctx)
        assert sun == build_sun_matrix(ctx) and cp == build_cp_matrix(ctx)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                assert cp.entry(j, k) == 2 * sun.entry(j, k)


def test_doubled_matrix_embeds_hermitian():
    m = build_cp_matrix(cyc_context(3))
    a12 = m.entry(1, 2).to_complex()
    a21 = m.entry(2, 1).to_complex()
    assert abs(a21 - a12.conjugate()) < 1e-12


def test_doubled_matrix_entry_value_order_four():
    # 1 + i*cot(-pi/4) = 1 - i at indices (1,2).
    got = build_cp_matrix(cyc_context(4)).entry(1, 2).to_complex()
    assert abs(got - (1 - 1j)) < 1e-12


# --- deletion --------------------------------------------------------------------


def test_delete_last_index_order_three():
    ctx = cyc_context(3)
    m = build_sun_matrix(ctx)
    minor = delete_rows_cols(m, {3})
    assert minor.dim == 2
    assert minor.entry(1, 1) == 0 and minor.entry(2, 2) == 0
    assert minor.entry(1, 2) == (1 - ctx.zeta_pow(-1)).inverse()
    assert minor.entry(2, 1) == (1 - ctx.zeta_pow(1)).inverse()


def test_delete_nothing_is_identity_operation():
    m = build_sun_matrix(cyc_context(4))
    assert delete_rows_cols(m, set()).entries == m.entries


def test_deleted_entries_keep_original_differences():
    m = build_sun_matrix(cyc_context(7))
    minor = delete_rows_cols(m, {2, 5})
    kept = [1, 3, 4, 6, 7]
    assert minor.dim == 5
    for a in range(5):
        for b in range(5):
            assert minor.entry(a + 1, b + 1) == m.entry(kept[a], kept[b])


def test_delete_rejects_bad_sets():
    m = build_sun_matrix(cyc_context(3))
    with pytest.raises(ValueError):
        delete_rows_cols(m, {0})
    with pytest.raises(ValueError):
        delete_rows_cols(m, {4})
    with pytest.raises(ValueError):
        delete_rows_cols(m, {1, 2, 3})


# --- diagonal twist matrices -------------------------------------------------------


def twist(ctx, s):
    """B_s = diag(1 - zeta^(i*s)) for i = 1..n-1."""
    n = ctx.n
    return make_matrix(ctx, [
        [1 - ctx.zeta_pow(i * s) if i == k else 0 for k in range(1, n)]
        for i in range(1, n)
    ])


def test_twist_diagonal_order_three():
    ctx = cyc_context(3)
    b = twist(ctx, 1)
    assert b.dim == 2
    assert b.entry(1, 1) == 1 - ctx.zeta_pow(1)
    assert b.entry(2, 2) == 1 - ctx.zeta_pow(2)
    assert b.entry(1, 2) == 0


def test_twist_determinant_is_the_order():
    # prod_{i=1}^{n-1} (1 - zeta^i) = n.
    assert det_exact(twist(cyc_context(5), 1)) == 5


def test_twist_negative_shift_conjugates():
    ctx = cyc_context(5)
    plus = twist(ctx, 1)
    minus = twist(ctx, -1)
    for i in range(1, 5):
        assert minus.entry(i, i) == plus.entry(i, i).conjugate()


# --- products ----------------------------------------------------------------------


def test_identity_is_neutral():
    m = build_sun_matrix(cyc_context(4))
    eye = identity_matrix(m.context, 4)
    assert matmul(m, eye).entries == m.entries
    assert matmul(eye, m).entries == m.entries


def test_minor_times_twist_determinant_order_three():
    ctx = cyc_context(3)
    minor = delete_rows_cols(build_sun_matrix(ctx), {3})
    prod = matmul(minor, twist(ctx, 1))
    assert det_exact(prod) == -1


def test_diagonal_product():
    ctx = cyc_context(7)
    a = make_matrix(ctx, [[2, 0], [0, 3]])
    b = make_matrix(ctx, [[5, 0], [0, ctx.zeta_pow(1)]])
    prod = matmul(a, b)
    assert prod.entry(1, 1) == 10
    assert prod.entry(2, 2) == 3 * ctx.zeta_pow(1)
    assert prod.entry(1, 2) == 0


def test_matmul_rejects_mismatches():
    a = build_sun_matrix(cyc_context(3))
    with pytest.raises(ValueError):
        matmul(a, build_sun_matrix(cyc_context(4)))
    with pytest.raises(Exception):
        matmul(a, identity_matrix(cyc_context(4), 3))


# --- determinants -------------------------------------------------------------------


def test_minor_determinant_small_odd_orders():
    for n, expected in ((3, Fraction(-1, 3)), (5, Fraction(4, 5))):
        minor = delete_rows_cols(build_sun_matrix(cyc_context(n)), {n})
        assert det_exact(minor) == expected


def test_identity_determinant():
    for k in (1, 2, 5):
        assert det_exact(identity_matrix(cyc_context(6), k)) == 1


def test_singular_matrix_determinant():
    ctx = cyc_context(5)
    m = make_matrix(ctx, [[1, 2], [2, 4]])
    assert det_exact(m) == 0


def test_determinant_matches_leibniz_expansion():
    rng = Random(1021)
    for dim in range(1, 6):
        for n in (2, 3, 5):
            m = random_matrix(n, dim, rng)
            assert det_exact(m) == leibniz_det(m)


def test_determinant_transpose_invariance():
    rng = Random(77)
    for dim in (2, 4, 6):
        m = random_matrix(4, dim, rng)
        transpose = make_matrix(m.context, list(zip(*m.entries)))
        assert det_exact(transpose) == det_exact(m)


def test_twisted_product_determinant_scales_by_order():
    # det(B_s) = n whenever gcd(s, n) = 1, so det(M B_s) = n det(M).
    for n, s in ((3, 1), (5, 2), (7, -3), (9, 2), (11, 4), (13, 5)):
        ctx = cyc_context(n)
        minor = delete_rows_cols(build_sun_matrix(ctx), {n})
        twisted = matmul(minor, twist(ctx, s))
        assert det_exact(twisted) == n * det_exact(minor)


# --- permanents ----------------------------------------------------------------------


def test_permanent_of_identity():
    assert permanent_ryser(identity_matrix(cyc_context(3), 3)) == 1


def test_permanent_two_by_two():
    m = make_matrix(cyc_context(2), [[1, 2], [3, 4]])
    assert permanent_ryser(m) == 10
    assert permanent_naive(m) == 10


def test_permanent_order_two_closed_form():
    assert permanent_ryser(build_sun_matrix(cyc_context(2))) == Fraction(1, 4)


def test_permanent_of_all_ones():
    m = make_matrix(cyc_context(2), [[1] * 4 for _ in range(4)])
    assert permanent_naive(m) == 24


def test_permanent_of_diagonal():
    ctx = cyc_context(5)
    a, b = ctx.zeta_pow(1), 3 + ctx.zeta_pow(2)
    assert permanent_naive(make_matrix(ctx, [[a, 0], [0, b]])) == a * b


def test_permanent_routes_agree():
    rng = Random(40)
    m4 = build_sun_matrix(cyc_context(4))
    assert permanent_naive(m4) == permanent_ryser(m4)
    for dim in range(1, 8):
        m = random_matrix(3, dim, rng, max_numerator=2)
        assert permanent_ryser(m) == permanent_naive(m)


def test_permanent_transpose_invariance():
    rng = Random(41)
    for dim in (2, 5, 7):
        m = random_matrix(2, dim, rng)
        transpose = make_matrix(m.context, list(zip(*m.entries)))
        assert permanent_ryser(transpose) == permanent_ryser(m)


def test_permanent_caps():
    big = identity_matrix(cyc_context(2), 17)
    with pytest.raises(CapExceededError):
        permanent_ryser(big)
    with pytest.raises(CapExceededError):
        permanent_naive(identity_matrix(cyc_context(2), 10))
    assert permanent_ryser(big, cap=17) == 1


# --- derangement sums ------------------------------------------------------------------


def test_derangement_sums_order_two_minor():
    minor = delete_rows_cols(build_sun_matrix(cyc_context(3)), {3})
    sums = derangement_sums(minor)
    assert sums.total == Fraction(1, 3)
    assert sums.even_class == 0
    assert sums.odd_class == Fraction(1, 3)
    assert sums.signed == Fraction(-1, 3)


def test_derangement_sums_order_six_even_class_vanishes():
    sums = derangement_sums(build_sun_matrix(cyc_context(6)))
    assert sums.even_class == 0
    assert sums.odd_class == sums.total


def test_derangement_sums_dimension_one():
    m = make_matrix(cyc_context(2), [[5]])
    sums = derangement_sums(m)
    assert (sums.total, sums.even_class, sums.odd_class, sums.signed) == (0, 0, 0, 0)


def test_derangement_sums_class_arithmetic():
    rng = Random(60)
    for dim in range(2, 7):
        m = random_matrix(3, dim, rng, max_numerator=2)
        sums = derangement_sums(m)
        assert sums.total == sums.even_class + sums.odd_class
        assert sums.signed == sums.even_class - sums.odd_class


def test_derangement_sum_routes_agree():
    rng = Random(61)
    for dim in range(2, 10):
        m = random_matrix(2, dim, rng, max_numerator=2)
        assert derangement_sums_enumerated(m) == derangement_sums(m)


def test_derangement_sums_respect_caps():
    m = identity_matrix(cyc_context(2), 12)
    with pytest.raises(CapExceededError):
        derangement_sums_enumerated(m)
    big = identity_matrix(cyc_context(2), 17)
    with pytest.raises(CapExceededError):
        derangement_sums(big)


def test_derangement_sums_ignore_diagonal():
    ctx = cyc_context(2)
    base = make_matrix(ctx, [[9, 1], [2, 9]])
    assert derangement_sums(base) == derangement_sums(base.zero_diagonal())
    assert base.zero_diagonal().entry(1, 1) == 0


# --- characteristic polynomials ------------------------------------------------------


def test_charpoly_of_identity():
    coeffs = charpoly_exact(identity_matrix(cyc_context(3), 2))
    assert [c.as_rational() for c in coeffs] == [1, -2, 1]


def test_charpoly_degree_and_normalization():
    rng = Random(90)
    for dim in (1, 3, 4):
        m = random_matrix(5, dim, rng, max_numerator=2)
        coeffs = charpoly_exact(m)
        assert len(coeffs) == dim + 1
        assert coeffs[dim] == 1
        trace = m.context.zero
        for j in range(1, dim + 1):
            trace = trace + m.entry(j, j)
        assert coeffs[dim - 1] == -trace
        sign = 1 if dim % 2 == 0 else -1
        assert coeffs[0] == sign * det_exact(m)


def test_charpoly_evaluates_to_shifted_determinant():
    # p(c) must equal det(cI - M) for any scalar c.
    rng = Random(91)
    for dim in (2, 3, 4):
        m = random_matrix(4, dim, rng, max_numerator=2)
        coeffs = charpoly_exact(m)
        for c in (0, 1, -2, Fraction(1, 3)):
            shifted_rows = [
                [
                    (c if j == k else 0) - m.entry(j + 1, k + 1)
                    for k in range(dim)
                ]
                for j in range(dim)
            ]
            shifted = make_matrix(m.context, shifted_rows)
            value = m.context.zero
            for power, coeff in enumerate(coeffs):
                value = value + coeff * (m.context.from_rational(c) ** power)
            assert value == det_exact(shifted)


# --- serialization ---------------------------------------------------------------------


def test_matrix_json_round_trip(tmp_path):
    rng = Random(123)
    m = random_matrix(6, 3, rng)
    again = matrix_from_json(matrix_to_json(m))
    assert again.entries == m.entries
    assert again.context is m.context
    path = tmp_path / "m.json"
    save_matrix(m, path)
    assert load_matrix(path).entries == m.entries


def test_matrix_json_rejects_malformed(tmp_path):
    with pytest.raises(ValueError):
        matrix_from_json({"n": 4, "dim": 2, "entries": [["1"]]})
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(Exception):
        load_matrix(path)


def test_make_matrix_validation():
    ctx = cyc_context(3)
    with pytest.raises(ValueError):
        make_matrix(ctx, [[1, 2], [3]])
    with pytest.raises(ValueError):
        make_matrix(ctx, [])


# --- closed-form spot checks against the numeric embedding ------------------------------


def test_small_permanents_match_numeric_embedding():
    for n in (2, 3, 4, 5):
        m = build_sun_matrix(cyc_context(n))
        exact = permanent_ryser(m).to_complex()
        rows = [
            [m.entry(j, k).to_complex() for k in range(1, n + 1)]
            for j in range(1, n + 1)
        ]
        numeric = 0
        for p in permutations(range(n)):
            term = 1.0
            for j in range(n):
                term *= rows[j][p[j]]
            numeric += term
        assert cmath.isclose(exact, numeric, rel_tol=0, abs_tol=1e-10)
