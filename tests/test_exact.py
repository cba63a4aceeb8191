"""Tests for the exact cyclotomic arithmetic layer."""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random

import pytest

from cyclosum.exact import (
    ContextMismatchError,
    cp_minor_determinant,
    cyc_context,
    cyclotomic_polynomial,
    double_factorial,
    full_permanent,
    minor_determinant,
    minor_permanent,
    parse_elem,
    random_element,
)


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


# --- contexts ---------------------------------------------------------------


def test_order_two_reduces_to_rationals():
    ctx = cyc_context(2)
    zeta = ctx.zeta_pow(1)
    assert ctx.basis_degree == 1
    assert zeta.is_rational()
    assert zeta.as_rational() == -1


def test_basis_degree_matches_totient():
    for n in range(2, 16):
        assert cyc_context(n).basis_degree == euler_phi(n)


def test_order_one_rejected():
    with pytest.raises(ValueError):
        cyc_context(1)
    with pytest.raises(ValueError):
        cyc_context(0)


def test_contexts_are_shared():
    assert cyc_context(7) is cyc_context(7)


# --- cyclotomic polynomials -------------------------------------------------


@pytest.mark.parametrize(
    "n,coeffs",
    [
        (1, (-1, 1)),
        (2, (1, 1)),
        (3, (1, 1, 1)),
        (4, (1, 0, 1)),
        (6, (1, -1, 1)),
        (8, (1, 0, 0, 0, 1)),
        (12, (1, 0, -1, 0, 1)),
    ],
)
def test_cyclotomic_polynomial_small_orders(n, coeffs):
    assert cyclotomic_polynomial(n) == coeffs


def test_cyclotomic_polynomial_degree_and_product():
    # x^n - 1 factors as the product of Phi_d over divisors d of n.
    for n in range(1, 21):
        assert len(cyclotomic_polynomial(n)) - 1 == (1 if n == 1 else euler_phi(n))
    for n in (6, 10, 12):
        prod = [Fraction(1)]
        for d in range(1, n + 1):
            if n % d == 0:
                phi_d = cyclotomic_polynomial(d)
                out = [Fraction(0)] * (len(prod) + len(phi_d) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi_d):
                        out[i + j] += a * b
                prod = out
        expected = [Fraction(0)] * (n + 1)
        expected[0], expected[n] = Fraction(-1), Fraction(1)
        assert prod == expected


# --- powers of the root -----------------------------------------------------


def test_zeta_power_values():
    assert cyc_context(4).zeta_pow(2) == -1
    assert cyc_context(3).zeta_pow(3) == 1
    assert cyc_context(5).zeta_pow(-1) == cyc_context(5).zeta_pow(4)


def test_root_has_exact_order():
    for n in range(2, 13):
        ctx = cyc_context(n)
        zeta = ctx.zeta_pow(1)
        assert zeta**n == 1
        for k in range(1, n):
            assert zeta**k != 1


# --- ring and field operations ----------------------------------------------


def test_primitive_root_sum_order_three():
    ctx = cyc_context(3)
    assert ctx.zeta_pow(1) + ctx.zeta_pow(2) == -1


def test_additive_identity():
    for n in (2, 5, 8):
        ctx = cyc_context(n)
        a = ctx.element(tuple(range(1, ctx.basis_degree + 1)))
        assert a + ctx.zero == a
        assert a - a == ctx.zero


def test_product_over_primitive_eighth_roots():
    # prod_{gcd(i,8)=1} (1 - zeta^i) evaluates Phi_8 at 1, which is 1^4 + 1.
    ctx = cyc_context(8)
    prod = ctx.one
    for i in (1, 3, 5, 7):
        prod = prod * (1 - ctx.zeta_pow(i))
    assert prod == 2


def test_inverse_of_rational():
    assert cyc_context(2).from_rational(2).inverse() == Fraction(1, 2)


def test_inverse_defining_property():
    ctx = cyc_context(3)
    a = 1 - ctx.zeta_pow(1)
    assert a * a.inverse() == 1


def test_inverse_pair_sums_to_one():
    # 1/(1-y) + 1/(1-1/y) = 1 for y any primitive root.
    ctx = cyc_context(3)
    lhs = (1 - ctx.zeta_pow(1)).inverse() + (1 - ctx.zeta_pow(2)).inverse()
    assert lhs == 1
    for n in (5, 7, 12):
        ctx = cyc_context(n)
        for k in range(1, n):
            total = (1 - ctx.zeta_pow(k)).inverse() + (1 - ctx.zeta_pow(-k)).inverse()
            assert total == 1


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        cyc_context(5).zero.inverse()


def test_field_axioms_seeded():
    rng = Random(20240817)
    for n in range(2, 13):
        ctx = cyc_context(n)
        for _ in range(40):
            a = random_element(ctx, rng)
            b = random_element(ctx, rng)
            c = random_element(ctx, rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * ctx.one == a
            if a:
                assert a * a.inverse() == ctx.one
                assert (b / a) * a == b


def test_pow_matches_repeated_multiplication():
    ctx = cyc_context(7)
    a = 1 + ctx.zeta_pow(2) / 3
    acc = ctx.one
    for k in range(6):
        assert a**k == acc
        acc = acc * a
    assert a**-2 == (a * a).inverse()


def test_mixed_rational_arithmetic():
    ctx = cyc_context(5)
    z = ctx.zeta_pow(1)
    assert (z + Fraction(1, 2)) - z == Fraction(1, 2)
    assert 3 * z == z + z + z
    assert (2 / (2 * z)) * z == 1


def test_cross_context_operations_rejected():
    a = cyc_context(3).zeta_pow(1)
    b = cyc_context(4).zeta_pow(1)
    with pytest.raises(ContextMismatchError):
        _ = a + b


# --- embedding into the complex numbers --------------------------------------


def test_embedding_of_root_order_four():
    z = cyc_context(4).zeta_pow(1).to_complex()
    assert abs(z - 1j) < 1e-15


def test_embedding_of_vanishing_sum():
    ctx = cyc_context(3)
    total = ctx.one + ctx.zeta_pow(1) + ctx.zeta_pow(2)
    assert total == ctx.zero
    assert abs(total.to_complex()) < 1e-15


def test_embedding_cotangent_form():
    # 1/(1 - zeta_n^d) embeds to (1 + i*cot(pi*d/n))/2.
    ctx = cyc_context(5)
    value = (1 - ctx.zeta_pow(1)).inverse().to_complex()
    expected = 0.5 * (1 + 1j / math.tan(math.pi / 5))
    assert abs(value - expected) < 1e-12
    for n, d in ((7, 2), (9, 4), (12, 5)):
        got = (1 - cyc_context(n).zeta_pow(d)).inverse().to_complex()
        want = 0.5 * (1 + 1j / math.tan(math.pi * d / n))
        assert abs(got - want) < 1e-12


def test_embedding_is_ring_homomorphism():
    rng = Random(99)
    for n in range(2, 21):
        ctx = cyc_context(n)
        a = random_element(ctx, rng)
        b = random_element(ctx, rng)
        assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-10
        assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) < 1e-10


def test_conjugate_embeds_to_complex_conjugate():
    rng = Random(3)
    for n in (3, 8, 11):
        a = random_element(cyc_context(n), rng)
        assert abs(a.conjugate().to_complex() - a.to_complex().conjugate()) < 1e-12


# --- equality, hashing, serialization ----------------------------------------


def test_rational_valued_elements_compare_and_hash_like_rationals():
    ctx = cyc_context(4)
    half = ctx.from_rational(Fraction(1, 2))
    assert half == Fraction(1, 2)
    assert hash(half) == hash(Fraction(1, 2))
    square = ctx.zeta_pow(1) * ctx.zeta_pow(1)
    assert square == -1
    assert hash(square) == hash(-1)


def test_serialize_round_trip():
    rng = Random(7)
    for n in (2, 3, 10, 12):
        ctx = cyc_context(n)
        for _ in range(10):
            a = random_element(ctx, rng)
            assert parse_elem(a.serialize()) == a
            assert parse_elem(a.serialize(), ctx) == a


def test_parse_rejects_wrong_context():
    text = cyc_context(3).zeta_pow(1).serialize()
    with pytest.raises(ContextMismatchError):
        parse_elem(text, cyc_context(4))


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_elem("not a serialized element")


# --- closed forms -------------------------------------------------------------


def test_double_factorial_small_values():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48


def test_double_factorial_splits_factorial():
    for n in range(1, 31):
        assert double_factorial(n) * double_factorial(n - 1) == math.factorial(n)


def test_closed_form_even_order_values():
    assert full_permanent(2) == Fraction(1, 4)
    assert full_permanent(4) == Fraction(9, 16)
    assert full_permanent(4) == Fraction(math.factorial(4), 4**4) * math.comb(4, 2)


def test_closed_form_even_order_binomial_form():
    # ((n-1)!!)^2 / 2^n = n! C(n, n/2) / 4^n: two derivations of eq1_1's rhs.
    for n in range(2, 31, 2):
        assert full_permanent(n) == Fraction(math.factorial(n), 4**n) * math.comb(n, n // 2)


def test_closed_form_odd_order_values():
    assert minor_permanent(3) == Fraction(1, 3)
    assert minor_determinant(3) == Fraction(-1, 3)
    assert minor_determinant(9) == 64


def test_closed_form_parity_guards():
    with pytest.raises(ValueError):
        full_permanent(3)
    with pytest.raises(ValueError):
        minor_permanent(4)
    with pytest.raises(ValueError):
        minor_determinant(4)


def test_minor_determinant_closed_form_values():
    assert cp_minor_determinant(3) == Fraction(-4, 3)
    assert cp_minor_determinant(5) == Fraction(64, 5)
    with pytest.raises(ValueError):
        cp_minor_determinant(4)


def test_random_element_determinism_and_bounds():
    a = random_element(cyc_context(7), Random(11))
    b = random_element(cyc_context(7), Random(11))
    assert a == b
    for coeff in a.coeffs:
        assert abs(coeff.numerator) <= 9 * 9
