"""Oracle tests for the integer kernels: the norm-based inverse, the Galois
maps, Kronecker packing, and the packed permanent, matrix product and
characteristic polynomial.

Each packed kernel is compared with an implementation that does every step
in CycElem arithmetic: the naive permanent from the package, and the
triple-loop product and element-wise Faddeev-LeVerrier recurrence below.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

import cyclosum.matrices
from cyclosum.exact import cyc_context
from cyclosum.matrices import (
    ExactMatrix,
    charpoly_exact,
    identity_matrix,
    make_matrix,
    matmul,
    permanent_naive,
    permanent_ryser,
)

ORDERS = (2, 3, 4, 6, 8, 9, 12, 15, 16, 21, 25, 30, 32)


def matmul_reference(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    d = a.dim
    rows = []
    for r in range(d):
        out = []
        for c in range(d):
            acc = a.context.zero
            for k in range(d):
                acc = acc + a.entries[r][k] * b.entries[k][c]
            out.append(acc)
        rows.append(out)
    return make_matrix(a.context, rows)


def charpoly_reference(m: ExactMatrix) -> list:
    """Faddeev-LeVerrier with every step an element operation."""
    d = m.dim
    ctx = m.context
    coeffs = [ctx.zero] * d + [ctx.one]
    b = identity_matrix(ctx, d)
    for k in range(1, d + 1):
        if k > 1:
            b = make_matrix(ctx, [
                [e + coeffs[d - k + 1] if r == c else e for c, e in enumerate(row)]
                for r, row in enumerate(b.entries)
            ])
        b = matmul_reference(m, b)
        trace = ctx.zero
        for r in range(d):
            trace = trace + b.entries[r][r]
        coeffs[d - k] = -(trace / k)
    return coeffs


def big_element(ctx, rng: Random, digits: int = 40):
    """Numerators of up to `digits` digits over denominators up to 10^6."""
    top = 10**digits
    return ctx.element(
        Fraction(rng.randint(-top, top), rng.randint(1, 10**6))
        for _ in range(ctx.basis_degree)
    )


def mixed_matrix(n: int, dim: int, rng: Random, zero_row: bool = False) -> ExactMatrix:
    """Entries with mixed denominators, about a quarter of them zero, and
    optionally one all-zero row."""
    ctx = cyc_context(n)
    rows = []
    for r in range(dim):
        row = []
        for _ in range(dim):
            if rng.random() < 0.25 or (zero_row and r == dim // 2):
                row.append(ctx.zero)
            else:
                row.append(ctx.element(
                    Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12)))
                    for _ in range(ctx.basis_degree)
                ))
        rows.append(row)
    return make_matrix(ctx, rows)


def negative_matrix(n: int, dim: int) -> ExactMatrix:
    """Every coefficient of every entry large and negative, so products carry
    across every packed digit."""
    ctx = cyc_context(n)
    big = 10**30
    return make_matrix(ctx, [
        [ctx.element(-big - 7 * (r * dim + c) - i for i in range(ctx.basis_degree))
         for c in range(dim)]
        for r in range(dim)
    ])


# --- elements -------------------------------------------------------------------


@pytest.mark.parametrize("n", ORDERS)
def test_norm_inverse_defining_property(n):
    ctx = cyc_context(n)
    rng = Random(5_000 + n)
    for _ in range(4):
        a = big_element(ctx, rng)
        assert a * a.inverse() == 1
    for k in range(1, n):
        unit = ctx.one - ctx.zeta_pow(k)
        if unit:
            assert unit * unit.inverse() == 1


@pytest.mark.parametrize("n", ORDERS)
def test_conjugate_is_the_inverse_galois_map(n):
    ctx = cyc_context(n)
    rng = Random(6_000 + n)
    a = big_element(ctx, rng)
    reference = ctx.zero
    for k, q in enumerate(a.coeffs):
        reference = reference + ctx.zeta_pow(-k) * q
    assert a.conjugate() == reference
    assert a.conjugate().conjugate() == a


@pytest.mark.parametrize("n", ORDERS)
def test_pack_round_trip_with_negative_digits(n):
    ctx = cyc_context(n)
    deg = ctx.basis_degree
    descending = [-(2**60) + i for i in range(deg)]
    alternating = [(-1) ** i * 2**59 for i in range(deg)]
    for nums in (descending, alternating):
        assert ctx.unpack(ctx.pack(nums, 62), 62) == nums


@pytest.mark.parametrize("n", ORDERS)
def test_multiply_with_large_negative_coefficients(n):
    ctx = cyc_context(n)
    a = ctx.element(-(10**40) - i for i in range(ctx.basis_degree))
    b = ctx.element(-(10**25) - 3 * i for i in range(ctx.basis_degree))
    # sum of p_i q_j zeta^(i+j), built from the reduction table and additions
    reference = ctx.zero
    for i, p in enumerate(a.coeffs):
        for j, q in enumerate(b.coeffs):
            power = ctx.zeta_pow(i + j).coeffs
            reference = reference + ctx.element(c * p * q for c in power)
    assert a * b == reference


# --- packed matrix kernels ------------------------------------------------------------


@pytest.mark.parametrize("n", ORDERS)
def test_ryser_matches_naive_permanent(n):
    rng = Random(7_000 + n)
    for dim in range(1, 8):
        if dim == 7 and n not in (3, 16, 25, 30):
            continue  # the naive permanent at dimension 7 is the slow part
        m = mixed_matrix(n, dim, rng)
        assert permanent_ryser(m) == permanent_naive(m), f"n={n} dim={dim}"
    m = mixed_matrix(n, 4, rng, zero_row=True)
    assert permanent_ryser(m) == 0 == permanent_naive(m)


@pytest.mark.parametrize("n", ORDERS)
def test_packed_matmul_matches_triple_loop(n):
    rng = Random(8_000 + n)
    for dim in (1, 2, 5):
        a, b = mixed_matrix(n, dim, rng), mixed_matrix(n, dim, rng, zero_row=dim > 1)
        assert matmul(a, b).entries == matmul_reference(a, b).entries


@pytest.mark.parametrize("n", ORDERS)
def test_packed_charpoly_matches_elementwise_recurrence(n):
    rng = Random(9_000 + n)
    for dim in (1, 3, 5):
        m = mixed_matrix(n, dim, rng)
        assert charpoly_exact(m) == charpoly_reference(m), f"n={n} dim={dim}"


@pytest.mark.parametrize("n", (3, 16, 21, 25, 32))
def test_packed_kernels_carry_large_negative_coefficients(n):
    m = negative_matrix(n, 4)
    assert permanent_ryser(m) == permanent_naive(m)
    assert matmul(m, m).entries == matmul_reference(m, m).entries
    assert charpoly_exact(m) == charpoly_reference(m)


def test_charpoly_refuses_an_inexact_trace_division(monkeypatch):
    # A product kernel that returns one wrong coordinate makes a later trace
    # indivisible by k; the recurrence must raise, never round.
    packed = cyclosum.matrices._matmul_ints

    def off_by_one(ctx, a, b):
        out = packed(ctx, a, b)
        out[0][0][0] += 1
        return out

    monkeypatch.setattr(cyclosum.matrices, "_matmul_ints", off_by_one)
    with pytest.raises(ArithmeticError):
        charpoly_exact(identity_matrix(cyc_context(5), 3))
