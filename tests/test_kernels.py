"""Oracle tests for the integer kernels: the norm-based inverse, the Galois
maps, Kronecker packing, the packed permanent on both its routes (Gray
code and circulant necklace orbits), matrix product and characteristic
polynomial, and the necklace generator.

Each packed kernel is compared with an implementation that does every step
in CycElem arithmetic: the naive permanent from the package, and the
triple-loop product and element-wise Faddeev-LeVerrier recurrence below.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random

import pytest

import cyclosum.matrices
from cyclosum.exact import cyc_context, full_permanent
from cyclosum.matrices import (
    ExactMatrix,
    build_sun_matrix,
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


def circulant(ctx, first) -> ExactMatrix:
    """The matrix with entry (r, c) = first[(c - r) mod dim]."""
    d = len(first)
    return make_matrix(ctx, [[first[(c - r) % d] for c in range(d)] for r in range(d)])


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


@pytest.mark.parametrize("n", range(2, 15, 2))
def test_necklace_route_matches_gray_code_on_sun_matrix(n):
    # Swapping rows 1 and 2 keeps the permanent.  From n = 4 it breaks
    # circulance, so the swapped matrix takes the Gray-code walk; a 2 x 2
    # circulant with equal off-diagonal entries stays circulant.
    sun = build_sun_matrix(cyc_context(n))
    rows = list(sun.entries)
    rows[0], rows[1] = rows[1], rows[0]
    swapped = make_matrix(sun.context, rows)
    assert cyclosum.matrices._is_circulant(sun)
    assert cyclosum.matrices._is_circulant(swapped) == (n == 2)
    assert permanent_ryser(sun) == permanent_ryser(swapped) == full_permanent(n)


@pytest.mark.parametrize("n", (3, 4, 12))
def test_necklace_route_matches_naive_on_random_circulants(n):
    # Dimensions 4, 6 and 8 have necklaces of every proper period dividing them.
    rng = Random(10_000 + n)
    ctx = cyc_context(n)
    for dim in range(1, 9):
        m = circulant(ctx, mixed_matrix(n, dim, rng).entries[0])
        assert cyclosum.matrices._is_circulant(m)
        assert permanent_ryser(m) == permanent_naive(m), f"n={n} dim={dim}"


def test_necklace_route_on_zero_and_sparse_first_rows():
    ctx = cyc_context(6)
    zero = circulant(ctx, [ctx.zero] * 4)
    assert permanent_ryser(zero) == 0 == permanent_naive(zero)
    a, b = ctx.zeta_pow(1), ctx.from_rational(Fraction(-3, 4))
    for first in ([ctx.zero, a, ctx.zero, ctx.zero, ctx.zero, b],
                  [ctx.zero, ctx.zero, a, ctx.zero, ctx.zero, ctx.zero],
                  [a, ctx.zero, ctx.zero, b, ctx.zero, ctx.zero, ctx.zero, ctx.zero]):
        m = circulant(ctx, first)
        assert permanent_ryser(m) == permanent_naive(m), first


def test_circulance_is_checked_on_every_entry():
    # Circulant except one entry of the last row, outside the first column:
    # a detector that read only the first row and column would take the
    # necklace route and return the circulant's permanent.
    rng = Random(11_000)
    ctx = cyc_context(5)
    base = circulant(ctx, mixed_matrix(5, 6, rng).entries[0])
    rows = [list(row) for row in base.entries]
    rows[5][3] = rows[5][3] + 1
    m = make_matrix(ctx, rows)
    assert not cyclosum.matrices._is_circulant(m)
    assert permanent_ryser(m) == permanent_naive(m) != permanent_naive(base)


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


# --- necklaces ------------------------------------------------------------------


@pytest.mark.parametrize("d", range(1, 17))
def test_fkm_yields_each_binary_necklace_once(d):
    # N(d) = (1/d) sum_{k | d} phi(k) 2^(d/k), OEIS A000031.
    phi = [sum(math.gcd(k, j) == 1 for j in range(1, k + 1)) for k in range(d + 1)]
    count = sum(phi[k] << (d // k) for k in range(1, d + 1) if d % k == 0) // d
    mask = (1 << d) - 1
    words = []
    for word, period in cyclosum.matrices._necklaces(d):
        orbit = {((word << k) | (word >> (d - k))) & mask for k in range(d)}
        assert word == min(orbit), f"{word:0{d}b} is not its least rotation"
        assert period == len(orbit), f"{word:0{d}b}"
        words.append((word, period))
    assert len(words) == count
    assert len({w for w, _ in words}) == count
    assert sum(p for _, p in words) == 1 << d
