"""Oracle tests for the integer kernels: the norm-based inverse, the Galois
maps, the sun entries as Galois images of one inverse per divisor,
Kronecker packing, the rational multiply path, the permanent's one residue
walk (its necklace, minor and Glynn streams, with one lane per prime for a
value known to be rational and n lanes with an inverse DFT otherwise), its
primes and roots of unity, the necklace generator, the exact spectrum of a
circulant with the inverse-DFT certificate of a rational spectrum and its
int64 tables, the characteristic polynomial read off it, and the
determinant on both its routes (Gaussian elimination and that spectrum).

Each kernel is compared with an implementation that shares none of its
steps: the naive permanent, the packed Gray-code permanent, the Leibniz
determinant and the naive circulant eigenvalues from oracles.py, and the
element-wise Faddeev-LeVerrier recurrence below, on the field product
matmul.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction
from random import Random

import numpy as np
import pytest

import cyclosum.identities
import cyclosum.matrices
import cyclosum.spectral
from cyclosum.exact import (
    CycElem,
    CyclotomicContext,
    cp_minor_determinant,
    cyc_context,
    full_permanent,
    minor_determinant,
    minor_permanent,
)
from cyclosum.matrices import (
    ExactMatrix,
    build_cp_matrix,
    build_sun_and_cp_matrices,
    build_sun_matrix,
    charpoly_exact,
    delete_rows_cols,
    det_exact,
    make_matrix,
    matmul,
    matrix_from_json,
    matrix_to_json,
    permanent_ryser,
)
from oracles import (
    circulant_eigenvalues_naive,
    identity_matrix,
    leibniz_det,
    permanent_gray,
    permanent_naive,
)

ORDERS = (2, 3, 4, 6, 8, 9, 12, 15, 16, 21, 25, 30, 32)


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
        b = matmul(m, b)
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


def circulant_order(m: ExactMatrix) -> int | None:
    """Order of the circulant the detector finds behind m, or None."""
    t = cyclosum.matrices._circulant_row(m)
    return None if t is None else len(t)


def eliminated(m: ExactMatrix) -> CycElem:
    """det(m) by Gaussian elimination: swapping rows 1 and 2 negates the
    determinant and breaks circulance, which is asserted."""
    rows = list(m.entries)
    rows[0], rows[1] = rows[1], rows[0]
    swapped = make_matrix(m.context, rows)
    assert circulant_order(swapped) is None
    return -det_exact(swapped)


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


@pytest.mark.parametrize("n", ORDERS[1:])
def test_unpack_borrows_for_a_negative_digit_below_a_positive_top_digit(n):
    # A negative digit reads as its value minus 2^bits, so the next digit
    # up must take back one.  The top digit is positive, so the packed value
    # is too, and an unpack without that borrow ends with a wrong vector.
    ctx = cyc_context(n)
    deg = ctx.basis_degree
    for low in ([-1, 1], [-7, 0, 3], [5, -2, 1], [-(2**40), -(2**40), 2**40]):
        nums = (low + [0] * deg)[:deg]
        nums[-1] = nums[-1] or 1
        assert ctx.unpack(ctx.pack(nums, 62), 62) == nums, f"n={n} {low}"


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


def canonical(x: CycElem) -> bool:
    return x.den > 0 and math.gcd(x.den, *x.nums) == 1


@pytest.mark.parametrize("n", (2, 3, 4, 5, 12, 15, 30))
def test_rational_factor_scales_without_a_packed_product(n):
    # The rational path against the packed product on the same numerators,
    # with either factor rational, both, zero, negative, and a product that
    # must be brought back to lowest terms: 2 * (zeta/2) has denominator 1.
    ctx = cyc_context(n)
    rng = Random(4_000 + n)
    zeta = ctx.zeta_pow(1)
    general = [big_element(ctx, rng), big_element(ctx, rng, digits=3), zeta * Fraction(1, 2)]
    rationals = [ctx.from_rational(q) for q in
                 (Fraction(2), Fraction(-3, 4), Fraction(5, 6), Fraction(-1), Fraction(0))]
    pairs = [(a, b) for a in rationals for b in general + rationals]
    pairs += [(b, a) for a, b in pairs]
    for a, b in pairs:
        got = a * b
        want = CycElem(ctx, ctx._mul_nums(a.nums, b.nums), a.den * b.den)
        assert (got.nums, got.den) == (want.nums, want.den), f"n={n} {a!r} * {b!r}"
        assert canonical(got)
    two = ctx.from_rational(2)
    for x in (two * (zeta / 2), (zeta / 2) * two, 2 * (zeta / 2)):
        assert x == zeta and x.den == 1 and canonical(x)
    assert (-3 * (zeta / 6)).den == 2


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
def test_packed_charpoly_matches_elementwise_recurrence(n):
    # Random rows with mixed denominators and zero entries, at every order
    # N dividing n up to 7, and the minor of each from N = 3 on.
    rng = Random(9_000 + n)
    ctx = cyc_context(n)
    for order in (k for k in range(1, 8) if n % k == 0):
        full = circulant(ctx, random_row(ctx, order, rng))
        for m in [full] + ([delete_rows_cols(full, {order})] if order >= 3 else []):
            assert charpoly_exact(m) == charpoly_reference(m), f"n={n} N={order} dim={m.dim}"


# --- the residue walk of permanent_ryser -------------------------------------------------


def every_unit_fixes(m: ExactMatrix) -> bool:
    """Whether every unit mod n fixes m's circulant row."""
    _, (nums,) = cyclosum.matrices._cleared((cyclosum.matrices._circulant_row(m),))
    return cyclosum.matrices._every_unit_fixes(m.context, nums)


def record_walks(monkeypatch) -> list[tuple[str, int]]:
    """Patch the block walk to record each call as (stream, lanes per
    prime), the stream "glynn", "necklace" or "minor"."""
    calls = []
    walk = cyclosum.matrices._residue_walk

    def recorded(ps, col, blocks, glynn, minor):
        stream = "glynn" if glynn else "minor" if minor else "necklace"
        calls.append((stream, len(ps) // len(set(ps[:, 0].tolist()))))
        return walk(ps, col, blocks, glynn, minor)

    monkeypatch.setattr(cyclosum.matrices, "_residue_walk", recorded)
    return calls


def units(n: int) -> list[int]:
    return [u for u in range(1, n) if math.gcd(u, n) == 1]


def galois_row(ctx, rng: Random) -> list:
    """t_c = g(zeta^c), c = 0..n-1, for a random rational polynomial g, so
    that sigma_u(t_c) = g(zeta^(uc)) = t_(uc) for every unit u."""
    g = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(2, 4))]
    g[1] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))  # t is not constant
    return [sum((ctx.zeta_pow(k * c) * a for k, a in enumerate(g)), ctx.zero)
            for c in range(ctx.n)]


def with_minors(ctx, first) -> list[ExactMatrix]:
    """The circulant with row 0 first and, from order 3 on, its minor."""
    full = circulant(ctx, first)
    return [full] + ([delete_rows_cols(full, {full.dim})] if full.dim > 2 else [])


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 8, 9, 12))
def test_residue_walk_matches_naive_to_dimension_8(n):
    # Random matrices with mixed denominators (Glynn's signs), random
    # circulants (the necklaces) and one-index minors of random circulants
    # (the pair modulo x^2), at dimensions 1 to 8: one lane per prime at
    # n = 2, where the field is Q, and n lanes otherwise.  The naive
    # permanent at dimension 8 is the slow part, so it checks one shape
    # there, a different one for each n.
    rng = Random(24_000 + n)
    ctx = cyc_context(n)
    for dim in range(1, 9):
        shapes = [mixed_matrix(n, dim, rng), circulant(ctx, random_row(ctx, dim, rng))]
        if dim >= 2:
            shapes.append(delete_rows_cols(circulant(ctx, random_row(ctx, dim + 1, rng)),
                                           {dim + 1}))
        if dim == 8:
            shapes = [shapes[n % 3]]
        for m in shapes:
            assert permanent_ryser(m) == permanent_naive(m), f"n={n} dim={m.dim}"


def eq3_1_matrix(l: int, seed: int) -> ExactMatrix:
    """W_jk = 1/(x_k - x_j) off the diagonal for eq3_1's random distinct
    rationals x, over Q: the matrix whose permanent eq3_1 takes."""
    xs = cyclosum.identities.random_distinct_rationals(l, Random(seed))
    return make_matrix(cyc_context(2), [[1 / (xk - xj) if xk != xj else 0 for xk in xs]
                                        for xj in xs])


def test_residue_walk_matches_the_gray_oracle_to_dimension_14(monkeypatch):
    # Past the naive permanent's reach: eq3_1's rational matrix at l = 13
    # and 14 (Glynn's signs, one lane; the permanent is 0 at odd l, where
    # W is skew-symmetric), a random matrix over Q(zeta_3) at dimension 14
    # and the sun matrix of order 13 without rows and columns 1 and 5
    # (Glynn's signs, n lanes), and a random circulant of order 12 over
    # Q(zeta_4) with its minor (the necklaces, n lanes).
    ctx = cyc_context(4)
    shapes = [eq3_1_matrix(13, 1), eq3_1_matrix(14, 2), mixed_matrix(3, 14, Random(3)),
              delete_rows_cols(build_sun_matrix(cyc_context(13)), {1, 5}),
              *with_minors(ctx, random_row(ctx, 12, Random(4)))]
    walks = record_walks(monkeypatch)
    got = [permanent_ryser(m) for m in shapes]
    assert walks == [("glynn", 1)] * 2 + [("glynn", 3), ("glynn", 13), ("necklace", 4),
                                          ("minor", 4)]
    assert got[0] == 0 != got[1]
    assert got == [permanent_gray(m) for m in shapes]


def test_gray_oracle_matches_naive():
    rng = Random(25_000)
    for n, dim in ((2, 1), (2, 6), (3, 5), (7, 6), (12, 7)):
        m = mixed_matrix(n, dim, rng)
        assert permanent_gray(m) == permanent_naive(m), (n, dim)


@pytest.mark.parametrize("n", range(2, 15))
def test_necklace_route_matches_gray_code_on_sun_matrix(n):
    # Every unit mod n fixes the sun matrix's row, and C + xI keeps that,
    # so the full matrix and its minor both take the necklace walk with one
    # lane per prime.  The Gray-code walk of the oracles checks both, and
    # the naive permanent to dimension 7.
    sun = build_sun_matrix(cyc_context(n))
    minor = delete_rows_cols(sun, {n})
    assert every_unit_fixes(sun)
    assert circulant_order(sun) == n and circulant_order(minor) == (n if n > 2 else 1)
    for m in (sun, minor):
        got = permanent_ryser(m, cap=m.dim)
        assert got == permanent_gray(m), f"n={n} dim={m.dim}"
        if m.dim <= 7:
            assert got == permanent_naive(m), f"n={n} dim={m.dim}"
    if n % 2:
        assert permanent_ryser(minor) == minor_permanent(n)
    else:
        assert permanent_ryser(sun) == full_permanent(n)


@pytest.mark.parametrize("n", range(3, 17))
def test_one_lane_matches_n_lanes_on_sun_and_cotangent_matrices(n, monkeypatch):
    # One lane per prime, which reads the rational value itself, against n
    # lanes and the inverse DFT, which recover all of G over
    # Z[x]/(x^n - 1) and so do not rest on the value being rational; to
    # dimension 10 the packed Gray-code walk of the oracles checks both.
    # The cotangent rows, 2/(1 - zeta^d), are fixed by every unit as well.
    sun = build_sun_matrix(cyc_context(n))
    matrices = [sun, delete_rows_cols(sun, {n})]
    if n <= 12:
        cp = build_cp_matrix(cyc_context(n))
        matrices += [cp, delete_rows_cols(cp, {n})]
    assert all(every_unit_fixes(m) for m in matrices)
    walks = record_walks(monkeypatch)
    fast = [permanent_ryser(m, cap=m.dim) for m in matrices]
    monkeypatch.setattr(cyclosum.matrices, "_every_unit_fixes", lambda ctx, nums: False)
    assert fast == [permanent_ryser(m, cap=m.dim) for m in matrices]
    assert [lanes for _, lanes in walks] == [1] * len(matrices) + [n] * len(matrices)
    for m, per in zip(matrices, fast):
        if m.dim <= 10:
            assert per == permanent_gray(m), f"n={n} dim={m.dim}"


@pytest.mark.parametrize("n", (3, 5, 6, 8, 9, 12))
def test_necklace_walk_takes_one_lane_on_random_galois_symmetric_rows(n, monkeypatch):
    # Every unit fixes these rows, so the circulant and its minor take the
    # necklace walk with one lane per prime; the Gray-code walk and the
    # naive permanent are its oracles.
    rng = Random(12_000 + n)
    ctx = cyc_context(n)
    walks = record_walks(monkeypatch)
    for _ in range(2):
        for m in with_minors(ctx, galois_row(ctx, rng)):
            assert every_unit_fixes(m)
            got = permanent_ryser(m)
            assert got == permanent_gray(m), f"n={n} dim={m.dim}"
            if m.dim <= 7:
                assert got == permanent_naive(m), f"n={n} dim={m.dim}"
    assert walks == [("necklace", 1), ("minor", 1)] * 2


def conjugation_row(ctx) -> list:
    """t_c = zeta^c + zeta^-c + r_c with r_c = r_-c but r_1 != r_u for every
    other unit u: only sigma_(-1) maps the row onto itself."""
    n = ctx.n
    r = [Fraction(min(c, n - c) ** 2, 3) for c in range(n)]
    return [ctx.zeta_pow(c) + ctx.zeta_pow(-c) + r[c] for c in range(n)]


@pytest.mark.parametrize("n", (5, 7, 8))
def test_necklace_walk_takes_n_lanes_on_a_row_symmetric_under_conjugation_only(n, monkeypatch):
    # Conjugation alone fixes the row, so its permanent is real but not
    # known to be rational: the circulant and its minor take the necklace
    # walk with n lanes per prime.
    ctx = cyc_context(n)
    walks = record_walks(monkeypatch)
    for m in with_minors(ctx, conjugation_row(ctx)):
        assert not every_unit_fixes(m)
        got = permanent_ryser(m)
        assert got == permanent_gray(m) == permanent_naive(m), f"n={n} dim={m.dim}"
    assert walks == [("necklace", n), ("minor", n)]


@pytest.mark.parametrize("n", (3, 4, 12))
def test_necklace_route_matches_naive_on_random_circulants(n):
    # Dimensions 4, 6 and 8 have necklaces of every proper period dividing
    # them.  A random row of order n is fixed by no unit but 1.  The naive
    # permanent, which shares no code with the walk, is the oracle at every
    # size here; the Gray-code walk is checked as well.
    rng = Random(10_000 + n)
    ctx = cyc_context(n)
    for order in range(1, 9):
        for m in with_minors(ctx, random_row(ctx, order, rng)):
            assert circulant_order(m) == order
            if order == n:
                assert not every_unit_fixes(m)
            got = permanent_ryser(m)
            assert got == permanent_naive(m) == permanent_gray(m), f"n={n} N={order} dim={m.dim}"


def test_necklace_route_on_zero_and_sparse_first_rows():
    ctx = cyc_context(6)
    for m in with_minors(ctx, [ctx.zero] * 4):
        assert permanent_ryser(m) == 0 == permanent_naive(m)
    a, b = ctx.zeta_pow(1), ctx.from_rational(Fraction(-3, 4))
    for first in ([ctx.zero, a, ctx.zero, ctx.zero, ctx.zero, b],
                  [ctx.zero, ctx.zero, a, ctx.zero, ctx.zero, ctx.zero],
                  [a, ctx.zero, ctx.zero, b, ctx.zero, ctx.zero, ctx.zero, ctx.zero]):
        for m in with_minors(ctx, first):
            assert permanent_ryser(m) == permanent_naive(m), (first, m.dim)
    # Rational values constant on each class {c : gcd(c, n) = g} are fixed
    # by every unit; zero on most classes, they leave most row sums zero.
    q = Fraction(-3, 4)
    for n, classes in ((6, {1: q}), (6, {2: q, 3: 1}), (8, {1: q}), (8, {4: q, 8: -q})):
        ctx = cyc_context(n)
        first = [ctx.from_rational(classes.get(math.gcd(c, n), 0)) for c in range(n)]
        for m in with_minors(ctx, first):
            assert every_unit_fixes(m)
            got = permanent_ryser(m)
            assert got == permanent_naive(m) == permanent_gray(m), (n, classes, m.dim)


def subgroup_row(ctx, group: list[int], rng: Random) -> list:
    """t_c = sum_{h in group} sigma_h(b_(h^-1 c)) for random elements b_c:
    sigma_u(t_c) = t_(uc) for every u in the group, since uH = H, and for
    no other unit unless the b_c happen to be special."""
    n = ctx.n
    b = [ctx.element(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for _ in range(ctx.basis_degree)) for _ in range(n)]
    return [sum((CycElem(ctx, ctx._galois(e.nums, h), e.den)
                 for h in group for e in [b[pow(h, -1, n) * c % n]]), ctx.zero)
            for c in range(n)]


@pytest.mark.parametrize("n", (12, 15, 21, 24))
def test_galois_generators_give_the_per_unit_scan(n):
    # (Z/n)^* is not cyclic here.  For the whole group and every subgroup
    # generated by one or two units, the generator test says every unit
    # fixes the row exactly when a scan of every unit finds the whole
    # group: when the group holds the first generator of ctx._norm_steps
    # but not the rest, a shortcut that tested only that generator would
    # say every unit.
    rng = Random(22_000 + n)
    ctx = cyc_context(n)
    every = units(n)
    groups = {tuple(sorted({pow(a, i, n) * pow(b, j, n) % n for i in range(n) for j in range(n)}))
              for a in every for b in every}
    groups.add(tuple(every))  # (Z/24)^* needs three generators
    first = ctx._norm_steps[0][0]
    assert any(first in h and len(h) < len(every) for h in groups)
    for group in sorted(groups):
        t = subgroup_row(ctx, list(group), rng)
        _, (nums,) = cyclosum.matrices._cleared((t,))
        rows = [list(v) for v in nums]
        scan = [u for u in every
                if all(ctx._galois(v, u) == rows[u * c % n] for c, v in enumerate(rows))]
        assert scan == list(group)
        assert cyclosum.matrices._every_unit_fixes(ctx, nums) == (scan == every), group


def test_a_perturbed_sun_matrix_gets_its_own_permanent_with_n_lanes(monkeypatch):
    # One entry off breaks circulance: the matrix must take Glynn's signs,
    # with n lanes, and give its own permanent, the one the Gray-code walk
    # and the naive permanent give.  One value off in every row keeps
    # circulance but breaks the symmetry sigma_u(t_1) = t_u, which leaves
    # only u = 1 and -1 fixing the row: the necklaces, with n lanes.
    ctx = cyc_context(7)
    sun = build_sun_matrix(ctx)
    rows = [list(row) for row in sun.entries]
    rows[4][2] = rows[4][2] + 1
    near = make_matrix(ctx, rows)
    first = list(sun.entries[0])
    first[1] = first[1] + ctx.zeta_pow(1)
    first[6] = first[6] + ctx.zeta_pow(-1)
    twisted = circulant(ctx, first)
    assert circulant_order(near) is None and not every_unit_fixes(twisted)
    want = [permanent_naive(near), permanent_naive(twisted)]
    assert want[0] != permanent_naive(sun) and want[0] == permanent_gray(near)
    walks = record_walks(monkeypatch)
    assert [permanent_ryser(near), permanent_ryser(twisted)] == want
    assert walks == [("glynn", 7), ("necklace", 7)]


def test_rows_that_every_unit_fixes_take_one_lane(monkeypatch):
    # The sun row at n = 7 and its minor take one lane per prime, the
    # rational value alone; a row fixed by conjugation only takes n lanes,
    # once for the circulant and once for its minor.
    walks = record_walks(monkeypatch)
    ctx = cyc_context(7)
    sun = build_sun_matrix(ctx)
    assert permanent_ryser(sun) == permanent_gray(sun)
    assert permanent_ryser(delete_rows_cols(sun, {7})) == minor_permanent(7)
    for m in with_minors(ctx, conjugation_row(ctx)):
        permanent_ryser(m)
    assert walks == [("necklace", 1), ("minor", 1), ("necklace", 7), ("minor", 7)]


def test_every_input_reaches_the_one_walk_with_its_lanes(monkeypatch):
    # Each permanent is one call of the block walk.  A circulant walks the
    # necklaces, and a one-index minor of one keeps the pair modulo x^2;
    # any other matrix walks Glynn's signs.  One lane per prime when the
    # value is known to be rational: a row that every unit fixes, or
    # rational entries, at n = 2 or at any n; n lanes otherwise.
    rng = Random(23_000)
    ctx = cyc_context(5)
    sun = build_sun_matrix(ctx)

    def rationals(count: int) -> list:
        return [ctx.from_rational(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
                for _ in range(count)]

    cases = [
        (sun, ("necklace", 1)),
        (delete_rows_cols(sun, {5}), ("minor", 1)),
        (circulant(ctx, random_row(ctx, 5, rng)), ("necklace", 5)),
        (delete_rows_cols(circulant(ctx, random_row(ctx, 6, rng)), {6}), ("minor", 5)),
        (circulant(ctx, rationals(3)), ("necklace", 1)),
        (delete_rows_cols(circulant(ctx, rationals(4)), {4}), ("minor", 1)),
        (delete_rows_cols(sun, {2, 4}), ("glynn", 5)),
        (mixed_matrix(5, 4, rng), ("glynn", 5)),
        (make_matrix(ctx, [rationals(4) for _ in range(4)]), ("glynn", 1)),
        (mixed_matrix(2, 5, rng), ("glynn", 1)),
    ]
    walks = record_walks(monkeypatch)
    for m, (stream, _) in cases:
        assert (circulant_order(m) is None) == (stream == "glynn"), stream
        assert permanent_ryser(m) == permanent_naive(m), stream
    assert walks == [route for _, route in cases]


def primes_asked(n: int, bound: int) -> list[int]:
    """The primes of _prime_images(n) whose product first exceeds 2 bound."""
    out, product = [], 1
    for p, _ in cyclosum.matrices._prime_images(n):
        if product > 2 * bound:
            return out
        out.append(p)
        product *= p


def test_modular_route_takes_every_prime_the_bound_asks_for():
    # The constant row q = -(2^20 + 1)/3 at n = 5: per = 5! q^5, so
    # V = D^5 per = -120 (2^20 + 1)^5 with D = 3.  The bound L^5 =
    # (5 (2^20 + 1))^5 asks for four primes, and the first three multiply to
    # less than 2 |V|, so stopping one prime early gives a wrong residue.
    ctx = cyc_context(5)
    q = Fraction(-(2**20 + 1), 3)
    m = make_matrix(ctx, [[q] * 5] * 5)
    value = -120 * (2**20 + 1) ** 5
    bound = cyclosum.matrices._value_bound([5 * (2**20 + 1)] * 5, False)
    assert bound == (5 * (2**20 + 1)) ** 5 >= abs(value)
    primes = primes_asked(5, bound)
    assert len(primes) == 4 and math.prod(primes[:-1]) < 2 * abs(value)
    assert circulant_order(m) == 5
    assert permanent_ryser(m) == math.factorial(5) * q**5


def test_n_lanes_take_every_prime_the_bound_asks_for(monkeypatch):
    # Row i of the 5 x 5 matrix is q zeta^i throughout, q = -(2^20 + 1)/3,
    # at n = 7: not circulant and not rational, so Glynn's signs with n
    # lanes.  per = 5! q^5 zeta^10, and with D_i = 3 the walk's value is
    # G = -120 (2^20 + 1)^5 x^3 over Z[x]/(x^7 - 1).  The bound
    # (5 (2^20 + 1))^5 asks for four primes, and the first three multiply
    # to less than 2 |G_3|, so stopping one prime early lifts a wrong
    # coefficient.
    ctx = cyc_context(7)
    q = Fraction(-(2**20 + 1), 3)
    m = make_matrix(ctx, [[ctx.zeta_pow(i) * q] * 5 for i in range(5)])
    value = -120 * (2**20 + 1) ** 5
    bound = cyclosum.matrices._value_bound([5 * (2**20 + 1)] * 5, False)
    assert bound >= abs(value)
    primes = primes_asked(7, bound)
    assert len(primes) == 4 and math.prod(primes[:-1]) < 2 * abs(value)
    walks = record_walks(monkeypatch)
    assert permanent_ryser(m) == math.factorial(5) * q**5 * ctx.zeta_pow(10)
    assert walks == [("glynn", 7)]


def test_walk_past_two_byte_tables_reduces_its_sums():
    # From N = 17 a column sum adds three byte tables, each below p, so it
    # must be reduced before a product, or a residue times it can pass
    # 2^63.  The constant row q = -(2^40 + 1)/3 makes every column sum
    # |S| q, and per = N! q^N.
    ctx = cyc_context(2)
    q = Fraction(-(2**40 + 1), 3)
    for dim in (17, 18):
        m = make_matrix(ctx, [[q] * dim] * dim)
        assert permanent_ryser(m, cap=dim) == math.factorial(dim) * q**dim, dim


def test_value_bound_holds_on_sun_rows_and_minors():
    # V from the closed forms (full matrices at even n, minors at odd n)
    # up to n = 22, and from the Gray-code walk of the oracles for the
    # other parity up to 12.
    for n in range(2, 23):
        sun = build_sun_matrix(cyc_context(n))
        (den,), (nums,) = cyclosum.matrices._cleared((cyclosum.matrices._circulant_row(sun),))
        norm = sum(map(cyclosum.matrices._l1, nums))
        values = {}
        if n % 2 == 0:
            values[n] = den**n * full_permanent(n)
        elif n > 2:
            values[n - 1] = n * den ** (n - 1) * minor_permanent(n)
        if n <= 12:
            for m in (sun, delete_rows_cols(sun, {n})):
                per = permanent_gray(m)
                assert per.is_rational()
                values.setdefault(m.dim, (n if m.dim < n else 1) * den**m.dim * per.as_rational())
        for dim, value in values.items():
            assert value.denominator == 1, (n, dim)
            assert abs(value) <= cyclosum.matrices._value_bound([norm] * n, dim < n), (n, dim)


@pytest.mark.parametrize("n, q", ((6, 2), (6, 3), (8, 2), (9, 3), (12, 2)))
def test_a_root_of_lower_order_gives_a_wrong_permanent(n, q, monkeypatch):
    # r^q has order n/q: zeta -> r^q is no ring map from Z[zeta_n], and
    # the walk must then miss the closed form.
    sun = build_sun_matrix(cyc_context(n))
    m = delete_rows_cols(sun, {n}) if n % 2 else sun
    want = minor_permanent(n) if n % 2 else full_permanent(n)
    assert permanent_ryser(m) == want
    images = cyclosum.matrices._prime_images
    monkeypatch.setattr(cyclosum.matrices, "_prime_images",
                        lambda n: ((p, pow(r, q, p)) for p, r in images(n)))
    assert permanent_ryser(m) != want


def test_modular_walk_in_tiny_blocks_gives_the_same_permanents(monkeypatch):
    # Blocks of 1 and 3 words, on every stream: the necklaces with one lane
    # and with n lanes, the minors, and Glynn's signs.
    rng = Random(13_000)
    matrices = []
    for n in (7, 8, 10):
        ctx = cyc_context(n)
        sun = build_sun_matrix(ctx)
        matrices += [sun, delete_rows_cols(sun, {n}), delete_rows_cols(sun, {1, 3})]
        matrices += with_minors(ctx, galois_row(ctx, rng))
        matrices += with_minors(ctx, random_row(ctx, 6, rng)) + [mixed_matrix(n, 5, rng)]
    want = [permanent_ryser(m) for m in matrices]
    for block in (1, 3):
        monkeypatch.setattr(cyclosum.matrices, "_BLOCK", block)
        assert [permanent_ryser(m) for m in matrices] == want, block
    assert want[-1] == permanent_naive(matrices[-1])


def trial_division_primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(sieve[i * i::i]))
    return [i for i in range(limit) if sieve[i]]


def test_miller_rabin_agrees_with_a_sieve():
    small = trial_division_primes(1 << 16)  # every prime to sqrt(2^31) and past
    assert [m for m in range(1 << 16) if cyclosum.matrices._is_prime(m)] == small
    rng = Random(14_000)
    for m in [rng.randrange(1 << 30, 1 << 31) for _ in range(300)] + [2**31 - 1]:
        want = all(m % p for p in small if p * p <= m)
        assert cyclosum.matrices._is_prime(m) == want, m


@pytest.mark.parametrize("n", (2, 5))
def test_prime_images_are_found_once_per_order(n, monkeypatch):
    # A second permanent at the same n reuses the kept images: no primality
    # test, and the same primes and roots as a fresh search, in its order.
    sun = build_sun_matrix(cyc_context(n))
    m = delete_rows_cols(sun, {n}) if n % 2 else sun
    first = permanent_ryser(m)
    calls = []
    is_prime = cyclosum.matrices._is_prime
    monkeypatch.setattr(cyclosum.matrices, "_is_prime", lambda q: calls.append(q) or is_prime(q))
    assert permanent_ryser(m) == first == (minor_permanent(n) if n % 2 else full_permanent(n))
    assert calls == []
    count = len(cyclosum.matrices._PRIME_IMAGES[n][0]) + 3  # three past the kept ones
    kept = list(itertools.islice(cyclosum.matrices._prime_images(n), count))
    assert kept == list(itertools.islice(cyclosum.matrices._search_prime_images(n), count))
    assert cyclosum.matrices._PRIME_IMAGES[n][0] == kept


@pytest.mark.parametrize("n", (2, 3, 4, 5, 12, 22, 24))
def test_prime_images_are_primes_with_primitive_roots(n):
    images = list(itertools.islice(cyclosum.matrices._prime_images(n), 12))
    primes = [p for p, _ in images]
    assert primes == sorted(set(primes), reverse=True) and primes[0] < 2**31
    small = trial_division_primes(1 << 16)
    for p, r in images:
        assert p % n == 1 and all(p % s for s in small if s * s <= p), p
        assert pow(r, n, p) == 1
        assert all(pow(r, k, p) != 1 for k in range(1, n)), (p, r)


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
    assert circulant_order(m) is None
    assert permanent_ryser(m) == permanent_naive(m) != permanent_naive(base)


@pytest.mark.parametrize("n", (3, 16, 21, 25, 32))
def test_packed_kernels_carry_large_negative_coefficients(n):
    m = negative_matrix(n, 4)
    assert permanent_ryser(m) == permanent_naive(m)
    # A circulant on a large negative row, of the least order >= 3 dividing n.
    order = next(k for k in range(3, n + 1) if n % k == 0)
    c = circulant(m.context, negative_matrix(n, order).entries[0])
    assert charpoly_exact(c) == charpoly_reference(c)


@pytest.mark.parametrize("n", (3, 16, 21, 25, 32))
def test_residue_walk_lifts_large_negative_coefficients(n, monkeypatch):
    # Every coefficient of every entry is about -10^30, so at odd dimension
    # every coefficient of G over Z[x]/(x^n - 1) is a large negative
    # number, and the CRT must lift each to its symmetric residue, not to
    # the positive one below the product of the primes.  A lift that added
    # the product of the primes to every coefficient alike would still
    # give the right value, since 1 + x + ... + x^(n-1) is 0 modulo Phi_n,
    # so the same matrices with every odd coefficient negated, whose G has
    # large coefficients of both signs, come too.  Glynn's signs at
    # dimensions 2 to 5, and the necklaces on a circulant of a large
    # negative row and on its minor, all with n lanes.
    ctx = cyc_context(n)

    def signs_mixed(m: ExactMatrix) -> ExactMatrix:
        return make_matrix(ctx, [[CycElem(ctx, [(-1) ** i * v for i, v in enumerate(e.nums)],
                                          e.den) for e in row] for row in m.entries])

    walks = record_walks(monkeypatch)
    for dim in range(2, 6):
        for m in (negative_matrix(n, dim), signs_mixed(negative_matrix(n, dim))):
            got = permanent_ryser(m)
            assert got == permanent_gray(m), f"n={n} dim={dim}"
            if dim <= 4:
                assert got == permanent_naive(m), f"n={n} dim={dim}"
    for m in with_minors(ctx, negative_matrix(n, 5).entries[0]):
        assert permanent_ryser(m) == permanent_gray(m), f"n={n} circulant dim={m.dim}"
    assert walks == [("glynn", n)] * 8 + [("necklace", n), ("minor", n)]


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


# --- determinants ------------------------------------------------------------


def count_calls(monkeypatch, method: str, owner: type = CycElem) -> list[int]:
    """Patch owner.<method> to count its calls into the returned cell."""
    calls = [0]
    original = getattr(owner, method)

    def counted(self, *args):
        calls[0] += 1
        return original(self, *args)

    monkeypatch.setattr(owner, method, counted)
    return calls


def random_row(ctx, order: int, rng: Random) -> list:
    return list(mixed_matrix(ctx.n, order, rng).entries[0])


def singular_row(ctx, order: int, rng: Random, zeros: int) -> list:
    """A first row whose circulant has lambda_0 = 0 and, for zeros = 2,
    also lambda_1 = sum_j t_j w^j = 0, w = zeta^(n/order).  No entry it
    draws is zero, so the row itself is not."""
    t = [e or ctx.one for e in random_row(ctx, order, rng)]
    w = ctx.zeta_pow(ctx.n // order)
    if zeros == 1:
        t[0] = -sum(t[1:], ctx.zero)
        return t
    s0 = sum(t[2:], ctx.zero)
    s1 = sum((e * w**j for j, e in enumerate(t) if j >= 2), ctx.zero)
    t[1] = (s0 - s1) / (w - 1)
    t[0] = -s0 - t[1]
    return t


@pytest.mark.parametrize("n", (4, 6, 12, 15))
def test_circulant_eigenvalues_match_naive_sums(n):
    # Every order N dividing n; random rows, the zero row, and rows whose
    # circulant has one or two zero eigenvalues.
    rng = Random(17_000 + n)
    ctx = cyc_context(n)
    for order in (k for k in range(1, n + 1) if n % k == 0):
        rows = {"random": random_row(ctx, order, rng), "zero": [ctx.zero] * order}
        if order >= 3:
            rows.update((f"singular {z}", singular_row(ctx, order, rng, z)) for z in (1, 2))
        for kind, t in rows.items():
            lam = cyclosum.matrices._circulant_eigenvalues(ctx, t)
            assert lam == circulant_eigenvalues_naive(ctx, t), f"n={n} N={order} {kind}"
            zeros = sum(not e for e in lam)
            if kind == "zero":
                assert zeros == order
            elif kind.startswith("singular"):
                assert not lam[0] and zeros >= int(kind[-1]), f"n={n} N={order} {kind}"


def unpacked_eigenvalues(ctx, t) -> list:
    """The eigenvalues of _circulant_eigenvalues, every one unpacked
    through the Phi_n table at the width that L = sum_j ||D t_j||_1 alone
    fixes: the read that the inverse-DFT certificate lets a rational
    spectrum skip."""
    (den,), (nums,) = cyclosum.matrices._cleared((t,))
    bits = sum(abs(v) for vs in nums for v in vs).bit_length() + 1
    packed = [ctx.pack(v, bits) for v in nums]
    n, step = ctx.n, ctx.n // len(t)
    return [CycElem(ctx, ctx.unpack(sum(p << bits * (step * j * k % n)
                                        for j, p in enumerate(packed)), bits), den)
            for k in range(len(t))]


def class_row(ctx, order: int, rng: Random) -> list:
    """Rationals constant on each class {c : gcd(c, N) = g}: the
    eigenvalues are sums of Ramanujan sums, all rational."""
    q = {g: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
         for g in range(1, order + 1) if order % g == 0}
    return [ctx.from_rational(q[math.gcd(c, order)]) for c in range(order)]


@pytest.mark.parametrize("n", range(2, 49))
def test_psi_read_matches_the_full_unpack(n, monkeypatch):
    # Every order N dividing n.  The candidates are read through Psi_n and
    # proved by the inverse-DFT certificate, which a rational spectrum must
    # pass with no unpack, and any other spectrum must fail, unpacking
    # every eigenvalue.  Rational spectra: rows of rationals constant on
    # gcd classes, rows with irrational entries built from a random
    # rational spectrum, and at N = n the Galois-symmetric rows.
    # Irrational spectra: rows of 12-digit integer coefficients, and rows
    # built from a spectrum rational but for one eigenvalue.  Random rows
    # may be either.
    rng = Random(21_000 + n)
    ctx = cyc_context(n)
    irrational = ctx.basis_degree > 1
    for order in (k for k in range(1, n + 1) if n % k == 0):
        rows = {
            "class": (class_row(ctx, order, rng), True),
            "random": ([ctx.element(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5)))
                                    for _ in range(ctx.basis_degree)) for _ in range(order)],
                       None),
            "big": ([ctx.element(rng.randint(-10**12, 10**12) for _ in range(ctx.basis_degree))
                     for _ in range(order)], not irrational),
        }
        if order <= 24:
            lams = [ctx.from_rational(Fraction(rng.randint(-30, 30), rng.randint(1, 4)))
                    for _ in range(order)]
            rows["spectrum"] = (spectrum_row(ctx, lams), True)
            if order >= 2 and irrational:
                lams[rng.randrange(order)] += ctx.zeta_pow(1)
                rows["mixed"] = (spectrum_row(ctx, lams), False)
        if order == n:
            rows["galois"] = (galois_row(ctx, rng), True)
        for kind, (t, rational) in rows.items():
            want = unpacked_eigenvalues(ctx, t)
            with monkeypatch.context() as m:
                calls = count_calls(m, "unpack", CyclotomicContext)
                got = cyclosum.matrices._circulant_eigenvalues(ctx, t)
            assert got == want, f"n={n} N={order} {kind}"
            if rational is not None:
                assert calls[0] == (0 if rational else order), f"n={n} N={order} {kind}"
                assert all(lam.is_rational() for lam in got) == rational, f"n={n} N={order} {kind}"
            if kind == "big" and irrational:  # lambda_0 = sum_j t_j
                assert not got[0].is_rational(), f"n={n} N={order} {kind}"


@pytest.mark.parametrize("n", (3, 9, 105, 561))
def test_dft_guard_is_exact_at_its_edge(n, monkeypatch):
    # Rows (v, 0, 0) and (v, 1, 1) of order 3 have the rational spectra
    # {v, v, v} and {v + 2, v - 1, v - 1}.  With L = sum_j ||D t_j||_1 and
    # h the height of the reduction table (2 at n = 105 and 561), the
    # certificate runs in int64 exactly while L N h < 2^63: the largest
    # such L reads every eigenvalue with no unpack, and L + 1 unpacks all
    # three; both equal the full unpack.
    ctx = cyc_context(n)
    _, height = cyclosum.matrices._reduction_matrix(n)
    assert height == (2 if n in (105, 561) else 1)
    edge = (2**63 - 1) // (3 * height)  # the largest L with 3 L h < 2^63
    assert 3 * edge * height < 2**63 <= 3 * (edge + 1) * height
    for rest in (0, 1):
        for sign in (1, -1):
            for norm, unpacks in ((edge, 0), (edge + 1, 3)):
                v = sign * (norm - 2 * rest)
                t = [ctx.from_rational(x) for x in (v, rest, rest)]
                want = unpacked_eigenvalues(ctx, t)
                with monkeypatch.context() as m:
                    calls = count_calls(m, "unpack", CyclotomicContext)
                    got = cyclosum.matrices._circulant_eigenvalues(ctx, t)
                assert got == want == [ctx.from_rational(x) for x in
                                       ((v + 2 * rest, v - rest, v - rest))], (v, rest)
                assert calls[0] == unpacks, (v, rest)


@pytest.mark.parametrize("n", (2, 3, 12, 30, 101, 105, 128, 561))
def test_reduction_matrix_reduces_every_power_past_phi(n):
    # Row m is x^(phi + m) modulo Phi_n, checked against zeta_pow, and the
    # height is the largest coefficient of those rows and of Psi_n.
    ctx = cyc_context(n)
    reduction, height = cyclosum.matrices._reduction_matrix(n)
    deg = ctx.basis_degree
    assert reduction.shape == (n - deg, deg) and reduction.dtype == np.int64
    for m, row in enumerate(reduction.tolist()):
        assert row == list(ctx.zeta_pow(deg + m).nums), (n, m)
    assert height == max(max(abs(v) for row in reduction.tolist() for v in row),
                         max(abs(c) for _, c in ctx._psi))


@pytest.mark.parametrize("n", (4, 6, 9, 12))
def test_inverse_dft_rebuilds_the_row_of_a_spectrum(n):
    # sum_k c_k zeta^(-(n/N) jk) for random integers c, against the same
    # sum in field arithmetic, for every order N dividing n.
    rng = Random(22_000 + n)
    ctx = cyc_context(n)
    for order in (k for k in range(1, n + 1) if n % k == 0):
        c = [rng.randint(-50, 50) for _ in range(order)]
        got = cyclosum.matrices._inverse_dft(ctx, np.array(c, dtype=np.int64), order)
        step = n // order
        for j in range(order):
            want = sum((ctx.zeta_pow(-step * j * k) * ck for k, ck in enumerate(c)), ctx.zero)
            assert got[j].tolist() == list(want.nums), (n, order, j)


def test_sun_row_spectrum_at_401_stays_small(monkeypatch):
    # The tables are O(N n) int64 values and the route forms no N x N x phi
    # array (about 512 MB here); tracemalloc sees numpy's buffers.
    ctx = cyc_context(401)
    t = cyclosum.matrices._circulant_row(build_sun_matrix(ctx))
    cyclosum.matrices._dft_grid.cache_clear()
    cyclosum.matrices._reduction_matrix.cache_clear()
    calls = count_calls(monkeypatch, "unpack", CyclotomicContext)
    tracemalloc.start()
    try:
        lams = cyclosum.matrices._circulant_eigenvalues(ctx, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls[0] == 0 and all(lam.is_rational() for lam in lams)
    assert peak < 64 * 2**20, peak


@pytest.mark.parametrize("n", range(2, 34))
def test_sun_and_cotangent_spectra_take_no_unpack(n, monkeypatch):
    # Theorem 2.1: every eigenvalue of these rows, and of their minors'
    # rows, is rational, so the Psi_n test reads each one.
    ctx = cyc_context(n)
    rows = [cyclosum.matrices._circulant_row(m) for full in build_sun_and_cp_matrices(ctx)
            for m in (full, delete_rows_cols(full, {n}))]
    want = [unpacked_eigenvalues(ctx, t) for t in rows]
    calls = count_calls(monkeypatch, "unpack", CyclotomicContext)
    got = [cyclosum.matrices._circulant_eigenvalues(ctx, t) for t in rows]
    assert calls[0] == 0
    assert got == want


def test_a_folded_top_digit_in_the_upper_half_is_carried(monkeypatch):
    # Row (-4, 1, 1) at n = 3 has eigenvalues -2, -5, -5, which the
    # certificate reads with no unpack.  Its s_1 = -4 + x + x^2 gives
    # s_1 Psi_3 = x^3 - 5x + 4, which packs into [2^(w-1), 2^w), w = 3
    # bits; fold must carry it to the balanced form -5x + 5 = -5 Psi_3.
    ctx = cyc_context(3)
    t = [ctx.from_rational(v) for v in (-4, 1, 1)]
    calls = count_calls(monkeypatch, "unpack", CyclotomicContext)
    got = cyclosum.matrices._circulant_eigenvalues(ctx, t)
    assert calls[0] == 0
    assert got == [ctx.from_rational(v) for v in (-2, -5, -5)]
    bits = 5
    value = ctx.pack([4, -5, 0, 1], bits)
    assert 1 << 3 * bits - 1 <= value < 1 << 3 * bits
    assert ctx.fold(value, bits) == ctx.pack([5, -5, 0], bits)


@pytest.mark.parametrize("n", range(3, 26, 2))
def test_spectral_det_on_sun_and_cotangent_minors(n):
    ctx = cyc_context(n)
    sun_minor = delete_rows_cols(build_sun_matrix(ctx), {n})
    cp_minor = delete_rows_cols(build_cp_matrix(ctx), {1})
    for m, closed_form in ((sun_minor, minor_determinant(n)),
                           (cp_minor, cp_minor_determinant(n))):
        assert circulant_order(m) == n
        det = det_exact(m)
        assert det == eliminated(m) == closed_form
        if n <= 7:
            assert det == leibniz_det(m)


@pytest.mark.parametrize("n", range(2, 15, 2))
def test_spectral_det_on_full_sun_matrix(n):
    sun = build_sun_matrix(cyc_context(n))
    assert circulant_order(sun) == n
    det = det_exact(sun)
    if n > 2:  # the 2 x 2 matrix is circulant after a row swap as well
        assert det == eliminated(sun)
    if n <= 6:
        assert det == leibniz_det(sun)
    # eq1_1's twisted form: per = (-1)^(n/2) det
    assert det * (-1) ** (n // 2) == full_permanent(n)


@pytest.mark.parametrize("n", (4, 6, 12, 15))
def test_spectral_det_on_random_circulants_and_minors(n):
    # Every order N dividing n, so w = zeta^(n/N) runs over proper roots too.
    rng = Random(12_000 + n)
    ctx = cyc_context(n)
    for order in (k for k in range(1, n + 1) if n % k == 0 and k <= 12):
        full = circulant(ctx, random_row(ctx, order, rng))
        # A minor of an order-2 circulant is 1 x 1, itself an order-1 circulant.
        shapes = [full] if order < 3 else [full, delete_rows_cols(full, {order})]
        for m in shapes:
            assert circulant_order(m) == order, f"n={n} N={order} dim={m.dim}"
            det = det_exact(m)
            if m.dim >= 3:
                assert det == eliminated(m), f"n={n} N={order} dim={m.dim}"
            if m.dim <= 5:
                assert det == leibniz_det(m), f"n={n} N={order} dim={m.dim}"


@pytest.mark.parametrize("n", (4, 6, 12))
def test_spectral_det_on_singular_circulants(n):
    # One zero eigenvalue: det C = 0 while the minor generally is not.
    # Two zero eigenvalues: every (N-1)-minor vanishes too.
    rng = Random(13_000 + n)
    ctx = cyc_context(n)
    for order in (k for k in range(3, n + 1) if n % k == 0):
        for zeros in (1, 2):
            full = circulant(ctx, singular_row(ctx, order, rng, zeros))
            minor = delete_rows_cols(full, {1})
            assert circulant_order(full) == order
            assert circulant_order(minor) == order
            assert det_exact(full) == 0 == eliminated(full)
            det = det_exact(minor)
            assert det == eliminated(minor)
            if minor.dim <= 5:
                assert det == leibniz_det(minor)
            assert (det == 0) == (zeros == 2), f"n={n} N={order} zeros={zeros}"


@pytest.mark.parametrize("n", (3, 6, 9, 12))
def test_spectral_det_on_two_by_two_with_equal_diagonal(n):
    # [[a, b], [c, a]] is the minor of the circulant with row 0 (a, b, c).
    rng = Random(14_000 + n)
    ctx = cyc_context(n)
    for _ in range(4):
        a, b, c = random_row(ctx, 3, rng)
        if b == c:
            continue
        m = make_matrix(ctx, [[a, b], [c, a]])
        assert circulant_order(m) == 3
        assert det_exact(m) == a * a - b * c == leibniz_det(m)


@pytest.mark.parametrize("n", (3, 16, 21, 25))
def test_spectral_det_carries_large_negative_coefficients(n):
    ctx = cyc_context(n)
    for order in (k for k in range(3, 9) if n % k == 0):
        full = circulant(ctx, negative_matrix(n, order).entries[0])
        for m in (full, delete_rows_cols(full, {order})):
            assert det_exact(m) == eliminated(m), f"n={n} dim={m.dim}"


def test_det_falls_back_when_the_order_does_not_divide_n(monkeypatch):
    # A 3 x 3 circulant over Q(zeta_4): zeta_3 is not in the field.
    rng = Random(15_000)
    ctx = cyc_context(4)
    m = circulant(ctx, random_row(ctx, 3, rng))
    assert circulant_order(m) == 3
    calls = count_calls(monkeypatch, "inverse")
    assert det_exact(m) == leibniz_det(m)
    assert calls[0] > 0


def test_det_circulance_is_checked_on_every_entry():
    # Circulant, and a minor of one, except for one entry of the last row
    # outside the first column: a detector that read only row 0 and
    # column 0 would take the spectral route and return the wrong value.
    rng = Random(16_000)
    ctx = cyc_context(6)
    base = circulant(ctx, random_row(ctx, 6, rng))
    for m in (base, delete_rows_cols(base, {6})):
        rows = [list(row) for row in m.entries]
        rows[-1][2] = rows[-1][2] + 1
        near = make_matrix(ctx, rows)
        assert circulant_order(near) is None
        assert det_exact(near) == leibniz_det(near) != leibniz_det(m)


def test_sun_minor_determinant_takes_no_inverse(monkeypatch):
    # A silent fall-back to elimination inverts every pivot.
    n = 25
    minor = delete_rows_cols(build_sun_matrix(cyc_context(n)), {n})
    calls = count_calls(monkeypatch, "inverse")
    assert det_exact(minor) == minor_determinant(n)
    assert calls[0] == 0


# --- the sun entries as Galois images ------------------------------------------


def divisor_count(n: int) -> int:
    return sum(1 for g in range(1, n + 1) if n % g == 0)


@pytest.mark.parametrize("n", [*range(2, 65), 101, 105])
def test_sun_entries_are_galois_images_of_one_inverse_per_divisor(n, monkeypatch):
    ctx = cyc_context(n)
    calls = count_calls(monkeypatch, "inverse")
    got = cyclosum.matrices._sun_entries(ctx)
    assert calls[0] == divisor_count(n) - 1  # every divisor g < n
    assert sorted(got) == list(range(1, n))
    for d in range(1, n):
        assert got[d] == (ctx.one - ctx.zeta_pow(d)).inverse(), f"n={n} d={d}"


def test_circulance_is_exact_on_entries_that_are_not_shared(monkeypatch):
    # The builders share one object per difference; a matrix read back from
    # JSON shares none, and must take the same routes.
    calls = count_calls(monkeypatch, "inverse")
    for n in (9, 15):
        ctx = cyc_context(n)
        sun = build_sun_matrix(ctx)
        for m in (sun, delete_rows_cols(sun, {n})):
            read = matrix_from_json(matrix_to_json(m))
            assert read == m and read.entries[0][1] is not m.entries[0][1]
            assert circulant_order(read) == n
            calls[0] = 0
            assert det_exact(read) == (minor_determinant(n) if read.dim < n else 0)
            assert calls[0] == 0
            rows = [list(row) for row in m.entries]
            e = rows[-1][1]
            rows[-1][1] = CycElem(ctx, list(e.nums), e.den)
            assert rows[-1][1] is not e
            assert circulant_order(make_matrix(ctx, rows)) == n
            rows[-1][1] = e + 1
            assert circulant_order(make_matrix(ctx, rows)) is None


# --- characteristic polynomials from the circulant spectrum ----------------------


def nonzero_row(ctx, order: int, rng: Random) -> list:
    """random_row with entry j replaced by j + 1 where it is zero."""
    return [e or ctx.from_rational(j + 1) for j, e in enumerate(random_row(ctx, order, rng))]


def twisted_product(c: ExactMatrix) -> ExactMatrix:
    """c without its last row and column, times diag(1 - zeta^k),
    k = 1..n-1, by the triple-loop product."""
    ctx, d = c.context, c.dim
    scale = make_matrix(ctx, [
        [1 - ctx.zeta_pow(k) if k == j else 0 for k in range(1, d)] for j in range(1, d)
    ])
    return matmul(delete_rows_cols(c, {d}), scale)


@pytest.mark.parametrize("n", range(2, 12))
def test_circulant_charpoly_on_sun_and_cotangent_matrices(n):
    ctx = cyc_context(n)
    for full in (build_sun_matrix(ctx), build_cp_matrix(ctx)):
        for m in (full, delete_rows_cols(full, {1}), delete_rows_cols(full, {n})):
            if m.dim >= 2:
                assert circulant_order(m) == n
            assert charpoly_exact(m) == charpoly_reference(m), f"n={n} dim={m.dim}"


@pytest.mark.parametrize("n", range(2, 26))
def test_rational_spectra_take_the_integer_product(n, monkeypatch):
    # The sun and cotangent circulants and their minors have rational
    # spectra (Theorem 2.1), half-integers for the sun matrix at even n, so
    # their characteristic polynomials are multiplied out over Z, with no
    # product in the field.  The oracles: Faddeev-LeVerrier while it is
    # cheap, the field product on the same spectrum at every n, and the
    # Leibniz determinant at small n.
    ctx = cyc_context(n)
    shapes = [m for full in (build_sun_matrix(ctx), build_cp_matrix(ctx))
              for m in (full, delete_rows_cols(full, {n}))]
    want = [charpoly_reference(m) for m in shapes] if n <= 12 else None
    products = count_calls(monkeypatch, "__mul__")
    got = [charpoly_exact(m) for m in shapes]
    dets = [det_exact(m) for m in shapes]
    assert products[0] == 0
    if want is not None:
        assert got == want
    if n <= 6:
        assert dets == [leibniz_det(m) for m in shapes]
    assert dets == [(-1) ** m.dim * c[0] for m, c in zip(shapes, got)]
    monkeypatch.setattr(CycElem, "is_rational", lambda self: False)
    assert [charpoly_exact(m) for m in shapes] == got
    assert products[0] > 0


def spectrum_row(ctx, lams: list) -> list:
    """Row 0 of the order-N circulant with eigenvalues lams, N = len(lams)
    dividing n: t_j = (1/N) sum_k lambda_k w^(-jk), w = zeta^(n/N)."""
    order = len(lams)
    step = ctx.n // order
    return [sum((lam * ctx.zeta_pow(-step * j * k) for k, lam in enumerate(lams)), ctx.zero)
            / order for j in range(order)]


@pytest.mark.parametrize("n", (5, 6, 12))
def test_spectra_with_an_irrational_eigenvalue_take_the_field_product(n, monkeypatch):
    # One spectrum rational but for its last eigenvalue, and one with a
    # single rational eigenvalue: a route that took the integer product
    # when any eigenvalue, or only the first, is rational reads the
    # irrational ones by their constant coefficient and is wrong here.
    ctx = cyc_context(n)
    order = max(k for k in range(1, 7) if n % k == 0)
    zeta = ctx.zeta_pow(1)
    rational = [ctx.from_rational(Fraction(k - 2, 3)) for k in range(order - 1)]
    spectra = {
        "all rational but one": rational + [1 + zeta],
        "one rational": [ctx.from_rational(Fraction(-5, 2))]
                        + [zeta + k for k in range(1, order)],
    }
    for kind, lams in spectra.items():
        t = spectrum_row(ctx, lams)
        assert cyclosum.matrices._circulant_eigenvalues(ctx, t) == lams, kind
        full = circulant(ctx, t)
        for m in (full, delete_rows_cols(full, {order})):
            products = count_calls(monkeypatch, "__mul__")
            got = charpoly_exact(m)
            assert products[0] > 0, f"{kind} dim={m.dim}"
            assert got == charpoly_reference(m), f"{kind} dim={m.dim}"
            assert det_exact(m) == leibniz_det(m), f"{kind} dim={m.dim}"


@pytest.mark.parametrize("n", (4, 5, 6, 7, 9, 12))
def test_circulant_charpoly_on_random_circulants_and_minors(n):
    # Every order N dividing n, random and singular rows, with no zero
    # entry.  p'(x) / N for a minor: a
    # route that dropped the 1/N would return N times the answer.  Each
    # row of order >= 2 has an irrational eigenvalue, so this is the field
    # product.
    rng = Random(18_000 + n)
    ctx = cyc_context(n)
    for order in (k for k in range(1, n + 1) if n % k == 0 and k <= 9):
        rows = [nonzero_row(ctx, order, rng)]
        if order >= 3:
            rows.append(singular_row(ctx, order, rng, 1))
        for t in rows:
            lams = cyclosum.matrices._circulant_eigenvalues(ctx, t)
            assert order < 2 or not all(lam.is_rational() for lam in lams), f"n={n} N={order}"
            full = circulant(ctx, t)
            shapes = [full] if order < 3 else [full, delete_rows_cols(full, {order})]
            for m in shapes:
                assert circulant_order(m) == order, f"n={n} N={order} dim={m.dim}"
                want = charpoly_reference(m)
                assert charpoly_exact(m) == want, f"n={n} N={order} dim={m.dim}"


def test_charpoly_refuses_a_non_circulant_or_an_order_not_dividing_n():
    # A 3 x 3 circulant over Q(zeta_4), and a circulant with one entry off.
    rng = Random(19_000)
    ctx = cyc_context(4)
    m = circulant(ctx, random_row(ctx, 3, rng))
    base = circulant(ctx, random_row(ctx, 4, rng))
    rows = [list(row) for row in base.entries]
    rows[-1][1] = rows[-1][1] + 1
    near = make_matrix(ctx, rows)
    assert circulant_order(m) == 3 and circulant_order(near) is None
    for a in (m, near):
        with pytest.raises(ValueError):
            charpoly_exact(a)


@pytest.mark.parametrize("n", (4, 5, 6, 7, 9, 12))
def test_twisted_charpoly_on_random_circulants(n):
    # det(xI - P) = (p(x) - p(0)) / x.  The random rows have p(0) = +-det C
    # != 0, so a lemma that took p(x) / x, the spectrum of C without a 0,
    # would fail here while passing on the sun matrix of odd order.
    rng = Random(20_000 + n)
    ctx = cyc_context(n)
    twisted_charpoly = cyclosum.spectral._twisted_charpoly
    c = circulant(ctx, nonzero_row(ctx, n, rng))
    assert det_exact(c) != 0
    p = twisted_product(c)
    assert circulant_order(p) is None  # so the lemma is not p's own spectrum
    assert twisted_charpoly(c) == charpoly_reference(p)
    # A circulant of a smaller order is not the sun matrix's shape.
    for order in (k for k in range(2, n) if n % k == 0):
        assert twisted_charpoly(circulant(ctx, nonzero_row(ctx, order, rng))) is None


@pytest.mark.parametrize("n", range(3, 12, 2))
def test_twisted_charpoly_on_the_sun_matrix(n):
    sun = build_sun_matrix(cyc_context(n))
    want = charpoly_reference(twisted_product(sun))
    assert cyclosum.spectral._twisted_charpoly(sun) == want
