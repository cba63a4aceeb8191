"""Oracle tests for the integer kernels: the norm-based inverse, the Galois
maps, Kronecker packing, the packed permanent on both its routes (Gray
code, and the orbit walk over a circulant or a minor of one), matrix
product and characteristic polynomial, the necklace and orbit generators,
the exact spectrum of a circulant, and the determinant on both its routes
(Gaussian elimination and that spectrum).

Each packed kernel is compared with an implementation that does every step
in CycElem arithmetic: the naive permanent, the Leibniz determinant and
the naive circulant eigenvalues from oracles.py, and the triple-loop
product and element-wise Faddeev-LeVerrier recurrence below.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random

import pytest

import cyclosum.matrices
import cyclosum.spectral
from cyclosum.exact import (
    CycElem,
    cp_minor_determinant,
    cyc_context,
    full_permanent,
    minor_determinant,
    minor_permanent,
)
from cyclosum.matrices import (
    ExactMatrix,
    build_cp_matrix,
    build_sun_matrix,
    charpoly_exact,
    delete_rows_cols,
    det_exact,
    make_matrix,
    matmul,
    permanent_ryser,
)
from oracles import circulant_eigenvalues_naive, identity_matrix, leibniz_det, permanent_naive

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


def gray_walk(m: ExactMatrix) -> CycElem:
    """per(m) by the Gray-code walk: swapping rows 1 and 2 keeps the
    permanent and, from dimension 3 on, breaks circulance, which is
    asserted."""
    rows = list(m.entries)
    rows[0], rows[1] = rows[1], rows[0]
    swapped = make_matrix(m.context, rows)
    assert circulant_order(swapped) is None
    return permanent_ryser(swapped, cap=m.dim)


def symmetries(m: ExactMatrix) -> list[int]:
    """The Galois symmetry group the orbit route finds on m's circulant row."""
    _, (nums,) = cyclosum.matrices._cleared((cyclosum.matrices._circulant_row(m),))
    return cyclosum.matrices._galois_symmetries(m.context, nums)


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


@pytest.mark.parametrize("n", range(2, 15))
def test_necklace_route_matches_gray_code_on_sun_matrix(n):
    # The sun matrix's row has every unit mod n as a symmetry, and C + xI
    # keeps them, so the full matrix and its minor both take the largest
    # orbits.  The 2 x 2 matrices stay circulant under a row swap and are
    # compared with the naive permanent instead.
    sun = build_sun_matrix(cyc_context(n))
    minor = delete_rows_cols(sun, {n})
    assert symmetries(sun) == units(n)
    assert circulant_order(sun) == n and circulant_order(minor) == (n if n > 2 else 1)
    for m in (sun, minor):
        got = permanent_ryser(m, cap=m.dim)
        if m.dim > 2:
            assert got == gray_walk(m), f"n={n} dim={m.dim}"
        if m.dim <= 7:
            assert got == permanent_naive(m), f"n={n} dim={m.dim}"
    if n % 2:
        assert permanent_ryser(minor) == minor_permanent(n)
    else:
        assert permanent_ryser(sun) == full_permanent(n)


@pytest.mark.parametrize("n", (15, 16))
def test_orbit_route_matches_necklaces_on_larger_sun_matrices(n, monkeypatch):
    # Past the Gray-code walk's reach, the same walk with H = {1} (the
    # plain necklace sum, weighted by period) is the oracle.
    sun = build_sun_matrix(cyc_context(n))
    matrices = (sun, delete_rows_cols(sun, {n}))
    fast = [permanent_ryser(m, cap=m.dim) for m in matrices]
    monkeypatch.setattr(cyclosum.matrices, "_galois_symmetries", lambda ctx, nums: [1])
    assert fast == [permanent_ryser(m, cap=m.dim) for m in matrices]


@pytest.mark.parametrize("n", (3, 5, 6, 8, 9, 12))
def test_orbit_route_on_random_galois_symmetric_rows(n):
    rng = Random(12_000 + n)
    ctx = cyc_context(n)
    for _ in range(2):
        for m in with_minors(ctx, galois_row(ctx, rng)):
            assert symmetries(m) == units(n)
            got = permanent_ryser(m)
            assert got == gray_walk(m), f"n={n} dim={m.dim}"
            if m.dim <= 7:
                assert got == permanent_naive(m), f"n={n} dim={m.dim}"


@pytest.mark.parametrize("n", (5, 7, 8))
def test_orbit_route_on_a_row_symmetric_under_conjugation_only(n):
    # t_c = zeta^c + zeta^-c + r_c with r_c = r_-c but r_1 != r_u for every
    # other unit u: only sigma_(-1) maps the row onto itself.
    ctx = cyc_context(n)
    r = [Fraction(min(c, n - c) ** 2, 3) for c in range(n)]
    first = [ctx.zeta_pow(c) + ctx.zeta_pow(-c) + r[c] for c in range(n)]
    for m in with_minors(ctx, first):
        assert symmetries(m) == [1, n - 1]
        got = permanent_ryser(m)
        assert got == gray_walk(m) == permanent_naive(m), f"n={n} dim={m.dim}"


@pytest.mark.parametrize("n", (3, 4, 12))
def test_necklace_route_matches_naive_on_random_circulants(n):
    # Dimensions 4, 6 and 8 have necklaces of every proper period dividing
    # them.  A random row has no Galois symmetry but the identity.  The
    # naive permanent, which shares no code with either route, is the
    # oracle at every size here; the Gray walk is checked as well.
    rng = Random(10_000 + n)
    ctx = cyc_context(n)
    for order in range(1, 9):
        for m in with_minors(ctx, random_row(ctx, order, rng)):
            assert circulant_order(m) == order
            if order == n:
                assert symmetries(m) == [1]
            got = permanent_ryser(m)
            assert got == permanent_naive(m), f"n={n} N={order} dim={m.dim}"
            if m.dim > 2:
                assert got == gray_walk(m), f"n={n} N={order} dim={m.dim}"


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
    # Rational values constant on each class {c : gcd(c, n) = g} are Galois
    # symmetric; zero on most classes, they leave most row sums zero.
    q = Fraction(-3, 4)
    for n, classes in ((6, {1: q}), (6, {2: q, 3: 1}), (8, {1: q}), (8, {4: q, 8: -q})):
        ctx = cyc_context(n)
        first = [ctx.from_rational(classes.get(math.gcd(c, n), 0)) for c in range(n)]
        for m in with_minors(ctx, first):
            assert symmetries(m) == units(n)
            got = permanent_ryser(m)
            assert got == permanent_naive(m) == gray_walk(m), (n, classes, m.dim)


def test_a_perturbed_sun_matrix_falls_back_to_the_gray_code_walk(monkeypatch):
    # One entry off breaks circulance: the orbit route must not run, and the
    # Gray-code walk must give the perturbed matrix's own permanent.  One
    # value off in every row keeps circulance but breaks the symmetry
    # sigma_u(t_1) = t_u, which leaves only u = 1 and -1 as symmetries of
    # the row.
    ctx = cyc_context(7)
    sun = build_sun_matrix(ctx)
    rows = [list(row) for row in sun.entries]
    rows[4][2] = rows[4][2] + 1
    near = make_matrix(ctx, rows)
    first = list(sun.entries[0])
    first[1] = first[1] + ctx.zeta_pow(1)
    first[6] = first[6] + ctx.zeta_pow(-1)
    twisted = circulant(ctx, first)
    assert circulant_order(near) is None and symmetries(twisted) == [1, 6]
    want = [permanent_naive(near), permanent_naive(twisted)]
    assert want[0] != permanent_naive(sun)

    def refuse(*args):
        raise AssertionError("the orbit route ran on a matrix that is not circulant")

    assert permanent_ryser(twisted) == want[1]
    monkeypatch.setattr(cyclosum.matrices, "_orbits", refuse)
    assert permanent_ryser(near) == want[0]


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


def subgroups(d: int) -> list[list[int]]:
    """The unit group mod d, {1, -1} and the subgroup generated by 3 or 5
    when coprime to d, each sorted, without repeats."""
    out = [units(d) or [1], sorted({1, (d - 1) or 1})]
    for g in (3, 5):
        if math.gcd(g, d) == 1:
            out.append(sorted({pow(g, e, d) or 1 for e in range(d)}))
    return [list(h) for h in dict.fromkeys(map(tuple, out))]


@pytest.mark.parametrize("d", range(1, 13))
def test_orbits_yield_each_affine_orbit_once_at_its_size(d):
    # Brute force: the orbit of every subset under c -> uc + s, u in the
    # group, s mod d, and its least rotation-minimal member.
    mask = (1 << d) - 1

    def image(word, u, s):
        return sum(1 << (u * c + s) % d for c in range(d) if word >> c & 1) & mask

    for group in subgroups(d):
        orbits = {}
        for word in range(1 << d):
            orbit = frozenset(image(word, u, s) for u in group for s in range(d))
            orbits[min(orbit)] = len(orbit)
        got = list(cyclosum.matrices._orbits(d, group))
        assert dict(got) == orbits, f"d={d} group={group}"
        assert len(got) == len(orbits)
        assert sum(size for _, size in got) == 1 << d


# --- determinants ------------------------------------------------------------


def count_inverses(monkeypatch) -> list[int]:
    """Patch CycElem.inverse to count its calls into the returned cell."""
    calls = [0]
    inverse = CycElem.inverse

    def counted(self):
        calls[0] += 1
        return inverse(self)

    monkeypatch.setattr(CycElem, "inverse", counted)
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
    calls = count_inverses(monkeypatch)
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
    calls = count_inverses(monkeypatch)
    assert det_exact(minor) == minor_determinant(n)
    assert calls[0] == 0


# --- characteristic polynomials from the circulant spectrum ----------------------


def count_matmuls(monkeypatch) -> list[int]:
    """Patch the packed product, which only Faddeev-LeVerrier calls on
    these inputs, to count its calls into the returned cell."""
    calls = [0]
    packed = cyclosum.matrices._matmul_ints

    def counted(ctx, a, b):
        calls[0] += 1
        return packed(ctx, a, b)

    monkeypatch.setattr(cyclosum.matrices, "_matmul_ints", counted)
    return calls


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
    return matmul_reference(delete_rows_cols(c, {d}), scale)


@pytest.mark.parametrize("n", range(2, 12))
def test_circulant_charpoly_on_sun_and_cotangent_matrices(n, monkeypatch):
    ctx = cyc_context(n)
    calls = count_matmuls(monkeypatch)
    for full in (build_sun_matrix(ctx), build_cp_matrix(ctx)):
        for m in (full, delete_rows_cols(full, {1}), delete_rows_cols(full, {n})):
            if m.dim >= 2:
                assert circulant_order(m) == n
            want = charpoly_reference(m)
            calls[0] = 0
            assert charpoly_exact(m) == want, f"n={n} dim={m.dim}"
            assert calls[0] == 0


@pytest.mark.parametrize("n", (4, 5, 6, 7, 9, 12))
def test_circulant_charpoly_on_random_circulants_and_minors(n, monkeypatch):
    # Every order N dividing n, random and singular rows, with no zero
    # entry.  p'(x) / N for a minor: a
    # route that dropped the 1/N would return N times the answer.
    rng = Random(18_000 + n)
    ctx = cyc_context(n)
    calls = count_matmuls(monkeypatch)
    for order in (k for k in range(1, n + 1) if n % k == 0 and k <= 9):
        rows = [nonzero_row(ctx, order, rng)]
        if order >= 3:
            rows.append(singular_row(ctx, order, rng, 1))
        for t in rows:
            full = circulant(ctx, t)
            shapes = [full] if order < 3 else [full, delete_rows_cols(full, {order})]
            for m in shapes:
                assert circulant_order(m) == order, f"n={n} N={order} dim={m.dim}"
                want = charpoly_reference(m)
                calls[0] = 0
                assert charpoly_exact(m) == want, f"n={n} N={order} dim={m.dim}"
                assert calls[0] == 0


def test_charpoly_falls_back_when_the_order_does_not_divide_n(monkeypatch):
    # A 3 x 3 circulant over Q(zeta_4), and a circulant with one entry off.
    rng = Random(19_000)
    ctx = cyc_context(4)
    m = circulant(ctx, random_row(ctx, 3, rng))
    base = circulant(ctx, random_row(ctx, 4, rng))
    rows = [list(row) for row in base.entries]
    rows[-1][1] = rows[-1][1] + 1
    near = make_matrix(ctx, rows)
    assert circulant_order(m) == 3 and circulant_order(near) is None
    calls = count_matmuls(monkeypatch)
    for a in (m, near):
        calls[0] = 0
        assert charpoly_exact(a) == charpoly_reference(a)
        assert calls[0] == a.dim


@pytest.mark.parametrize("n", (4, 5, 6, 7, 9, 12))
def test_twisted_charpoly_on_random_circulants(n, monkeypatch):
    # det(xI - P) = (p(x) - p(0)) / x.  The random rows have p(0) = +-det C
    # != 0, so a lemma that took p(x) / x, the spectrum of C without a 0,
    # would fail here while passing on the sun matrix of odd order.
    rng = Random(20_000 + n)
    ctx = cyc_context(n)
    twisted_charpoly = cyclosum.spectral._twisted_charpoly
    calls = count_matmuls(monkeypatch)
    c = circulant(ctx, nonzero_row(ctx, n, rng))
    assert det_exact(c) != 0
    p = twisted_product(c)
    assert circulant_order(p) is None  # so charpoly_exact is generic
    want = charpoly_reference(p)
    assert charpoly_exact(p) == want
    calls[0] = 0
    assert twisted_charpoly(c) == want
    assert calls[0] == 0
    # A circulant of a smaller order is not the sun matrix's shape.
    for order in (k for k in range(2, n) if n % k == 0):
        assert twisted_charpoly(circulant(ctx, nonzero_row(ctx, order, rng))) is None


@pytest.mark.parametrize("n", range(3, 12, 2))
def test_twisted_charpoly_on_the_sun_matrix(n):
    sun = build_sun_matrix(cyc_context(n))
    want = charpoly_reference(twisted_product(sun))
    assert cyclosum.spectral._twisted_charpoly(sun) == want
