"""Dense square matrices over Q(zeta_n): structured builders plus exact
determinant, permanent, and sign-split derangement-sum kernels.

The permanent and the derangement sums are exponential-time; their dimension
caps are explicit arguments defaulting to PERMANENT_CAP, and exceeding a cap
raises CapExceededError rather than hanging.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .exact import ContextMismatchError, CycElem, CyclotomicContext, cyc_context, parse_elem

# The default dimension cap of every permanent: the kernels', the campaign's
# and the CLI's.
PERMANENT_CAP = 16


class CapExceededError(ValueError):
    """An exponential-time kernel was asked to exceed its dimension cap."""


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable dim x dim matrix of CycElem values sharing one context."""

    context: CyclotomicContext
    dim: int
    entries: tuple[tuple[CycElem, ...], ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("matrix dimension must be at least 1")
        if len(self.entries) != self.dim or any(
            len(row) != self.dim for row in self.entries
        ):
            raise ValueError("entries are not a dim x dim grid")
        for row in self.entries:
            for e in row:
                if e.context.n != self.context.n:
                    raise ContextMismatchError(
                        f"entry of order {e.context.n} in order-{self.context.n} matrix"
                    )

    def entry(self, j: int, k: int) -> CycElem:
        """1-based accessor."""
        if not (1 <= j <= self.dim and 1 <= k <= self.dim):
            raise IndexError(f"({j},{k}) outside 1..{self.dim}")
        return self.entries[j - 1][k - 1]

    def zero_diagonal(self) -> "ExactMatrix":
        z = self.context.zero
        return replace(
            self,
            entries=tuple(
                tuple(z if r == c else e for c, e in enumerate(row))
                for r, row in enumerate(self.entries)
            ),
        )


def make_matrix(
    context: CyclotomicContext,
    rows: Sequence[Sequence[CycElem | Fraction | int]],
) -> ExactMatrix:
    """Build a matrix from rows, coercing rational entries into the context."""
    coerced = tuple(
        tuple(e if isinstance(e, CycElem) else context.from_rational(e) for e in row)
        for row in rows
    )
    return ExactMatrix(context, len(coerced), coerced)


# -- structured builders ----------------------------------------------------


def build_sun_matrix(ctx: CyclotomicContext) -> ExactMatrix:
    """The n x n zero-diagonal matrix with entry (j,k) = 1/(1 - zeta^(j-k)).

    The sign-class statements are written for its transpose (exponent k-j);
    determinants, permanents, and derangement sums do not distinguish the
    two.
    """
    return _by_difference(ctx, _sun_entries(ctx))


def build_cp_matrix(ctx: CyclotomicContext) -> ExactMatrix:
    """The cotangent matrix with entries (1-delta_jk)(1 + i cot((j-k)pi/n)),
    held exactly as 2/(1 - zeta^(j-k)); Hermitian under the embedding."""
    return build_sun_and_cp_matrices(ctx)[1]


def build_sun_and_cp_matrices(ctx: CyclotomicContext) -> tuple[ExactMatrix, ExactMatrix]:
    """The sun matrix and the cotangent matrix, twice it, from one set of
    the n-1 distinct off-diagonal values: each is inverted once and doubled
    once."""
    inv = _sun_entries(ctx)
    twice = {d: v + v for d, v in inv.items()}
    return _by_difference(ctx, inv), _by_difference(ctx, twice)


def _sun_entries(ctx: CyclotomicContext) -> dict[int, CycElem]:
    """1/(1 - zeta^d) for d = 1..n-1."""
    return {d: (ctx.one - ctx.zeta_pow(d)).inverse() for d in range(1, ctx.n)}


def _by_difference(ctx: CyclotomicContext, values: dict[int, CycElem]) -> ExactMatrix:
    """The n x n matrix with entry (j,k) = values[(j-k) mod n] off the
    diagonal and 0 on it."""
    n = ctx.n
    zero = ctx.zero
    rows = tuple(
        tuple(zero if j == k else values[(j - k) % n] for k in range(n)) for j in range(n)
    )
    return ExactMatrix(ctx, n, rows)


def delete_rows_cols(m: ExactMatrix, deleted: Iterable[int]) -> ExactMatrix:
    """Principal sub-matrix on the complement of the 1-based index set."""
    s = set(deleted)
    if not all(1 <= i <= m.dim for i in s):
        raise ValueError(f"deletion indices {sorted(s)} outside 1..{m.dim}")
    if len(s) >= m.dim:
        raise ValueError("cannot delete every index")
    keep = [i - 1 for i in range(1, m.dim + 1) if i not in s]
    rows = tuple(tuple(m.entries[r][c] for c in keep) for r in keep)
    return ExactMatrix(m.context, len(keep), rows)


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.context.n != b.context.n:
        raise ContextMismatchError(
            f"mixed cyclotomic orders {a.context.n} and {b.context.n}"
        )
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch {a.dim} vs {b.dim}")
    ctx = a.context
    da, ia = _cleared(a.entries)
    db, ib = _cleared(b.entries)
    den = da * db
    rows = tuple(
        tuple(CycElem(ctx, nums, den) for nums in row) for row in _matmul_ints(ctx, ia, ib)
    )
    return ExactMatrix(ctx, a.dim, rows)


# -- integer kernels ----------------------------------------------------------
#
# permanent_ryser, matmul and charpoly_exact clear denominators once and run
# on integer coefficient vectors over Z[zeta_n], Kronecker-packed into one
# Python integer per entry (CyclotomicContext.pack); the digit width comes
# from a proven bound on the coefficients of everything the kernel packs.


def _l1(nums: Sequence[int]) -> int:
    return sum(map(abs, nums))


def _cleared(
    entries: Sequence[Sequence[CycElem]],
) -> tuple[int, list[list[Sequence[int]]]]:
    """The lcm D of the denominators of the rows of elements, and the
    integer coefficient vectors of D times each, which lie in Z[zeta_n]."""
    den = math.lcm(*(e.den for row in entries for e in row))
    rows = [
        [e.nums if e.den == den else [v * (den // e.den) for v in e.nums] for e in row]
        for row in entries
    ]
    return den, rows


def _matmul_ints(ctx: CyclotomicContext, a: list, b: list) -> list[list[list[int]]]:
    """Product of two square matrices of integer vectors, reduced mod Phi_n.
    Entry (r, c) is sum_k a_rk b_kc, each of whose coefficients (unreduced
    or modulo x^n - 1) is at most sum_k ||a_rk||_1 ||b_kc||_inf, so one digit
    width from the largest row l1 norm of a times the largest entry of b
    serves them all."""
    d = len(a)
    bound = max(sum(map(_l1, row)) for row in a) * max(
        max(map(abs, nums)) for row in b for nums in row
    )
    if not bound:
        return [[[0] * ctx.basis_degree for _ in range(d)] for _ in range(d)]
    bits = bound.bit_length() + 1
    pack, unpack = ctx.pack, ctx.unpack
    cols = [[pack(b[k][c], bits) for k in range(d)] for c in range(d)]
    out = []
    for row in a:
        terms = [(k, pack(nums, bits)) for k, nums in enumerate(row) if any(nums)]
        out.append([unpack(sum(x * col[k] for k, x in terms), bits) for col in cols])
    return out


# -- exact kernels ----------------------------------------------------------


def _circulant_row(m: ExactMatrix) -> tuple[CycElem, ...] | None:
    """The row t with m[r][c] == t[(c - r) mod N] on every entry, compared
    exactly, or None.  Its length N is the order of the circulant behind m:
    N = dim when m is circulant itself, tried first, with t its row 0; and
    N = dim + 1 when m is a principal minor with one index deleted of an
    order-N circulant (every such minor is the same matrix), with t row 0
    followed by m[1][0].  A 1 x 1 matrix is always circulant, so the minor
    shape, which reads m[1][0], never needs to be tried for it."""
    rows = m.entries
    shapes = [rows[0]]
    if m.dim > 1:
        shapes.append(rows[0] + rows[1][:1])
    for t in shapes:
        order = len(t)
        if all(
            e == t[(c - r) % order] for r, row in enumerate(rows) for c, e in enumerate(row)
        ):
            return t
    return None


def _circulant_eigenvalues(ctx: CyclotomicContext, t: Sequence[CycElem]) -> list[CycElem]:
    """The eigenvalues lambda_k = sum_j t_j w^(jk), w = zeta^(n/N),
    k = 0..N-1, of the order-N circulant with row 0 t, N = len(t) dividing
    n; lambda_k belongs to the eigenvector (w^(jk))_j.  They are summed on
    D t packed into integers, where multiplying by a power of zeta rotates
    the digits; each coefficient of D lambda_k, before and after unpack
    folds it modulo x^n - 1, is at most L = sum_j ||D t_j||_1, which fixes
    the digit width."""
    den, (nums,) = _cleared((t,))
    bits = sum(map(_l1, nums)).bit_length() + 1
    packed = [ctx.pack(v, bits) for v in nums]
    n, step = ctx.n, ctx.n // len(t)
    sums = (sum(p << bits * (step * j * k % n) for j, p in enumerate(packed))
            for k in range(len(t)))
    return [CycElem(ctx, ctx.unpack(s, bits), den) for s in sums]


def _circulant_charpoly(
    ctx: CyclotomicContext, t: Sequence[CycElem], dim: int, terms: int | None = None
) -> list[CycElem]:
    """The lowest `terms` ascending coefficients (all dim + 1 by default)
    of det(xI - M) for the dim x dim matrix M that _circulant_row(M) == t
    describes, when N = len(t) divides n.

    Let lambda_k be the eigenvalues of the order-N circulant C with row 0 t
    and p(x) = prod_k (x - lambda_k), taken modulo x^(terms + N - dim) in
    the field.  For M = C the answer is p.  For M a principal
    (N-1)-minor of C it is p'(x) / N: adj(xI - C) is a polynomial in C,
    hence circulant, so each of its diagonal entries, the characteristic
    polynomials of the principal (N-1)-minors of C, is its trace
    d/dx det(xI - C) = p'(x) over N.  That is the eigenvector-eigenvalue
    identity with |v_k(j)|^2 = 1/N for every eigenvector of C, and it
    holds whether or not the lambda_k are distinct or nonzero."""
    order = len(t)
    keep = (dim + 1 if terms is None else terms) + order - dim
    p = [ctx.one]
    for lam in _circulant_eigenvalues(ctx, t):
        # p * (x - lam): coefficient i is p[i-1] - lam p[i]
        p = ([-(lam * p[0])] + [hi - lam * lo for hi, lo in zip(p, p[1:])] + p[-1:])[:keep]
    if order == dim:
        return p
    return [CycElem(ctx, [j * v for v in c.nums], order * c.den)
            for j, c in enumerate(p[1:], 1)]


def det_exact(m: ExactMatrix) -> CycElem:
    """Determinant.  A circulant, or a principal minor of one with a single
    index deleted (see _circulant_row), whose order N divides n, so that
    zeta^(n/N) is a primitive N-th root of unity in the field, takes the
    spectral route: det M = (-1)^dim c_0, where c_0 is the constant
    coefficient of _circulant_charpoly, the lowest coefficient only (modulo
    x for a circulant, x^2 for a minor), from the N exact eigenvalues in
    about N or 2N products in the field, with no inverse.

    Every other matrix takes Gaussian elimination over the field, which is
    also the spectral route's oracle in the tests; the pivot is the first
    nonzero entry in the column (Q(zeta) has no useful magnitude to pivot
    on, and exact arithmetic needs no numerical care)."""
    d = m.dim
    ctx = m.context
    t = _circulant_row(m)
    if t is not None and ctx.n % len(t) == 0:
        (const,) = _circulant_charpoly(ctx, t, d, 1)
        return -const if d & 1 else const
    a = [list(row) for row in m.entries]
    det = ctx.one
    negate = False
    for c in range(d):
        piv = next((r for r in range(c, d) if a[r][c]), None)
        if piv is None:
            return ctx.zero
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            negate = not negate
        pivot = a[c][c]
        det = det * pivot
        inv = pivot.inverse()
        for r in range(c + 1, d):
            f = a[r][c]
            if f:
                f = f * inv
                row, crow = a[r], a[c]
                for k in range(c + 1, d):
                    if crow[k]:
                        row[k] = row[k] - f * crow[k]
    return -det if negate else det


def _necklaces(d: int) -> Iterator[tuple[int, int]]:
    """Binary necklaces of length d, each once, as (word, period), by the
    FKM algorithm (Ruskey, Savage and Wang, "Generating necklaces",
    J. Algorithms 13, 1992).  Letter j of the word (1-based) is bit d - j,
    so words come in increasing order and each is the least of its d
    rotations; the period is the size of its rotation orbit."""
    a = [0] * (d + 1)  # letters a[1..d]; a[0] = 0 stops the scan below
    word = 0
    yield word, 1
    while True:
        i = d
        while a[i]:
            i -= 1
        if not i:
            return
        a[i] = 1
        word |= 1 << (d - i)
        for j in range(i + 1, d + 1):
            if a[j] != a[j - i]:
                a[j] = a[j - i]
                word ^= 1 << (d - j)
        if d % i == 0:
            yield word, i


def _galois_symmetries(ctx: CyclotomicContext, nums: Sequence[Sequence[int]]) -> list[int]:
    """The group H of units u mod n with sigma_u(t_c) = t_(uc mod N) for
    every c, checked exactly on the integer vectors nums of D t, N =
    len(nums); sigma_u is zeta -> zeta^u.  H = {1} unless N == n, where
    multiplying an index by a unit mod n permutes Z/N."""
    order = len(nums)
    if order != ctx.n:
        return [1]
    rows = [list(v) for v in nums]
    return [u for u in range(1, order) if math.gcd(u, order) == 1
            and all(ctx._galois(v, u) == rows[u * c % order] for c, v in enumerate(rows))]


def _rotation_order(image: int, word: int, d: int) -> int:
    """-1, 0 or 1 as the least rotation of the d-bit image is below, equal
    to or above the necklace word (the least of its own rotations), for
    image != word and word neither 0 nor all ones.  A rotation at most word
    starts with word's z >= 1 leading zeros, so only the starts of runs of
    z zeros in the doubled image are compared."""
    mask = (1 << d) - 1
    size = word.bit_length()
    doubled = image | image << d
    runs = ~doubled & (mask << d | mask)
    have, z = 1, d - size
    while have < z:  # bit p of runs: bits p..p+have-1 of doubled are zero
        step = min(have, z - have)
        runs &= runs >> step
        have += step
    starts = runs >> size & mask
    while starts:
        low = starts & -starts
        starts ^= low
        turned = doubled >> (low.bit_length() - 1) & mask
        if turned < word:
            return -1
        if turned == word:
            return 0
    return 1


def _orbits(d: int, units: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The orbits of the maps c -> uc + s (u in units, a group of units mod
    d, and s mod d) on the subsets of Z/d, bit c of a word standing for c,
    each once as (word, size).  The word is the orbit's least binary
    necklace: _necklaces yields each necklace S, and S is kept when no image
    uS has a smaller least rotation.  The orbit's size is
    period * |units| / #{u : uS is a rotation of S}.  With units = [1] these
    are the necklaces and their periods.  At d = 14 to 20 the byte tables
    and _rotation_order's early exit make this 2.4 to 3.4 times faster than
    taking min over the d rotations of sum(1 << u*c % d for c in S), which
    shows in the exact benchmark workload (BENCH_23.json, orbits_vs_plain)."""
    others = [u for u in units if u != 1]
    if not others:
        yield from _necklaces(d)
        return
    # images[k][i][b]: the image under c -> others[k] c of byte b at byte i
    images = []
    for u in others:
        tables = []
        for base in range(0, d, 8):
            table = [0] * 256
            for b in range(1, 256):
                low = b & -b
                table[b] = table[b ^ low] | 1 << u * (base + low.bit_length() - 1) % d
            tables.append(table)
        images.append(tables)
    for word, period in _necklaces(d):
        fixed = 1
        for tables in images:
            image, rest = 0, word
            for table in tables:
                image |= table[rest & 255]
                rest >>= 8
            cmp = 0 if image == word else _rotation_order(image, word, d)
            if cmp < 0:
                break
            if not cmp:
                fixed += 1
        else:
            yield word, period * len(units) // fixed


def _column_sums(
    cols: Sequence[Sequence[int]], words: Iterable[tuple[int, int]]
) -> Iterator[tuple[int, int, list[int]]]:
    """(word, weight, sums) for each (word, weight) of words, where sums[i]
    is the sum of cols[c][i] over the bits c of word.  Each step updates the
    running sums by the columns whose membership changed: one for a Gray
    step, a few from one kept orbit to the next."""
    sums = [0] * len(cols[0])
    prev = 0
    for word, weight in words:
        diff = word ^ prev
        prev = word
        while diff:
            bit = diff & -diff
            diff ^= bit
            col = cols[bit.bit_length() - 1]
            if word & bit:
                sums = [s + x for s, x in zip(sums, col)]
            else:
                sums = [s - x for s, x in zip(sums, col)]
        yield word, weight, sums


def _circulant_permanent(ctx: CyclotomicContext, t: Sequence[CycElem], dim: int) -> CycElem:
    """per(M) for the dim x dim matrix M that _circulant_row(M) == t
    describes: the order-N circulant C with row 0 t, N = len(t), or a
    principal (N-1)-minor of it.  See permanent_ryser."""
    order = len(t)
    minor = order > dim
    den, (nums,) = _cleared((t,))
    norm = sum(map(_l1, nums))
    if not norm:
        return ctx.zero
    units = _galois_symmetries(ctx, nums)
    # on a minor, each factor's norm grows by the 1 of x [i in S]
    bits = ((1 << order) * (norm + minor) ** order).bit_length() + 1
    pack, fold = ctx.pack, ctx.fold
    packed = [pack(v, bits) for v in nums]
    cols = [[packed[(c - i) % order] for i in range(order)] for c in range(order)]
    total = 0
    for word, weight, sums in _column_sums(cols, _orbits(order, units)):
        if minor:  # (a, b) stands for a + b x modulo x^2
            a, b = weight, 0
            for i, s in enumerate(sums):
                b = fold(b * s + a if word >> i & 1 else b * s, bits)
                a = fold(a * s, bits)
            prod = b
        else:
            prod = weight
            for s in sums:
                prod = fold(prod * s, bits)
                if not prod:
                    break
        if word.bit_count() & 1:
            total -= prod
        else:
            total += prod
    if order & 1:
        total = -total
    total = ctx.unpack(total, bits)
    trace = [sum(cs) for cs in zip(*(ctx._galois(total, u) for u in units))]
    return CycElem(ctx, trace, len(units) * (order if minor else 1) * den**dim)


def permanent_ryser(m: ExactMatrix, cap: int = PERMANENT_CAP) -> CycElem:
    """Permanent by inclusion-exclusion over column subsets:
    per(M) = (-1)^dim * sum_S (-1)^|S| prod_i (sum_{j in S} m_ij).

    A circulant C of order N (m[r][c] == t[(c - r) mod N] on every entry,
    checked exactly by _circulant_row) takes one orbit walk.  Rotating S
    keeps Ryser's term T(S) and |S|.  When N == n and its row satisfies
    sigma_u(t_c) = t_(uc) for every u in a group H of units mod n (checked
    exactly; the sun matrix has every unit), T(uS) = sigma_u(T(S)) as
    well.  So the walk takes one S per orbit of {c -> uc + s} (_orbits),
    weighted by the orbit's size, and applies (1/|H|) sum_{u in H} sigma_u
    once to the sum; for the sun matrix that is the field trace over
    |H|.  That is about 2^N / (N |H|) products; H = {1} gives the
    necklaces.

    A principal (N-1)-minor of C takes the same walk on C + xI, which is
    circulant with the same symmetries:
    per(minor) = (1/N) [x^1] per(C + xI), since d/dx per(C + xI) at 0 sums
    the N equal principal minors.  Each factor s_i + x [i in S] is
    multiplied into a pair (a, b) standing for a + b x modulo x^2, two
    packed products.

    Any other matrix walks all subsets in Gray-code order, one column
    update per step, and that walk is also the orbit route's oracle.

    Every route runs on D * M packed into integers (per(M) = per(D M) /
    D^dim).  A product has l1 norm at most prod_i sum_j ||D m_ij||_1, and
    the orbit weights add up to the 2^N subsets they stand for, so 2^N
    times that norm bounds every coefficient and fixes the digit width; on
    a minor each factor's norm grows by the 1 of x [i in S].  The running
    product is folded modulo x^n - 1 after every factor, which keeps it at
    n digits and within that norm.
    """
    d = m.dim
    if d > cap:
        raise CapExceededError(f"dimension {d} exceeds permanent cap {cap}")
    ctx = m.context
    t = _circulant_row(m)
    if t is not None:
        return _circulant_permanent(ctx, t, d)
    den, rows = _cleared(m.entries)
    bound = 1 << d
    for row in rows:
        bound *= sum(map(_l1, row))
    if not bound:
        return ctx.zero
    bits = bound.bit_length() + 1
    cols = [[ctx.pack(row[c], bits) for row in rows] for c in range(d)]
    fold = ctx.fold
    total = 0
    for word, _, sums in _column_sums(cols, ((g ^ (g >> 1), 1) for g in range(1, 1 << d))):
        prod = 1
        for s in sums:
            if not s:
                break
            prod = fold(prod * s, bits)
        else:
            if word.bit_count() & 1:
                total -= prod
            else:
                total += prod
    if d & 1:
        total = -total
    return CycElem(ctx, ctx.unpack(total, bits), den**d)


@dataclass(frozen=True)
class DerangementSums:
    """Sums of prod_j m[j, tau(j)] over fixed-point-free tau, split by
    sign class; signed = even_class - odd_class."""

    total: CycElem
    even_class: CycElem
    odd_class: CycElem
    signed: CycElem


def derangement_sums(
    m: ExactMatrix, permanent_cap: int = PERMANENT_CAP
) -> DerangementSums:
    """Derangement sums by the permanent/determinant combination on the
    diagonal-zeroed matrix: derangements never read the diagonal, per picks
    up the total, det the signed total, and the classes are (per +/- det)/2.
    The tests check it against plain enumeration of the derangements."""
    z = m.zero_diagonal()
    per = permanent_ryser(z, cap=permanent_cap)
    det = det_exact(z)
    half = Fraction(1, 2)
    return DerangementSums(per, (per + det) * half, (per - det) * half, det)


def charpoly_exact(m: ExactMatrix) -> list[CycElem]:
    """Monic characteristic polynomial det(xI - M), as ascending
    coefficients c with c[dim] = 1.

    A circulant, or a principal minor of one with a single index deleted,
    whose order N divides n takes the spectral route of det_exact with
    every coefficient kept: _circulant_charpoly, about N^2 / 2 products in
    the field.

    Every other matrix takes the Faddeev-LeVerrier trace recurrence, run on
    A = D * M over Z[zeta_n], which is also the spectral route's oracle in
    the tests.  The coefficients of A's characteristic polynomial are
    algebraic integers, so each division of a trace by k is exact on every
    integer coordinate; a nonzero remainder raises ArithmeticError.
    Coefficient j of M's polynomial is c_j(A) / D^(dim-j).
    """
    d = m.dim
    ctx = m.context
    t = _circulant_row(m)
    if t is not None and ctx.n % len(t) == 0:
        return _circulant_charpoly(ctx, t, d)
    den, a = _cleared(m.entries)
    one = (1,) + (0,) * (ctx.basis_degree - 1)
    zero = (0,) * ctx.basis_degree
    coeffs = [zero] * d + [one]
    b = [[one if r == c else zero for c in range(d)] for r in range(d)]
    for k in range(1, d + 1):
        if k > 1:
            for r in range(d):
                b[r][r] = [x + y for x, y in zip(b[r][r], coeffs[d - k + 1])]
        b = _matmul_ints(ctx, a, b)
        trace = [sum(col) for col in zip(*(b[r][r] for r in range(d)))]
        quot = []
        for t in trace:
            q, rem = divmod(t, k)
            if rem:
                raise ArithmeticError(
                    f"trace coefficient {t} is not divisible by {k}"
                )
            quot.append(-q)
        coeffs[d - k] = quot
    return [CycElem(ctx, nums, den ** (d - j)) for j, nums in enumerate(coeffs)]


# -- file format ------------------------------------------------------------


def matrix_to_json(m: ExactMatrix) -> dict:
    return {
        "n": m.context.n,
        "dim": m.dim,
        "entries": [[e.serialize() for e in row] for row in m.entries],
    }


def matrix_from_json(obj: dict) -> ExactMatrix:
    ctx = cyc_context(int(obj["n"]))
    rows = tuple(tuple(parse_elem(e, ctx) for e in row) for row in obj["entries"])
    return ExactMatrix(ctx, int(obj["dim"]), rows)


def save_matrix(m: ExactMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(m), fh)
        fh.write("\n")


def load_matrix(path: str) -> ExactMatrix:
    with open(path, encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))
