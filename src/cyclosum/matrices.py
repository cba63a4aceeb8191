"""Dense square matrices over Q(zeta_n): structured builders plus exact
determinant, permanent, and sign-split derangement-sum kernels.

The permanent and the derangement sums are exponential-time; their dimension
caps are explicit arguments defaulting to PERMANENT_CAP, and exceeding a cap
raises CapExceededError rather than hanging.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

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
    return _by_difference(ctx, {d: v + v for d, v in _sun_entries(ctx).items()})


def build_sun_and_cp_matrices(ctx: CyclotomicContext) -> tuple[ExactMatrix, ExactMatrix]:
    """The sun matrix and the cotangent matrix, twice it, from one set of
    the n-1 distinct off-diagonal values (see _sun_entries), each doubled
    once."""
    inv = _sun_entries(ctx)
    twice = {d: v + v for d, v in inv.items()}
    return _by_difference(ctx, inv), _by_difference(ctx, twice)


def _sun_entries(ctx: CyclotomicContext) -> dict[int, CycElem]:
    """1/(1 - zeta^d) for d = 1..n-1, with one inverse for each proper
    divisor g of n.  Every d is u g mod n, g = gcd(d, n), for a unit u mod
    n: u = d/g is a unit mod n/g, and adding multiples of n/g reaches one
    mod n.  The automorphism sigma_u (zeta -> zeta^u) commutes with
    inversion, so 1/(1 - zeta^d) = sigma_u(1/(1 - zeta^g)); sigma_u maps
    Z[zeta_n] onto itself, so the image keeps the denominator."""
    n = ctx.n
    bases: dict[int, CycElem] = {}
    out = {}
    for d in range(1, n):
        g = math.gcd(d, n)
        if g not in bases:
            bases[g] = (ctx.one - ctx.zeta_pow(g)).inverse()
        base = bases[g]
        u = d // g
        while math.gcd(u, n) != 1:
            u += n // g
        out[d] = base if u == 1 else CycElem(ctx, ctx._galois(base.nums, u), base.den)
    return out


def _by_difference(ctx: CyclotomicContext, values: dict[int, CycElem]) -> ExactMatrix:
    """The n x n matrix with entry (j,k) = values[(j-k) mod n] off the
    diagonal and 0 on it: row j is row 0 turned j places to the right, so
    every row holds the same entry objects."""
    n = ctx.n
    row = (ctx.zero,) + tuple(values[n - k] for k in range(1, n))
    return ExactMatrix(ctx, n, tuple(row[n - j:] + row[:n - j] for j in range(n)))


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
    """The product a b, each entry a sum of field products."""
    if a.context.n != b.context.n:
        raise ContextMismatchError(
            f"mixed cyclotomic orders {a.context.n} and {b.context.n}"
        )
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch {a.dim} vs {b.dim}")
    ctx = a.context
    cols = list(zip(*b.entries))
    rows = tuple(
        tuple(sum((x * y for x, y in zip(row, col)), ctx.zero) for col in cols)
        for row in a.entries
    )
    return ExactMatrix(ctx, a.dim, rows)


# -- integer kernels ----------------------------------------------------------
#
# permanent_ryser and the circulant spectrum clear denominators once and run
# on integer coefficient vectors over Z[zeta_n]: Kronecker-packed into one
# Python integer per entry (CyclotomicContext.pack), with the digit width
# from a proven bound on the coefficients of everything the kernel packs, or
# held in int64 numpy arrays under a proven bound below 2^63.


def _l1(nums: Sequence[int]) -> int:
    return sum(map(abs, nums))


def _cleared(
    entries: Sequence[Sequence[CycElem]],
) -> tuple[list[int], list[list[Sequence[int]]]]:
    """For each row of elements, the lcm D_i of its denominators and the
    integer coefficient vectors of D_i times each entry, which lie in
    Z[zeta_n].  A kernel that is linear in each row, as the permanent is,
    divides by the product of the D_i at the end."""
    dens = [math.lcm(*(e.den for e in row)) for row in entries]
    rows = [
        [e.nums if e.den == den else [v * (den // e.den) for v in e.nums] for e in row]
        for den, row in zip(dens, entries)
    ]
    return dens, rows


# -- exact kernels ----------------------------------------------------------


def _circulant_row(m: ExactMatrix) -> tuple[CycElem, ...] | None:
    """The row t with m[r][c] == t[(c - r) mod N] on every entry, compared
    exactly, or None.  Its length N is the order of the circulant behind m:
    N = dim when m is circulant itself, tried first, with t its row 0; and
    N = dim + 1 when m is a principal minor with one index deleted of an
    order-N circulant (every such minor is the same matrix), with t row 0
    followed by m[1][0].  A 1 x 1 matrix is always circulant, so the minor
    shape, which reads m[1][0], never needs to be tried for it.  The
    builders share one object per difference, so most entries match by
    identity before the exact comparison."""
    rows = m.entries
    shapes = [rows[0]]
    if m.dim > 1:
        shapes.append(rows[0] + rows[1][:1])
    for t in shapes:
        order = len(t)
        if all(
            e is t[(c - r) % order] or e == t[(c - r) % order]
            for r, row in enumerate(rows) for c, e in enumerate(row)
        ):
            return t
    return None


# The DFT route below runs in int64 only under a proven bound below this.
_INT64 = 1 << 63


@functools.cache
def _reduction_matrix(n: int) -> tuple[np.ndarray, int]:
    """The dense (n - phi) x phi int64 matrix whose row m holds
    x^(phi + m) modulo Phi_n, phi = deg Phi_n, read from the context's
    power-reduction table, and the height h = max(||R||_inf, ||Psi_n||_inf)
    (at least 1, since x^phi mod Phi_n has the constant -Phi_n(0) = -1)
    that the int64 bounds of the DFT route take."""
    ctx = cyc_context(n)
    deg = ctx.basis_degree
    reduction = np.zeros((n - deg, deg), dtype=np.int64)
    for m in range(deg, n):
        for i, c in ctx._reduction[m]:
            reduction[m - deg, i] = c
    height = max(int(np.abs(reduction).max()), max(abs(a) for _, a in ctx._psi))
    return reduction, height


@functools.cache
def _dft_grid(n: int, order: int) -> np.ndarray:
    """The order x order int64 grid of exponents -(n/N) j k mod n, N =
    order dividing n: entry (j, k) is the power of zeta that term k of
    an inverse DFT puts into row j, and the digit of row j that
    eigenvalue k reads."""
    js = np.arange(order, dtype=np.int64)
    return np.outer(js, -(n // order) * js) % n


def _inverse_dft(ctx: CyclotomicContext, c: np.ndarray, order: int) -> np.ndarray:
    """Row j, j = 0..N-1, N = order dividing n, is the coefficient vector of
    sum_k c_k zeta^(-(n/N) j k) modulo Phi_n, for the integers c: the c_k
    are scattered to their powers of zeta through _dft_grid, and powers
    from phi = deg Phi_n up are reduced by one product with
    _reduction_matrix.  Every partial sum is at most ||c||_1 h in absolute
    value, h the height of _reduction_matrix, which the caller keeps
    below 2^63."""
    n, deg = ctx.n, ctx.basis_degree
    reduction, _ = _reduction_matrix(n)
    powers = np.zeros((order, n), dtype=np.int64)
    np.add.at(powers, (np.arange(order)[:, None], _dft_grid(n, order)), c)
    return powers[:, :deg] + powers[:, deg:] @ reduction


def _circulant_eigenvalues(ctx: CyclotomicContext, t: Sequence[CycElem]) -> list[CycElem]:
    """The eigenvalues lambda_k = sum_j t_j w^(jk), w = zeta^(n/N),
    k = 0..N-1, of the order-N circulant with row 0 t, N = len(t) dividing
    n; lambda_k belongs to the eigenvector (w^(jk))_j.  Let a_j be the
    integer vector of D t_j, D the lcm of the row's denominators, and
    s_k = sum_j x^((n/N) jk) a_j modulo x^n - 1, so D lambda_k = s_k(zeta)
    and ||s_k||_1 <= L = sum_j ||a_j||_1.

    A spectrum that is all rational is read at once, with no reduction
    modulo Phi_n of any s_k.
    - Candidates.  With Psi_n = (x^n - 1) / Phi_n (ctx._psi), the only
      integer c with Phi_n | s_k - c is c_k = -(s_k Psi_n)_0, taken modulo
      x^n - 1, since (s_k - c) Psi_n is then 0 modulo x^n - 1 and
      Psi_n(0) = -1.  All N are one gather from the products a_j Psi_n:
      (x^r a_j Psi_n)_0 is digit -r mod n of a_j Psi_n.
    - Certificate.  The row is rebuilt from them: sum_k c_k
      w^(-jk) must equal N a_j modulo Phi_n for every j (_inverse_dft).
      If it does, applying the length-N DFT gives, for every k,
      N D lambda_k = sum_j N a_j(zeta) w^(jk)
                   = sum_k' c_k' sum_j w^(j(k - k')) = N c_k,
      since the inner sum is N when k' = k and 0 otherwise; so
      D lambda_k = c_k, every eigenvalue is proved, and no candidate is
      trusted on its own.  Conversely, when every D lambda_k is rational
      it is an integer (an algebraic integer), the candidate c_k equals it
      (Phi_n divides s_k - D lambda_k in Z[x], by Gauss's lemma), and the
      inverse DFT of the spectrum is N D t: the certificate holds.  A
      rational D lambda_k is at most L in absolute value under the
      embedding, so a candidate beyond L fails at once.
    - Bound.  Every number formed is at most L N h in absolute value, h the
      height of _reduction_matrix: the products a_j Psi_n and the
      candidates at most L ||Psi_n||_inf, the rebuilt rows at most
      ||c||_1 h <= N L h, and N a_j at most N L.  The route runs in int64
      only when L N h < 2^63.

    A row whose spectrum has an irrational eigenvalue, so that the
    certificate fails, or whose bound is 2^63 or more, unpacks every
    eigenvalue:
    the sums s_k of D t packed into integers, where multiplying by a power
    of zeta rotates the digits, each folded modulo x^n - 1 and reduced
    through the Phi_n table; every coefficient of a sum, before the fold
    and after it, is at most L."""
    (den,), (nums,) = _cleared((t,))
    order, n = len(t), ctx.n
    norm = sum(map(_l1, nums))
    _, height = _reduction_matrix(n)
    if norm * order * height < _INT64:
        a = np.array(nums, dtype=np.int64)
        products = np.zeros((order, n), dtype=np.int64)
        for i, v in ctx._psi:
            products[:, i:i + ctx.basis_degree] += v * a
        c = -products[np.arange(order)[:, None], _dft_grid(n, order)].sum(axis=0)
        if np.abs(c).max() <= norm and np.array_equal(_inverse_dft(ctx, c, order), order * a):
            zeros = (0,) * (ctx.basis_degree - 1)
            out = []
            for v in c.tolist():
                g = math.gcd(v, den)
                out.append(CycElem(ctx, (v // g,) + zeros, den // g, _normalized=True))
            return out
    bits = norm.bit_length() + 1
    packed = [ctx.pack(v, bits) for v in nums]
    step = n // order
    return [CycElem(ctx, ctx.unpack(sum(p << bits * (step * j * k % n)
                                        for j, p in enumerate(packed)), bits), den)
            for k in range(order)]


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
    holds whether or not the lambda_k are distinct or nonzero.

    When every lambda_k is rational, as for the sun and cotangent rows
    (Theorem 2.1), p is multiplied out over Z: with B the lcm of their
    denominators and a_k = B lambda_k, prod_k (y - a_k) = sum_i P_i y^i has
    integer P_i, and y = Bx gives p_i = P_i / B^(N-i).  Each coefficient
    becomes an element once, at the end.  _circulant_eigenvalues proves
    such a spectrum all at once, by one inverse DFT of integers.
    Otherwise the product runs in the field, about N^2 / 2 products when
    every coefficient is kept."""
    order = len(t)
    keep = (dim + 1 if terms is None else terms) + order - dim
    lams = _circulant_eigenvalues(ctx, t)
    if all(lam.is_rational() for lam in lams):
        den = math.lcm(*(lam.den for lam in lams))
        q = [1]
        for lam in lams:
            a = lam.nums[0] * (den // lam.den)
            q = ([-a * q[0]] + [hi - a * lo for hi, lo in zip(q, q[1:])] + q[-1:])[:keep]
        if order == dim:
            return [ctx.from_rational(Fraction(c, den ** (order - i))) for i, c in enumerate(q)]
        return [ctx.from_rational(Fraction(j * c, order * den ** (order - j)))
                for j, c in enumerate(q[1:], 1)]
    p = [ctx.one]
    for lam in lams:
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
    x for a circulant, x^2 for a minor), from the N exact eigenvalues with
    no inverse: about N or 2N integer products when they are all rational,
    as for the sun and cotangent matrices, and as many products in the
    field otherwise.  A spectrum that is all rational is read as N integer
    candidates and proved by one inverse DFT in int64, which must give
    back N D t, with no reduction modulo Phi_n of any eigenvalue
    (_circulant_eigenvalues); any other spectrum is unpacked eigenvalue by
    eigenvalue.

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
    rotations; the period is the size of its rotation orbit.  Each step
    takes the last letter 0, at bit z, sets it to 1 and repeats the first
    i = d - z letters to length d, which multiplying the i-bit prefix by
    the repunit 1 + 2^i + 2^(2i) + ... does on the whole word at once; the
    word is a necklace when i divides d."""
    full = (1 << d) - 1
    repeat = [(0, 0)]  # repeat[i]: the repunit for i-letter blocks, and the excess bits
    for i in range(1, d + 1):
        blocks = -(-d // i)
        repeat.append((((1 << blocks * i) - 1) // ((1 << i) - 1), blocks * i - d))
    word = 0
    yield word, 1
    while word != full:
        z = (~word & (word + 1)).bit_length() - 1
        i = d - z
        repunit, excess = repeat[i]
        word = ((word >> z) | 1) * repunit >> excess
        if d % i == 0:
            yield word, i


def _galois_symmetries(ctx: CyclotomicContext, nums: Sequence[Sequence[int]]) -> list[int]:
    """The group H of units u mod n with sigma_u(t_c) = t_(uc mod N) for
    every c, checked exactly on the integer vectors nums of D t, N =
    len(nums); sigma_u is zeta -> zeta^u.  H = {1} unless N == n, where
    multiplying an index by a unit mod n permutes Z/N.  H is closed under
    products, sigma_uv(t_c) = sigma_u(t_(vc)) = t_(uvc), so it is every
    unit when it holds the generators g of ctx._norm_steps, which are
    tested first; otherwise each unit is tested."""
    order = len(nums)
    if order != ctx.n:
        return [1]
    rows = [list(v) for v in nums]

    def symmetric(u: int) -> bool:
        return all(ctx._galois(v, u) == rows[u * c % order] for c, v in enumerate(rows))

    units = [u for u in range(1, order) if math.gcd(u, order) == 1]
    if all(symmetric(g) for g, _ in ctx._norm_steps):
        return units
    return [u for u in units if symmetric(u)]


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


def _packed_ryser(
    ctx: CyclotomicContext,
    rows: Sequence[Sequence[Sequence[int]]],
    words: Iterable[tuple[int, int]],
    minor: bool = False,
) -> list[int]:
    """Ryser's sum (-1)^N sum_S w_S (-1)^|S| prod_i s_i(S), unpacked, over
    the (word, weight) pairs of words, S the columns c of word (bit c) and
    s_i(S) = sum_{c in S} a_ic for the N x N integer vectors a_ic =
    rows[i][c].  With minor, factor i is s_i(S) + x [i in S], multiplied
    into a pair (a, b) standing for a + b x modulo x^2, and the sum is of
    the [x^1] coefficients.

    The weights add up to at most the 2^N subsets, and a product has l1
    norm at most prod_i (||row_i||_1 + minor), so 2^N times that bounds
    every coefficient and fixes the digit width.  The running product is
    folded modulo x^n - 1 after every factor, which keeps it at n digits
    and within that norm.  The column sums are updated by the columns
    whose membership changed: one for a Gray step, a few from one kept
    orbit to the next."""
    order = len(rows)
    bound = 1 << order
    for row in rows:
        bound *= sum(map(_l1, row)) + minor
    if not bound:
        return [0] * ctx.basis_degree
    bits = bound.bit_length() + 1
    pack, fold = ctx.pack, ctx.fold
    cols = [[pack(row[c], bits) for row in rows] for c in range(order)]
    sums = [0] * order
    total = prev = 0
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
    return ctx.unpack(total, bits)


def _is_prime(m: int) -> bool:
    """Trial division by the primes to 61, then Miller-Rabin to the bases
    2, 7 and 61, which is exact for every m below 4,759,123,141, the least
    strong pseudoprime to all three (Jaeschke, Math. Comp. 61, 1993);
    every caller asks below 2^31."""
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
    if m < 2 or math.gcd(m, math.prod(small)) != 1:
        return m in small
    odd, twos = m - 1, 0
    while not odd & 1:
        odd >>= 1
        twos += 1
    for a in (2, 7, 61):
        x = pow(a, odd, m)
        if x == 1:
            continue
        for _ in range(twos):
            if x == m - 1:
                break
            x = x * x % m
        else:
            return False
    return True


def _search_prime_images(n: int) -> Iterator[tuple[int, int]]:
    """(p, r) for the primes p = 1 (mod n) below 2^31, largest first, with
    r a primitive n-th root of unity mod p.  F_p^* is cyclic of order
    p - 1, a multiple of n, so g^((p-1)/n) has order dividing n, and it is
    primitive unless its (n/q)-th power is 1 for a prime q | n.  Then
    Phi_n(r) = 0 in F_p (p does not divide n), so zeta -> r is a ring map
    Z[zeta_n] -> F_p (Washington, Introduction to Cyclotomic Fields,
    ch. 2)."""
    primes_of_n = [q for q in range(2, n + 1) if n % q == 0 and _is_prime(q)]
    step = math.lcm(2, n)  # p is odd
    for p in range((2**31 - 2) // step * step + 1, 1, -step):
        if not _is_prime(p):
            continue
        for g in range(2, p):
            r = pow(g, (p - 1) // n, p)
            if all(pow(r, n // q, p) != 1 for q in primes_of_n):
                yield p, r
                break


# n -> (the images found so far, the search that finds the next ones)
_PRIME_IMAGES: dict[int, tuple[list[tuple[int, int]], Iterator[tuple[int, int]]]] = {}


def _prime_images(n: int) -> Iterator[tuple[int, int]]:
    """The images of _search_prime_images(n) in its order.  Each is found
    once per process: the ones found so far are kept for each n, and the
    search resumes where it stopped when a caller asks for more."""
    found, search = _PRIME_IMAGES.setdefault(n, ([], _search_prime_images(n)))
    for k in itertools.count():
        if k == len(found):
            found.append(next(search))
        yield found[k]


# Necklaces per block of the modular walk; it bounds the walk's arrays.
_BLOCK = 1 << 8


def _value_bound(nums: Sequence[Sequence[int]], dim: int) -> int:
    """The bound on |V| of _rational_circulant_permanent: L^N for the
    circulant, N L^(N-1) for a minor, L = sum_j ||D t_j||_1."""
    order, norm = len(nums), sum(map(_l1, nums))
    return order * norm ** (order - 1) if order > dim else norm**order


def _rational_circulant_permanent(
    ctx: CyclotomicContext, nums: Sequence[Sequence[int]], den: int, dim: int
) -> CycElem:
    """per(M) as in _circulant_permanent, when the row's Galois symmetries
    are every unit mod n, so that the permanent is rational.  Let
    V = D^dim per(C) for the circulant and V = [x^1] per(DC + xI) =
    N D^dim per(minor) for a minor: V lies in Z[zeta_n] and is rational,
    so it is a rational integer.

    Bound.  Under any complex embedding |per(A)| <= prod_i sum_j |a_ij|,
    and each row of DC has absolute sum at most L = sum_j ||D t_j||_1, a
    row of the minor at most the same.  V is rational, so it equals its
    image under every embedding: |V| <= L^N, and |V| <= N L^(N-1) on a
    minor, whose N principal minors each take at most L^(N-1).

    Residues.  For each (p, r) of _prime_images, zeta -> r maps V to
    V mod p.  The walk runs Ryser over the binary necklaces weighted by
    their period, as the packed walk does with H = {1}, on the images of
    the entries D t_j in int64, one block of _BLOCK necklaces at a time
    for every prime at once.  A block reads its column sums from tables of
    the sums over each byte of columns: a sum is below N p < 2^36 for
    N <= 32, and a product of two residues below 2^62.  The primes are
    taken until their product P exceeds twice the bound, and the symmetric
    residue of V mod P (von zur Gathen and Gerhard, Modern Computer
    Algebra, ch. 5) is V."""
    order = len(nums)
    minor = order > dim
    bound = _value_bound(nums, dim)
    images = _prime_images(ctx.n)
    primes, modulus = [], 1
    while modulus <= 2 * bound:
        primes.append(next(images))
        modulus *= primes[-1][0]
    ps = np.array([p for p, _ in primes], dtype=np.int64)[:, None]
    # col[q, i, c]: entry (i, c) of D C, D t_((c - i) mod N), at r_q mod p_q
    entry = np.array([[functools.reduce(lambda acc, v: (acc * r + v) % p, reversed(vs), 0)
                       for vs in nums] for p, r in primes], dtype=np.int64)
    col = entry[:, (np.arange(order) - np.arange(order)[:, None]) % order]
    # (base, table) with table[q, i, b] = sum of col[q, i, base + c] over
    # the bits c of the byte b
    tables = []
    for base in range(0, order, 8):
        width = min(8, order - base)
        bits = np.arange(1 << width) >> np.arange(width)[:, None] & 1
        tables.append((base, col[:, :, base:base + width] @ bits))
    totals = np.zeros(len(primes), dtype=object)
    necklaces = _necklaces(order)
    while block := list(itertools.islice(necklaces, _BLOCK)):
        words = np.array([w for w, _ in block], dtype=np.int64)
        # (-1)^|S| times the period
        weights = np.array([-k if w.bit_count() & 1 else k for w, k in block], dtype=np.int64)
        sums = tables[0][1][:, :, words & 255]
        for base, table in tables[1:]:
            sums += table[:, :, words >> base & 255]
        sums %= ps[:, :, None]
        if minor:  # (a, b) stands for a + b x modulo x^2
            a, b = np.ones_like(sums[:, 0]), np.zeros_like(sums[:, 0])
            for i in range(order):
                s = sums[:, i]
                b = (b * s + a * (words >> i & 1)) % ps
                a = a * s % ps
            prod = b
        else:
            prod = np.ones_like(sums[:, 0])
            for i in range(order):
                prod = prod * sums[:, i] % ps
        totals += (prod * weights).sum(axis=1).tolist()
    value, modulus = 0, 1
    for (p, _), x in zip(primes, totals.tolist()):
        value += modulus * ((x - value) * pow(modulus, -1, p) % p)
        modulus *= p
    if value > modulus // 2:
        value -= modulus
    if order & 1:
        value = -value
    return ctx.from_rational(Fraction(value, order**minor * den**dim))


def _circulant_permanent(ctx: CyclotomicContext, t: Sequence[CycElem], dim: int) -> CycElem:
    """per(M) for the dim x dim matrix M that _circulant_row(M) == t
    describes: the order-N circulant C with row 0 t, N = len(t), or a
    principal (N-1)-minor of it.  See permanent_ryser."""
    order = len(t)
    minor = order > dim
    (den,), (nums,) = _cleared((t,))
    if not any(map(any, nums)):
        return ctx.zero
    units = _galois_symmetries(ctx, nums)
    if len(units) == ctx.basis_degree:
        return _rational_circulant_permanent(ctx, nums, den, dim)
    rows = [[nums[(c - i) % order] for c in range(order)] for i in range(order)]
    total = _packed_ryser(ctx, rows, _orbits(order, units), minor)
    trace = [sum(cs) for cs in zip(*(ctx._galois(total, u) for u in units))]
    return CycElem(ctx, trace, len(units) * (order if minor else 1) * den**dim)


def permanent_ryser(m: ExactMatrix, cap: int = PERMANENT_CAP) -> CycElem:
    """Permanent by inclusion-exclusion over column subsets:
    per(M) = (-1)^dim * sum_S (-1)^|S| prod_i (sum_{j in S} m_ij).

    A circulant C of order N (m[r][c] == t[(c - r) mod N] on every entry,
    checked exactly by _circulant_row) takes one walk over the binary
    necklaces.  Rotating S keeps Ryser's term T(S) and |S|.  A principal
    (N-1)-minor of C takes the same walk on C + xI, which is circulant
    with the same symmetries: per(minor) = (1/N) [x^1] per(C + xI), since
    d/dx per(C + xI) at 0 sums the N equal principal minors.  Let H be the
    group of units u mod n whose sigma_u maps the row onto itself,
    sigma_u(t_c) = t_(uc) for every c (checked exactly by
    _galois_symmetries, on the generators of the unit group first, so a
    row with every symmetry costs a few unit checks, not phi(n)).

    When H is every unit mod n (N == n, as for the sun and cotangent
    rows; or n == 2, where the field is Q), the permanent is rational,
    and the walk runs modulo primes in int64 with the Chinese remainder
    theorem at the end (_rational_circulant_permanent).

    Otherwise T(uS) = sigma_u(T(S)) for u in H, so the walk takes one S
    per orbit of {c -> uc + s} (_orbits), weighted by the orbit's size,
    and applies (1/|H|) sum_{u in H} sigma_u once to the sum: about
    2^N / (N |H|) products; H = {1} gives the necklaces.

    Any other matrix walks all subsets in Gray-code order, one column
    update per step.  Both of these walks run in _packed_ryser, on the
    matrix cleared of denominators and packed into integers: D M for a
    circulant's one row, and diag(D_i) M for the Gray walk, D_i the lcm of
    row i alone, with per(M) = per(diag(D_i) M) / prod_i D_i.
    """
    d = m.dim
    if d > cap:
        raise CapExceededError(f"dimension {d} exceeds permanent cap {cap}")
    ctx = m.context
    t = _circulant_row(m)
    if t is not None:
        return _circulant_permanent(ctx, t, d)
    dens, rows = _cleared(m.entries)
    gray = ((g ^ (g >> 1), 1) for g in range(1, 1 << d))
    return CycElem(ctx, _packed_ryser(ctx, rows, gray), math.prod(dens))


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
    coefficients c with c[dim] = 1, for a circulant, or a principal minor
    of one with a single index deleted, whose order N divides n: the
    spectral route of det_exact with every coefficient kept,
    _circulant_charpoly.  That is about N^2 / 2 integer steps when every
    eigenvalue is rational, as for the sun and cotangent matrices and
    their minors, where one inverse DFT in int64 proves the whole
    spectrum, and about N^2 / 2 products in the field otherwise.  Any
    other matrix raises ValueError; every characteristic polynomial the
    statements need is of this shape."""
    t = _circulant_row(m)
    if t is None or m.context.n % len(t):
        raise ValueError(
            "charpoly_exact needs a circulant, or a minor of one, whose order divides n"
        )
    return _circulant_charpoly(m.context, t, m.dim)


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
