"""Dense square matrices over Q(zeta_n): structured builders plus exact
determinant, permanent, and sign-split derangement-sum kernels.

The permanent and the derangement sums are exponential-time; their dimension
caps are explicit arguments with conservative defaults, and exceeding a cap
raises CapExceededError rather than hanging.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import permutations
from typing import Iterable, Sequence

from .combinatorics import derangements
from .exact import ContextMismatchError, CycElem, CyclotomicContext, cyc_context, parse_elem


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


def identity_matrix(context: CyclotomicContext, dim: int) -> ExactMatrix:
    one, zero = context.one, context.zero
    return ExactMatrix(
        context,
        dim,
        tuple(tuple(one if r == c else zero for c in range(dim)) for r in range(dim)),
    )


# -- structured builders ----------------------------------------------------


def build_sun_matrix(ctx: CyclotomicContext) -> ExactMatrix:
    """The n x n zero-diagonal matrix with entry (j,k) = 1/(1 - zeta^(j-k)).

    The sign-class statements are written for its transpose (exponent k-j);
    determinants, permanents, and derangement sums do not distinguish the
    two.
    """
    n = ctx.n
    inv = {d: (ctx.one - ctx.zeta_pow(d)).inverse() for d in range(1, n)}
    zero = ctx.zero
    rows = tuple(
        tuple(zero if j == k else inv[(j - k) % n] for k in range(n)) for j in range(n)
    )
    return ExactMatrix(ctx, n, rows)


def build_cp_matrix(ctx: CyclotomicContext) -> ExactMatrix:
    """The cotangent matrix with entries (1-delta_jk)(1 + i cot((j-k)pi/n)),
    held exactly as 2/(1 - zeta^(j-k)); Hermitian under the embedding."""
    sun = build_sun_matrix(ctx)
    return ExactMatrix(
        ctx,
        sun.dim,
        tuple(tuple(e + e for e in row) for row in sun.entries),
    )


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


def build_bs_diagonal(ctx: CyclotomicContext, s: int) -> ExactMatrix:
    """Diagonal (n-1) x (n-1) matrix with entries 1 - zeta^(i*s), odd n only."""
    n = ctx.n
    if n % 2 == 0:
        raise ValueError("diagonal scaling matrix is defined for odd n")
    if s == 0 or not -(n - 1) // 2 <= s <= (n - 1) // 2:
        raise ValueError(f"s must be nonzero with |s| <= {(n - 1) // 2}, got {s}")
    zero = ctx.zero
    rows = tuple(
        tuple(
            (ctx.one - ctx.zeta_pow(i * s)) if i == k else zero
            for k in range(1, n)
        )
        for i in range(1, n)
    )
    return ExactMatrix(ctx, n - 1, rows)


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.context.n != b.context.n:
        raise ContextMismatchError(
            f"mixed cyclotomic orders {a.context.n} and {b.context.n}"
        )
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch {a.dim} vs {b.dim}")
    ctx = a.context
    da, ia = _cleared(a)
    db, ib = _cleared(b)
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


def _cleared(m: ExactMatrix) -> tuple[int, list[list[Sequence[int]]]]:
    """The lcm D of the entry denominators and the integer coefficient
    vectors of D * M, whose entries lie in Z[zeta_n]."""
    den = math.lcm(*(e.den for row in m.entries for e in row))
    rows = [
        [e.nums if e.den == den else [v * (den // e.den) for v in e.nums] for e in row]
        for row in m.entries
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


def det_exact(m: ExactMatrix) -> CycElem:
    """Determinant by Gaussian elimination over the field; the pivot is the
    first nonzero entry in the column (Q(zeta) has no useful magnitude to
    pivot on, and exact arithmetic needs no numerical care)."""
    d = m.dim
    ctx = m.context
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


def permanent_ryser(m: ExactMatrix, cap: int = 16) -> CycElem:
    """Permanent by inclusion-exclusion over column subsets:
    per(M) = (-1)^dim * sum_S (-1)^|S| prod_i (sum_{j in S} m_ij),
    walking subsets in Gray-code order so each step updates the running
    column sums by a single column add or subtract.

    It runs on D * M packed into integers (per(M) = per(D M) / D^dim).  Each
    of the fewer than 2^dim products has l1 norm at most
    prod_i sum_j ||D m_ij||_1, which fixes the digit width; the running
    product is folded modulo x^n - 1 after every factor, which keeps it at
    n digits and leaves it within that norm.
    """
    d = m.dim
    if d > cap:
        raise CapExceededError(f"dimension {d} exceeds permanent cap {cap}")
    ctx = m.context
    den, rows = _cleared(m)
    bound = 1 << d
    for row in rows:
        bound *= sum(map(_l1, row))
    if not bound:
        return ctx.zero
    bits = bound.bit_length() + 1
    cols = [[ctx.pack(row[c], bits) for row in rows] for c in range(d)]
    fold = ctx.fold
    sums = [0] * d
    total = 0
    prev = 0
    for g in range(1, 1 << d):
        gray = g ^ (g >> 1)
        bit = gray ^ prev
        prev = gray
        col = cols[bit.bit_length() - 1]
        if gray & bit:
            sums = [s + x for s, x in zip(sums, col)]
        else:
            sums = [s - x for s, x in zip(sums, col)]
        prod = 1
        for s in sums:
            if not s:
                break
            prod = fold(prod * s, bits)
        else:
            # parity of |S| = popcount of the Gray word = parity of g
            if g & 1:
                total -= prod
            else:
                total += prod
    if d & 1:
        total = -total
    return CycElem(ctx, ctx.unpack(total, bits), den**d)


def permanent_naive(m: ExactMatrix, cap: int = 9) -> CycElem:
    """Permanent as the plain sum over all permutations; oracle for the
    Gray-code route, so it deliberately shares no code with it."""
    d = m.dim
    if d > cap:
        raise CapExceededError(f"dimension {d} exceeds naive permanent cap {cap}")
    ctx = m.context
    total = ctx.zero
    for perm in permutations(range(d)):
        prod = ctx.one
        for r, c in enumerate(perm):
            prod = prod * m.entries[r][c]
            if not prod:
                break
        total = total + prod
    return total


@dataclass(frozen=True)
class DerangementSums:
    """Sums of prod_j m[j, tau(j)] over fixed-point-free tau, split by
    sign class; signed = even_class - odd_class."""

    total: CycElem
    even_class: CycElem
    odd_class: CycElem
    signed: CycElem


def derangement_sums(
    m: ExactMatrix,
    method: str = "auto",
    enumeration_cap: int = 11,
    permanent_cap: int = 16,
) -> DerangementSums:
    """Derangement sums by direct enumeration or by the permanent/determinant
    combination on the diagonal-zeroed matrix (derangements never read the
    diagonal, per picks up the total, det the signed total, and the classes
    are (per +/- det)/2).  The two routes must agree exactly; "auto" takes
    the permanent route whenever its cap allows, since enumeration is the
    slower path at every dimension the caps admit.
    """
    d = m.dim
    ctx = m.context
    if method == "auto":
        method = "perdet" if d <= permanent_cap else "enumerate"
    if method == "enumerate":
        if d > enumeration_cap:
            raise CapExceededError(
                f"dimension {d} exceeds enumeration cap {enumeration_cap}"
            )
        even = ctx.zero
        odd = ctx.zero
        entries = m.entries
        for tau in derangements(d):
            prod = ctx.one
            for j, v in enumerate(tau.mapping):
                prod = prod * entries[j][v - 1]
                if not prod:
                    break
            if tau.sign > 0:
                even = even + prod
            else:
                odd = odd + prod
        return DerangementSums(even + odd, even, odd, even - odd)
    if method == "perdet":
        if d > permanent_cap:
            raise CapExceededError(f"dimension {d} exceeds permanent cap {permanent_cap}")
        z = m.zero_diagonal()
        per = permanent_ryser(z, cap=permanent_cap)
        det = det_exact(z)
        half = Fraction(1, 2)
        return DerangementSums(per, (per + det) * half, (per - det) * half, det)
    raise ValueError(f"unknown method {method!r}")


def charpoly_exact(m: ExactMatrix) -> list[CycElem]:
    """Monic characteristic polynomial det(xI - M) by the Faddeev-LeVerrier
    trace recurrence, run on A = D * M over Z[zeta_n].  Returns ascending
    coefficients c with c[dim] = 1.

    The coefficients of A's characteristic polynomial are algebraic
    integers, so each division of a trace by k is exact on every integer
    coordinate; a nonzero remainder raises ArithmeticError.  Coefficient j
    of M's polynomial is c_j(A) / D^(dim-j).
    """
    d = m.dim
    ctx = m.context
    den, a = _cleared(m)
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
