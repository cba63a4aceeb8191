"""Exact arithmetic: rationals and the cyclotomic fields Q(zeta_n).

An element of Q(zeta_n) is stored as a vector of integer coefficients over a
single positive denominator, reduced modulo the n-th cyclotomic polynomial
Phi_n.  The representation is canonical (content and denominator coprime,
denominator positive), so two elements are mathematically equal exactly when
their stored data are equal.  Working in Q[x]/(Phi_n) rather than the full
group ring Q[x]/(x^n - 1) keeps the quotient a field, which inversion needs.

Rationals are plain ``fractions.Fraction`` values throughout.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction

__all__ = [
    "Rational",
    "CycElem",
    "CyclotomicContext",
    "ContextMismatchError",
    "cyc_context",
    "cyclotomic_polynomial",
    "cp_minor_determinant",
    "double_factorial",
    "full_permanent",
    "minor_determinant",
    "minor_permanent",
    "parse_elem",
    "random_element",
]


class ContextMismatchError(ValueError):
    """Raised when elements of different cyclotomic orders are combined."""


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_div_exact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Divide integer polynomials (ascending coefficients), requiring an
    exact monic division with zero remainder."""
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num)
    dd = len(den) - 1
    quot = [0] * (len(rem) - dd)
    for k in range(len(rem) - 1, dd - 1, -1):
        c = rem[k]
        if c == 0:
            continue
        quot[k - dd] = c
        for i, dc in enumerate(den):
            rem[k - dd + i] -= c * dc
    if any(rem):
        raise ValueError("division is not exact")
    return quot


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of Phi_n, computed recursively as
    (x^n - 1) divided by the product of all lower-order Phi_d with d | n."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n):
        if d < n:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@functools.lru_cache(maxsize=None)
def cyc_context(n: int) -> "CyclotomicContext":
    """Shared context for Q(zeta_n); rejects n < 2."""
    return CyclotomicContext(n)


class CyclotomicContext:
    """Fixes the order n and the canonical basis 1, x, ..., x^(phi(n)-1)
    of Q(zeta_n) = Q[x]/(Phi_n), plus the power-reduction table all element
    arithmetic relies on."""

    __slots__ = ("n", "basis_degree", "modulus", "_powers", "_root", "_zero", "_one")

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"cyclotomic order must be >= 2, got {n}")
        self.n = n
        self.modulus = cyclotomic_polynomial(n)
        deg = len(self.modulus) - 1
        self.basis_degree = deg
        # x^k reduced mod Phi_n for every k we ever need: products of two
        # basis elements reach degree 2*deg - 2, zeta_pow reaches n - 1.
        top = max(2 * deg - 1, n)
        powers: list[tuple[int, ...]] = []
        for k in range(deg):
            powers.append(tuple(1 if i == k else 0 for i in range(deg)))
        for k in range(deg, top):
            prev = powers[k - 1]
            lead = prev[deg - 1]
            shifted = [0] + list(prev[:-1])
            if lead:
                for i in range(deg):
                    shifted[i] -= lead * self.modulus[i]
            powers.append(tuple(shifted))
        self._powers = tuple(powers)
        self._root = cmath.exp(2j * math.pi / n)
        self._zero = CycElem(self, (0,) * deg, 1, _normalized=True)
        self._one = CycElem(self, (1,) + (0,) * (deg - 1), 1, _normalized=True)

    def __repr__(self) -> str:
        return f"CyclotomicContext(n={self.n})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CyclotomicContext) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("CyclotomicContext", self.n))

    @property
    def zero(self) -> "CycElem":
        return self._zero

    @property
    def one(self) -> "CycElem":
        return self._one

    def from_rational(self, value: Fraction | int) -> "CycElem":
        q = Fraction(value)
        nums = (q.numerator,) + (0,) * (self.basis_degree - 1)
        return CycElem(self, nums, q.denominator, _normalized=True)

    def element(self, coeffs: Iterable[Fraction | int]) -> "CycElem":
        """Build an element from rational coefficients in the power basis."""
        qs = [Fraction(c) for c in coeffs]
        if len(qs) != self.basis_degree:
            raise ValueError(
                f"expected {self.basis_degree} coefficients, got {len(qs)}"
            )
        den = math.lcm(*(q.denominator for q in qs)) if qs else 1
        nums = tuple(q.numerator * (den // q.denominator) for q in qs)
        return CycElem(self, nums, den)

    def zeta_pow(self, k: int) -> "CycElem":
        """Canonical representation of zeta^k; k may be any integer."""
        return CycElem(self, self._powers[k % self.n], 1, _normalized=True)


class CycElem:
    """An element of Q(zeta_n): integer coefficient vector over a common
    positive denominator, always stored in lowest terms."""

    __slots__ = ("context", "nums", "den")

    def __init__(
        self,
        context: CyclotomicContext,
        nums: Sequence[int],
        den: int = 1,
        *,
        _normalized: bool = False,
    ):
        self.context = context
        if _normalized:
            self.nums = tuple(nums)
            self.den = den
            return
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            nums = [-v for v in nums]
        g = den
        for v in nums:
            g = math.gcd(g, v)
            if g == 1:
                break
        if g > 1:
            nums = [v // g for v in nums]
            den //= g
        self.nums = tuple(nums)
        self.den = den

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other: object) -> "CycElem | None":
        if isinstance(other, CycElem):
            if other.context.n != self.context.n:
                raise ContextMismatchError(
                    f"mixed cyclotomic orders {self.context.n} and {other.context.n}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.context.from_rational(other)
        return None

    # -- ring operations --------------------------------------------------

    def __add__(self, other: object) -> "CycElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return CycElem(
                self.context, [a + b for a, b in zip(self.nums, o.nums)], self.den
            )
        den = math.lcm(self.den, o.den)
        sa, sb = den // self.den, den // o.den
        return CycElem(
            self.context, [a * sa + b * sb for a, b in zip(self.nums, o.nums)], den
        )

    __radd__ = __add__

    def __sub__(self, other: object) -> "CycElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "CycElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self) -> "CycElem":
        return CycElem(
            self.context, tuple(-v for v in self.nums), self.den, _normalized=True
        )

    def __mul__(self, other: object) -> "CycElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        deg = self.context.basis_degree
        conv = [0] * (2 * deg - 1)
        for i, a in enumerate(self.nums):
            if a:
                onums = o.nums
                for j in range(deg):
                    b = onums[j]
                    if b:
                        conv[i + j] += a * b
        powers = self.context._powers
        for k in range(2 * deg - 2, deg - 1, -1):
            c = conv[k]
            if c:
                row = powers[k]
                for i in range(deg):
                    if row[i]:
                        conv[i] += c * row[i]
        return CycElem(self.context, conv[:deg], self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "CycElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "CycElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int) -> "CycElem":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.context.one
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "CycElem":
        """Multiplicative inverse via the extended Euclidean algorithm on
        polynomials over Q (Phi_n is irreducible, so any nonzero element is
        invertible)."""
        if not self:
            raise ZeroDivisionError("cannot invert zero")
        # self = P / den with P integer; inv(self) = den * inv(P).
        modulus = [Fraction(c) for c in self.context.modulus]
        r0, r1 = modulus, [Fraction(v) for v in self.nums]
        s0: list[Fraction] = [Fraction(0)]
        s1: list[Fraction] = [Fraction(1)]
        while True:
            d1 = _frac_degree(r1)
            if d1 <= 0:
                break
            q, r = _frac_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _frac_sub(s0, _frac_mul(q, s1))
        if _frac_degree(r1) < 0:
            raise ZeroDivisionError("element is not invertible")
        c = r1[0]
        inv_coeffs = [s * self.den / c for s in s1]
        inv_coeffs += [Fraction(0)] * (self.context.basis_degree - len(inv_coeffs))
        return self.context.element(inv_coeffs[: self.context.basis_degree])

    # -- predicates & conversions -----------------------------------------

    def __bool__(self) -> bool:
        return any(self.nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.context.from_rational(other)
        if not isinstance(other, CycElem):
            return NotImplemented
        return (
            self.context.n == other.context.n
            and self.nums == other.nums
            and self.den == other.den
        )

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.context.n, self.nums, self.den))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.nums[0], self.den)

    def to_complex(self) -> complex:
        """Evaluate at zeta = exp(2*pi*i/n) in double precision."""
        z = self.context._root
        acc = 0j
        for v in reversed(self.nums):
            acc = acc * z + v
        return acc / self.den

    def conjugate(self) -> "CycElem":
        """Complex conjugate: the image under zeta -> zeta^(-1)."""
        ctx = self.context
        out = ctx.zero
        for k, q in enumerate(self.coeffs):
            if q:
                out = out + ctx.zeta_pow(-k) * q
        return out

    def serialize(self) -> str:
        """Text form ``n:[c0,c1,...]`` with each coefficient as ``p/q``."""
        parts = ",".join(f"{v}/{self.den}" for v in self.nums)
        return f"{self.context.n}:[{parts}]"

    def __repr__(self) -> str:
        return f"CycElem({self.serialize()})"

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.as_rational())
        return self.serialize()


def _frac_degree(p: Sequence[Fraction]) -> int:
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _frac_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _frac_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


def _frac_divmod(
    num: Sequence[Fraction], den: Sequence[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    dn = _frac_degree(num)
    dd = _frac_degree(den)
    rem = list(num) + [Fraction(0)] * max(0, dd - len(num) + 1)
    quot = [Fraction(0)] * max(1, dn - dd + 1)
    lead = den[dd]
    for k in range(dn, dd - 1, -1):
        c = rem[k]
        if c:
            q = c / lead
            quot[k - dd] = q
            for i in range(dd + 1):
                rem[k - dd + i] -= q * den[i]
    return quot, rem


def parse_elem(text: str, context: CyclotomicContext | None = None) -> CycElem:
    """Parse the ``n:[c0,c1,...]`` serialization back into an element."""
    head, _, body = text.partition(":")
    n = int(head.strip())
    ctx = context if context is not None else cyc_context(n)
    if ctx.n != n:
        raise ContextMismatchError(f"serialized order {n} != context order {ctx.n}")
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"malformed element text: {text!r}")
    inner = body[1:-1].strip()
    coeffs = [Fraction(part.strip()) for part in inner.split(",")] if inner else []
    return ctx.element(coeffs)


def random_element(
    ctx: CyclotomicContext, rng, max_numerator: int = 9, max_denominator: int = 9
) -> CycElem:
    """Small random element, for randomized algebra checks."""
    coeffs = [
        Fraction(rng.randint(-max_numerator, max_numerator), rng.randint(1, max_denominator))
        for _ in range(ctx.basis_degree)
    ]
    return ctx.element(coeffs)


# -- closed-form constants -------------------------------------------------


def double_factorial(m: int) -> int:
    """Product m * (m-2) * (m-4) * ...; empty product (m <= 0) is 1."""
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def full_permanent(n: int) -> Fraction:
    """Permanent of the n x n reciprocal matrix, even n: ((n-1)!!)^2 / 2^n."""
    if n < 2 or n % 2:
        raise ValueError("defined for even n >= 2")
    return Fraction(double_factorial(n - 1) ** 2, 2**n)


def minor_permanent(n: int) -> Fraction:
    """Permanent of its (n-1)-minor, odd n: (((n-1)/2)!)^2 / n."""
    if n < 3 or n % 2 == 0:
        raise ValueError("defined for odd n >= 3")
    return Fraction(math.factorial((n - 1) // 2) ** 2, n)


def minor_determinant(n: int) -> Fraction:
    """Determinant of that minor, odd n: (-1)^((n-1)/2) (((n-1)/2)!)^2 / n."""
    value = minor_permanent(n)
    return -value if (n - 1) // 2 % 2 else value


def cp_minor_determinant(n: int) -> Fraction:
    """Exact determinant of the (n-1)-dimensional principal minor of the
    cotangent (Calogero-Perelomov) matrix: (-1)^((n-1)/2) ((n-1)!!)^2 / n."""
    if n < 3 or n % 2 == 0:
        raise ValueError("defined for odd n >= 3")
    value = Fraction(double_factorial(n - 1) ** 2, n)
    return -value if (n - 1) // 2 % 2 else value
