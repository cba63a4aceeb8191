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


def _norm_steps(n: int) -> tuple[tuple[int, int], ...]:
    """Steps (g, p) of a subgroup chain of the unit group (Z/n)^*: H_i is
    generated by H_(i-1) and g, and p = [H_i : H_(i-1)] is prime."""
    units = [k for k in range(1, n) if math.gcd(k, n) == 1]
    group = {1}
    steps = []
    while len(group) < len(units):
        g = next(k for k in units if k not in group)
        order, x = 1, g
        while x not in group:
            x = x * g % n
            order += 1
        p = next(q for q in range(2, order + 1) if order % q == 0)
        g = pow(g, order // p, n)
        steps.append((g, p))
        group = {h * pow(g, e, n) % n for h in group for e in range(p)}
    return tuple(steps)


@functools.lru_cache(maxsize=None)
def cyc_context(n: int) -> "CyclotomicContext":
    """Shared context for Q(zeta_n); rejects n < 2."""
    return CyclotomicContext(n)


class CyclotomicContext:
    """Fixes the order n and the canonical basis 1, x, ..., x^(phi(n)-1)
    of Q(zeta_n) = Q[x]/(Phi_n), plus the sparse power-reduction table all
    integer arithmetic relies on.

    ``_reduction[k]`` lists the nonzero (index, coefficient) pairs of
    x^k mod Phi_n for 0 <= k < n; since x^n = 1 modulo Phi_n, any power
    x^m reduces through ``_reduction[m % n]``.  The same table serves
    multiplication, the Galois maps, and unpacking of Kronecker-packed
    integers (see ``pack``)."""

    __slots__ = (
        "n", "basis_degree", "modulus", "_reduction", "_norm_steps", "_root", "_zero", "_one"
    )

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"cyclotomic order must be >= 2, got {n}")
        self.n = n
        self.modulus = cyclotomic_polynomial(n)
        deg = len(self.modulus) - 1
        self.basis_degree = deg
        self._norm_steps = _norm_steps(n)
        rows = [((k, 1),) for k in range(deg)]
        dense = [0] * (deg - 1) + [1]  # x^(deg-1)
        for _ in range(deg, n):
            lead = dense[-1]
            dense = [0] + dense[:-1]
            if lead:
                for i in range(deg):
                    dense[i] -= lead * self.modulus[i]
            rows.append(tuple((i, c) for i, c in enumerate(dense) if c))
        self._reduction = tuple(rows)
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
        nums = [0] * self.basis_degree
        for i, c in self._reduction[k % self.n]:
            nums[i] = c
        return CycElem(self, nums, 1, _normalized=True)

    # -- integer coefficient vectors -------------------------------------------
    #
    # The kernels below work on integer coefficient vectors (the numerators
    # of elements over a common denominator).  A vector c is packed into the
    # single integer sum_i c_i 2^(bits*i): Kronecker substitution x -> 2^bits,
    # so adding or multiplying packed integers adds or multiplies the
    # polynomials without reducing them.  Decoding is exact as long as every
    # coefficient of the packed polynomial satisfies |c| < 2^(bits-1); the
    # callers derive ``bits`` from a proven bound on the coefficients.

    def pack(self, nums: Sequence[int], bits: int) -> int:
        """Kronecker-pack an integer coefficient vector with digit width bits."""
        value = 0
        for c in reversed(nums):
            value = (value << bits) + c
        return value

    def unpack(self, value: int, bits: int) -> list[int]:
        """Inverse of ``pack`` for a polynomial of any degree: fold it modulo
        x^n - 1, read the signed digits (each in [-2^(bits-1), 2^(bits-1)))
        from the low end, and reduce x^k modulo Phi_n on the way.  The digit
        width must bound the coefficients both before and after the fold;
        it does for every caller here, whose bounds hold for products taken
        modulo x^n - 1 as well."""
        value = self.fold(value, bits)
        out = [0] * self.basis_degree
        reduction, n = self._reduction, self.n
        mask = (1 << bits) - 1
        half = 1 << (bits - 1)
        k = 0
        while value:
            c = value & mask
            value >>= bits
            if c >= half:
                c -= mask + 1
                value += 1
            if c:
                for i, r in reduction[k % n]:
                    out[i] += c * r
            k += 1
        return out

    def fold(self, value: int, bits: int) -> int:
        """Reduce a packed polynomial modulo x^n - 1 (x^n = 1 modulo Phi_n)
        by adding its digits from position n up onto the low n.  Each
        coefficient of the result is a sum of coefficients of the input, so
        a digit width that bounds the input's l1 norm stays valid."""
        width = bits * self.n
        high = value >> width
        if not high:
            return value
        low = value - (high << width)
        if low >> (width - 1):  # the low n digits are negative
            low -= 1 << width
            high += 1
        return low + high

    def _mul_nums(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Product of two integer vectors modulo Phi_n, by one packed multiply.
        Each coefficient of the product, unreduced or taken modulo x^n - 1,
        is at most ||a||_1 * ||b||_inf in absolute value."""
        bound = sum(map(abs, a)) * max(map(abs, b))
        if not bound:
            return [0] * self.basis_degree
        bits = bound.bit_length() + 1
        return self.unpack(self.pack(a, bits) * self.pack(b, bits), bits)

    def _galois(self, nums: Sequence[int], k: int) -> list[int]:
        """Image of an integer vector under the automorphism zeta -> zeta^k,
        gcd(k, n) = 1."""
        out = [0] * self.basis_degree
        reduction, n = self._reduction, self.n
        for j, c in enumerate(nums):
            if c:
                for i, r in reduction[j * k % n]:
                    out[i] += c * r
        return out


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
        return CycElem(
            self.context, self.context._mul_nums(self.nums, o.nums), self.den * o.den
        )

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
        """Multiplicative inverse through the norm (Cohen, GTM 138, 4.2): for
        the integer numerator P, the product Q of its conjugates sigma_k(P),
        zeta -> zeta^k for every unit k mod n other than 1, satisfies
        P * Q = N(P), a nonzero rational integer, so
        1/(P/den) = den * Q / N(P).

        The conjugates are multiplied up a chain of subgroups
        {1} = H_0 < H_1 < ... < H_r = (Z/n)^*, each of prime index p over the
        last: with A = N_{H_{i-1}}(P) and T the product of g^e(A) for
        e = 1..p-1, A * T = N_{H_i}(P), and the T of all steps multiply to Q.
        That takes sum(p) multiplications over the steps instead of the
        phi(n) - 1 of a plain product, and they are more evenly sized."""
        if not self:
            raise ZeroDivisionError("cannot invert zero")
        ctx = self.context
        mul, galois = ctx._mul_nums, ctx._galois
        norm = self.nums
        conj = [1] + [0] * (ctx.basis_degree - 1)
        for g, p in ctx._norm_steps:
            image = galois(norm, g)
            step = image
            for _ in range(p - 2):
                image = galois(image, g)
                step = mul(step, image)
            conj = mul(conj, step)
            norm = mul(norm, step)
        if any(norm[1:]):
            raise ArithmeticError("norm of an element is not rational")
        return CycElem(ctx, [c * self.den for c in conj], norm[0])

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
        return CycElem(ctx, ctx._galois(self.nums, -1), self.den, _normalized=True)

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
