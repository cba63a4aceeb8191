"""The tests' oracles and input helpers: slow, independent implementations
that the fast kernels in cyclosum are compared against, and the small
builders the tests feed them.  Nothing in the package imports this module.

Each oracle shares no code with the kernel it checks: the naive permanent
sums over all permutations, the enumerated derangement sums walk the
derangement stream, the Leibniz determinant sums signed permutation
products with the sign read off the cycle structure, the circulant
eigenvalues are plain field sums of the row times powers of zeta, the
cotangent matrix's eigenvectors are written out as the matrix V that the
tests multiply by, the product by such a V turns coefficient arrays and
divides by Phi_n, and the interpolated polynomial multiplies out every
Lagrange basis polynomial in Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from typing import Sequence

import numpy as np

from cyclosum.combinatorics import derangements
from cyclosum.exact import CycElem, CyclotomicContext
from cyclosum.matrices import CapExceededError, DerangementSums, ExactMatrix


def identity_matrix(context: CyclotomicContext, dim: int) -> ExactMatrix:
    one, zero = context.one, context.zero
    return ExactMatrix(
        context,
        dim,
        tuple(tuple(one if r == c else zero for c in range(dim)) for r in range(dim)),
    )


def random_element(
    ctx: CyclotomicContext, rng, max_numerator: int = 9, max_denominator: int = 9
) -> CycElem:
    """Small random element, for randomized algebra checks."""
    coeffs = [
        Fraction(rng.randint(-max_numerator, max_numerator), rng.randint(1, max_denominator))
        for _ in range(ctx.basis_degree)
    ]
    return ctx.element(coeffs)


def cycle_lengths(mapping: Sequence[int]) -> list[int]:
    """Sorted cycle lengths of a permutation of {1..l} given by its image
    vector (1-based)."""
    seen = [False] * len(mapping)
    lengths = []
    for start in range(len(mapping)):
        if seen[start]:
            continue
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            length += 1
            j = mapping[j] - 1
        lengths.append(length)
    return sorted(lengths)


def perm_sign(mapping: Sequence[int]) -> int:
    """Sign (-1)^(l - cycle count); rejects non-bijective input."""
    l = len(mapping)
    if sorted(mapping) != list(range(1, l + 1)):
        raise ValueError(f"not a bijection on 1..{l}: {mapping!r}")
    return 1 if (l - len(cycle_lengths(mapping))) % 2 == 0 else -1


def leibniz_det(m: ExactMatrix) -> CycElem:
    """Determinant as the signed sum over all permutations; oracle for both
    routes of det_exact."""
    total = m.context.zero
    for p in permutations(range(1, m.dim + 1)):
        term = m.context.one * perm_sign(p)
        for j in range(1, m.dim + 1):
            term = term * m.entry(j, p[j - 1])
        total = total + term
    return total


def permanent_naive(m: ExactMatrix, cap: int = 9) -> CycElem:
    """Permanent as the plain sum over all permutations; oracle for both
    routes of permanent_ryser, so it deliberately shares no code with it."""
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


def circulant_eigenvalues_naive(ctx: CyclotomicContext, t: Sequence[CycElem]) -> list[CycElem]:
    """lambda_k = sum_j t_j zeta^((n/N) jk) for k = 0..N-1, N = len(t), as
    sums of field products; oracle for matrices._circulant_eigenvalues."""
    step = ctx.n // len(t)
    return [
        sum((e * ctx.zeta_pow(step * j * k) for j, e in enumerate(t)), ctx.zero)
        for k in range(len(t))
    ]


def cp_eigenvector_exponents(n: int) -> list[list[int]]:
    """The exponents -ij of cp_eigenvectors' entries, row j and column i
    in 1..n."""
    return [[-i * j for i in range(1, n + 1)] for j in range(1, n + 1)]


def cp_eigenvectors(ctx: CyclotomicContext) -> ExactMatrix:
    """The closed-form eigenvectors as the columns of V, V_ji = zeta^(-ij)
    for rows j and columns i in 1..n; column i pairs with eigenvalue
    2i - n - 1."""
    return ExactMatrix(ctx, ctx.n, tuple(
        tuple(map(ctx.zeta_pow, row)) for row in cp_eigenvector_exponents(ctx.n)))


def root_power_product(a: ExactMatrix, exponents: Sequence[Sequence[int]]) -> ExactMatrix:
    """The exact product a V for V_ki = zeta^exponents[k][i].  Over the
    common denominator D of a, each entry is an integer coefficient array
    of length n, and a_jk zeta^e is that array turned e places modulo
    x^n - 1, so the product is one gather and one sum of integer arrays.
    Each sum is then reduced modulo Phi_n by long division from the top
    power down.  It makes no field product, and it shares no code with
    the eigenpair check of the cotangent matrix."""
    ctx, d, n = a.context, a.dim, a.context.n
    den = math.lcm(*(e.den for row in a.entries for e in row))
    coeffs = np.zeros((d, d, n), dtype=object)
    for j, row in enumerate(a.entries):
        for k, e in enumerate(row):
            coeffs[j, k, : len(e.nums)] = [v * (den // e.den) for v in e.nums]
    # turned[j, k, i, p] = coeffs[j, k, (p - exponents[k][i]) mod n]
    turn = (np.arange(n) - np.array(exponents, dtype=np.int64)[:, :, None]) % n
    sums = coeffs[:, np.arange(d)[:, None, None], turn].sum(axis=1)
    deg, phi = ctx.basis_degree, ctx.modulus
    for p in range(n - 1, deg - 1, -1):  # x^p = x^(p-deg) (x^deg - Phi_n)
        for q in range(deg):
            sums[:, :, p - deg + q] -= phi[q] * sums[:, :, p]
    return ExactMatrix(ctx, d, tuple(
        tuple(CycElem(ctx, sums[j, i, :deg].tolist(), den) for i in range(d))
        for j in range(d)))


def charpoly_lagrange_naive(n: int) -> list[Fraction]:
    """The Lagrange interpolation through the nodes n+1-2i with values
    (2^(n-1)/n) prod_{k!=i}(k-i), i = 1..n, with each basis polynomial
    multiplied out factor by factor in Fractions: O(n^3).  Oracle for
    spectral.charpoly_lagrange."""
    nodes = [Fraction(n + 1 - 2 * i) for i in range(1, n + 1)]
    values = [
        Fraction(2) ** (n - 1) / n * math.prod(k - i for k in range(1, n + 1) if k != i)
        for i in range(1, n + 1)
    ]
    acc = [Fraction(0)] * n
    for xi, yi in zip(nodes, values):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for xk in nodes:
            if xk != xi:
                # multiply the running basis polynomial by (x - xk)
                nxt = [Fraction(0)] * (len(basis) + 1)
                for p, cf in enumerate(basis):
                    nxt[p] -= cf * xk
                    nxt[p + 1] += cf
                basis = nxt
                denom *= xi - xk
        w = yi / denom
        for p, cf in enumerate(basis):
            acc[p] += w * cf
    return acc


def derangement_sums_enumerated(m: ExactMatrix) -> DerangementSums:
    """Derangement sums as plain sums over the enumerated derangements;
    oracle for derangement_sums, so it deliberately shares no code with it.
    Refuses dimensions above 11."""
    d = m.dim
    if d > 11:
        raise CapExceededError(f"dimension {d} exceeds enumeration cap 11")
    ctx = m.context
    even = odd = ctx.zero
    for tau in derangements(d):
        prod = ctx.one
        for j, v in enumerate(tau.mapping):
            prod = prod * m.entries[j][v - 1]
            if not prod:
                break
        if tau.sign > 0:
            even = even + prod
        else:
            odd = odd + prod
    return DerangementSums(even + odd, even, odd, even - odd)
