"""Floating-point spectral layer: a self-contained Hermitian eigensolver,
the closed-form cotangent-matrix spectrum, residuals for the
eigenvector-eigenvalue identity, exact Lagrange interpolation of the minor
characteristic polynomial, and the exact spectrum check for the scaled minor.

The eigensolver runs cyclic complex Jacobi sweeps on the d x d Hermitian
matrix itself, with no LAPACK call.  It is the one float kernel here: the
eigenvector-eigenvalue identity is the only statement checked in floating
point, while the scaled minor's spectrum is settled exactly through its
characteristic polynomial.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

import numpy as np

from .exact import cyc_context
from .matrices import (
    ExactMatrix,
    build_bs_diagonal,
    build_sun_matrix,
    charpoly_exact,
    delete_rows_cols,
    det_exact,
    matmul,
)


class ConvergenceError(RuntimeError):
    """The eigensolver hit its sweep cap."""


MAX_SWEEPS = 60


@dataclass(frozen=True, eq=False)
class HermMatrix:
    """Complex double-precision Hermitian matrix; construction symmetrizes
    (entries become (a + a^H)/2), so entry(k,j) = conj(entry(j,k)) holds
    exactly afterwards."""

    dim: int
    entries: np.ndarray

    @classmethod
    def from_rows(cls, rows) -> "HermMatrix":
        a = np.asarray(rows, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        return cls(a.shape[0], (a + a.conj().T) / 2)

    def entry(self, j: int, k: int) -> complex:
        """1-based accessor."""
        return complex(self.entries[j - 1, k - 1])

    def minor(self, j: int) -> "HermMatrix":
        """Delete 1-based row and column j."""
        keep = [r for r in range(self.dim) if r != j - 1]
        return HermMatrix(self.dim - 1, self.entries[np.ix_(keep, keep)])


def embed_matrix(m: ExactMatrix) -> HermMatrix:
    """Evaluate an exact matrix at zeta = exp(2*pi*i/n); the result must be
    Hermitian up to rounding (symmetrization absorbs the rounding)."""
    return HermMatrix.from_rows(
        [[e.to_complex() for e in row] for row in m.entries]
    )


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues ascending; eigenvector column i pairs with eigenvalue i."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class RealPoly:
    """Univariate polynomial with real coefficients, ascending order."""

    coeffs: tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def herm_eigen(m: HermMatrix) -> SpectralDecomposition:
    """Full eigen-decomposition of a Hermitian matrix by cyclic complex
    Jacobi sweeps (Golub and Van Loan, Matrix Computations, section 8.5).

    Each rotation first turns the phase of a_pq onto the real axis, then
    zeroes it with the real rotation (c, s); deterministic for a fixed input.
    """
    d = m.dim
    if d < 1:
        raise ValueError("dimension must be >= 1")
    a = m.entries.copy()
    v = np.eye(d, dtype=np.complex128)
    scale = np.max(np.abs(a))
    stop = 1e-14 * scale
    for _ in range(MAX_SWEEPS):
        if np.max(np.abs(a - np.diag(np.diag(a)))) <= stop:
            lam = a.diagonal().real
            order = np.argsort(lam, kind="stable")
            return SpectralDecomposition(lam[order], v[:, order])
        for p in range(d - 1):
            for q in range(p + 1, d):
                r = abs(a[p, q])
                if r <= stop * 1e-2:
                    continue
                phase = a[p, q] / r
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                sn = t * c
                for x in (a, v):
                    colp = x[:, p].copy()
                    colq = x[:, q] * phase.conjugate()
                    x[:, p] = c * colp - sn * colq
                    x[:, q] = sn * colp + c * colq
                rowp = a[p, :].copy()
                rowq = a[q, :] * phase
                a[p, :] = c * rowp - sn * rowq
                a[q, :] = sn * rowp + c * rowq
    raise ConvergenceError(f"Jacobi sweeps did not converge within {MAX_SWEEPS}")


def random_hermitian(dim: int, rng: Random, magnitude: float = 1.0) -> HermMatrix:
    """Seeded random Hermitian matrix (real diagonal, complex off-diagonal);
    draws are made in a fixed element order so a seed pins the matrix."""
    a = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dim):
        a[j, j] = rng.uniform(-2 * magnitude, 2 * magnitude)
        for k in range(j + 1, dim):
            z = complex(
                rng.uniform(-magnitude, magnitude), rng.uniform(-magnitude, magnitude)
            )
            a[j, k] = z
            a[k, j] = z.conjugate()
    return HermMatrix.from_rows(a)


# -- closed forms and identity checks ---------------------------------------


def cp_spectrum_closed_form(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form spectrum of the n x n cotangent matrix: eigenvalue
    2i - n - 1 with unit eigenvector components exp(-2*pi*1j*i*j/n)/sqrt(n),
    for i = 1..n (columns) and j = 1..n (rows)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    lam = np.array([2 * i - n - 1 for i in range(1, n + 1)], dtype=np.float64)
    root = 1.0 / math.sqrt(n)
    vecs = np.array(
        [
            [root * cmath.exp(-2j * math.pi * i * j / n) for i in range(1, n + 1)]
            for j in range(1, n + 1)
        ],
        dtype=np.complex128,
    )
    return lam, vecs


@dataclass(frozen=True)
class EeiResult:
    """One eigenvector-eigenvalue identity check: |v_ij|^2 times the spectral
    gaps of the full matrix against the gaps to the minor's spectrum."""

    lhs: float
    rhs: float
    residual: float
    gap: float
    conclusive: bool


def _eei_pair(
    dec: SpectralDecomposition,
    minor_lam: np.ndarray,
    i: int,
    j: int,
    gap_threshold: float,
) -> EeiResult:
    """The identity for one pair (i, j), given the decomposition of the full
    matrix and the eigenvalues of its minor j (empty at dimension 1).
    Both verify_eei and eei_residual judge every pair through here."""
    lam = dec.eigenvalues
    d = len(lam)
    li = lam[i - 1]
    gap = min(
        (abs(li - lam[k]) for k in range(d) if k != i - 1), default=math.inf
    )
    lhs = abs(dec.eigenvectors[j - 1, i - 1]) ** 2
    for k in range(d):
        if k != i - 1:
            lhs *= li - lam[k]
    rhs = 1.0
    for mk in minor_lam:
        rhs *= li - mk
    residual = abs(lhs - rhs) / (1.0 + abs(lhs))
    return EeiResult(lhs, rhs, residual, gap, gap > gap_threshold)


def eei_residual(
    m: HermMatrix, i: int, j: int, gap_threshold: float = 1e-8
) -> EeiResult:
    """Compare |v_ij|^2 prod_{k!=i}(lam_i - lam_k) with
    prod_k(lam_i - lam_k(minor_j)); residual is |lhs-rhs|/(1+|lhs|).

    When lam_i is within gap_threshold of another eigenvalue the component
    |v_ij|^2 depends on the basis chosen inside the eigenspace, so the check
    is flagged inconclusive rather than pass/fail.
    """
    d = m.dim
    if not (1 <= i <= d and 1 <= j <= d):
        raise IndexError(f"indices ({i},{j}) outside 1..{d}")
    dec = herm_eigen(m)
    minor_lam = herm_eigen(m.minor(j)).eigenvalues if d > 1 else np.empty(0)
    return _eei_pair(dec, minor_lam, i, j, gap_threshold)


def charpoly_lagrange(n: int) -> RealPoly:
    """Characteristic polynomial of the cotangent minor, reconstructed purely
    from closed forms (see _lagrange_coeffs), converted to floats."""
    return RealPoly(tuple(float(c) for c in _lagrange_coeffs(n)))


def _lagrange_coeffs(n: int) -> list[Fraction]:
    """Exact ascending coefficients of the Lagrange interpolation through
    the n nodes n+1-2i with values (2^(n-1)/n) prod_{k!=i}(k-i).  Monic of
    degree n-1 by construction (the node values are |v|^2-weighted spectral
    gap products, one degree below the node count)."""
    if n < 2:
        raise ValueError("n must be >= 2")
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


@dataclass(frozen=True)
class LiuSpectrumResult:
    """Spectrum and determinant facts for the column-scaled minor: whether
    its characteristic polynomial is exactly prod_k (x^2 - k^2) over the
    claimed integers, plus the exact determinant."""

    n: int
    expected: tuple[int, ...]
    charpoly_matches: bool
    det_value: Fraction
    det_expected: Fraction
    det_matches: bool


def liu_spectrum_check(n: int) -> LiuSpectrumResult:
    """For odd n: the (n-1)-minor of the reciprocal root-difference matrix
    times the diagonal matrix diag(1 - zeta^i) has the claimed spectrum
    {-(n-1)/2..-1, 1..(n-1)/2} and determinant (-1)^((n-1)/2) (((n-1)/2)!)^2.

    Both are verified exactly: the product matrix is not Hermitian, so its
    spectrum is compared as the exact characteristic polynomial against
    prod_{k=1}^{(n-1)/2} (x^2 - k^2), whose roots are the claimed integers.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("defined for odd n >= 3")
    minor = delete_rows_cols(build_sun_matrix(cyc_context(n)), {n})
    prod = matmul(minor, build_bs_diagonal(minor.context, 1))
    half = (n - 1) // 2
    expected = tuple(range(-half, 0)) + tuple(range(1, half + 1))
    det_expected = Fraction(math.factorial(half) ** 2)
    if half % 2:
        det_expected = -det_expected
    det_value = det_exact(prod).as_rational()
    claimed = [1]  # ascending coefficients of prod_k (x^2 - k^2)
    for k in range(1, half + 1):
        claimed = [a - k * k * b for a, b in zip([0, 0] + claimed, claimed + [0, 0])]
    return LiuSpectrumResult(
        n,
        expected,
        charpoly_exact(prod) == claimed,
        det_value,
        det_expected,
        det_value == det_expected,
    )
