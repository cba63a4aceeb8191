"""Floating-point spectral layer: a self-contained Hermitian eigensolver,
the closed-form cotangent-matrix spectrum, residuals for the
eigenvector-eigenvalue identity, exact Lagrange interpolation of the minor
characteristic polynomial, and the spectrum check for the scaled minor.

The eigensolver embeds a complex Hermitian d x d matrix as the real
symmetric 2d x 2d block matrix [[Re, -Im], [Im, Re]] and runs cyclic Jacobi
sweeps on that.  Every eigenvalue of the complex matrix shows up twice in
the embedding (v and iv give independent real eigenvectors), so the doubled
spectrum is clustered into pairs and one complex eigenvector per pair is
recovered by re-orthogonalizing the complexified real vectors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

import numpy as np

from .exact import cp_minor_determinant, cyc_context
from .matrices import (
    ExactMatrix,
    build_bs_diagonal,
    build_sun_matrix,
    charpoly_exact,
    delete_rows_cols,
    det_exact,
    matmul,
)

__all__ = [
    "ConvergenceError",
    "EeiResult",
    "HermMatrix",
    "LiuSpectrumResult",
    "RealPoly",
    "SpectralDecomposition",
    "build_sun_matrix_minor",
    "charpoly_lagrange",
    "cp_spectrum_closed_form",
    "eei_residual",
    "embed_matrix",
    "herm_eigen",
    "liu_spectrum_check",
    "minor_det_closed_form",
    "random_hermitian",
]


class ConvergenceError(RuntimeError):
    """An iterative numerical routine hit its iteration cap."""


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


def _jacobi_symmetric(s: np.ndarray, max_sweeps: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi on a real symmetric matrix; returns (eigenvalues,
    orthogonal eigenvector columns), unsorted."""
    a = s.copy()
    d = a.shape[0]
    v = np.eye(d)
    if d < 2:
        return np.diag(a).copy(), v
    scale = np.max(np.abs(a))
    if scale == 0.0:
        return np.zeros(d), v
    stop = 1e-14 * scale
    for _ in range(max_sweeps):
        off = np.max(np.abs(a - np.diag(np.diag(a))))
        if off <= stop:
            return np.diag(a).copy(), v
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if abs(apq) <= stop * 1e-2:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                sn = t * c
                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = c * colp - sn * colq
                a[:, q] = sn * colp + c * colq
                rowp = a[p, :].copy()
                rowq = a[q, :].copy()
                a[p, :] = c * rowp - sn * rowq
                a[q, :] = sn * rowp + c * rowq
                colp = v[:, p].copy()
                colq = v[:, q].copy()
                v[:, p] = c * colp - sn * colq
                v[:, q] = sn * colp + c * colq
    raise ConvergenceError(f"Jacobi sweeps did not converge within {max_sweeps}")


def herm_eigen(m: HermMatrix, max_sweeps: int = 60) -> SpectralDecomposition:
    """Full eigen-decomposition of a Hermitian matrix.

    Deterministic for a fixed input: sweep order, pair clustering, and the
    re-orthogonalization are all fixed-order procedures.
    """
    d = m.dim
    if d < 1:
        raise ValueError("dimension must be >= 1")
    re, im = m.entries.real, m.entries.imag
    s = np.block([[re, -im], [im, re]])
    mu, w = _jacobi_symmetric(s, max_sweeps=max_sweeps)
    order = np.argsort(mu, kind="stable")
    mu = mu[order]
    w = w[:, order]

    scale = max(1.0, float(np.max(np.abs(mu))))
    tol = 1e-8 * scale
    # group the doubled spectrum into even-sized clusters
    bounds = [0]
    for k in range(1, 2 * d):
        if mu[k] - mu[k - 1] > tol:
            bounds.append(k)
    bounds.append(2 * d)
    clusters = [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    merged: list[tuple[int, int]] = []
    for lo, hi in clusters:
        if merged and (hi - lo) % 2 and (merged[-1][1] - merged[-1][0]) % 2:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    if any((hi - lo) % 2 for lo, hi in merged):
        raise ConvergenceError("doubled spectrum did not pair up")

    values: list[float] = []
    vectors: list[np.ndarray] = []
    for lo, hi in merged:
        need = (hi - lo) // 2
        cands = [w[:d, k] + 1j * w[d:, k] for k in range(lo, hi)]
        accepted: list[np.ndarray] = []
        while len(accepted) < need:
            best, best_norm = None, -1.0
            for cand in cands:
                r = cand.copy()
                for u in accepted:
                    r -= np.vdot(u, r) * u
                nrm = float(np.linalg.norm(r))
                if nrm > best_norm:
                    best, best_norm = r, nrm
            if best is None or best_norm < 1e-6:
                raise ConvergenceError("failed to recover a full eigenvector basis")
            accepted.append(best / best_norm)
        for u in accepted:
            values.append(float(np.real(np.vdot(u, m.entries @ u))))
            vectors.append(u)

    order2 = sorted(range(d), key=lambda i: values[i])
    lam = np.array([values[i] for i in order2])
    vecs = np.column_stack([vectors[i] for i in order2])
    return SpectralDecomposition(lam, vecs)


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


def build_sun_matrix_minor(n: int) -> ExactMatrix:
    """The (n-1)-dimensional principal minor (delete index n) of the
    reciprocal root-difference matrix, used by several spectrum checks."""
    return delete_rows_cols(build_sun_matrix(cyc_context(n)), {n})


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


def minor_det_closed_form(n: int) -> Fraction:
    """Determinant of the cotangent matrix's principal (n-1)-minor for odd n,
    exactly (-1)^((n-1)/2) ((n-1)!!)^2 / n."""
    return cp_minor_determinant(n)


def charpoly_lagrange(n: int) -> RealPoly:
    """Characteristic polynomial of the cotangent minor, reconstructed purely
    from closed forms: Lagrange interpolation through the n nodes n+1-2i with
    values (2^(n-1)/n) prod_{k!=i}(k-i), done in exact rational arithmetic
    and converted to floats at the end.  Monic of degree n-1 by construction
    (the node values are |v|^2-weighted spectral gap products, one degree
    below the node count)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    nodes = [Fraction(n + 1 - 2 * i) for i in range(1, n + 1)]
    values = []
    for i in range(1, n + 1):
        prod = Fraction(2) ** (n - 1) / n
        for k in range(1, n + 1):
            if k != i:
                prod *= k - i
        values.append(prod)
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
    return RealPoly(tuple(float(c) for c in acc))


@dataclass(frozen=True)
class LiuSpectrumResult:
    """Spectrum and determinant facts for the column-scaled minor: computed
    eigenvalues against the claimed integers, plus the exact determinant."""

    n: int
    eigenvalues: tuple[complex, ...]
    expected: tuple[int, ...]
    max_deviation: float
    det_value: Fraction
    det_expected: Fraction
    det_matches: bool


def _durand_kerner(coeffs: list[complex], max_iter: int = 500) -> list[complex]:
    """All roots of a polynomial (ascending complex coefficients) by
    Durand-Kerner simultaneous iteration; deterministic start values."""
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    deg = len(monic) - 1
    if deg == 0:
        return []
    radius = 1.0 + max(abs(c) for c in monic[:-1])
    seed = 0.4 + 0.9j
    roots = [radius * seed**k for k in range(1, deg + 1)]

    def horner(z: complex) -> complex:
        acc = 0j
        for c in reversed(monic):
            acc = acc * z + c
        return acc

    for _ in range(max_iter):
        shift = 0.0
        nxt = []
        for idx, z in enumerate(roots):
            denom = 1 + 0j
            for jdx, other in enumerate(roots):
                if jdx != idx:
                    denom *= z - other
            delta = horner(z) / denom
            nxt.append(z - delta)
            shift = max(shift, abs(delta))
        roots = nxt
        if shift < 1e-13 * max(1.0, radius):
            return roots
    raise ConvergenceError(f"root iteration did not settle within {max_iter}")


def liu_spectrum_check(n: int) -> LiuSpectrumResult:
    """For odd n: the (n-1)-minor of the reciprocal root-difference matrix
    times the diagonal matrix diag(1 - zeta^i) has the claimed spectrum
    {-(n-1)/2..-1, 1..(n-1)/2} and determinant (-1)^((n-1)/2) (((n-1)/2)!)^2.

    The determinant is verified exactly; the spectrum comes from the exact
    characteristic polynomial (the product matrix is not Hermitian), with
    roots found numerically.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("defined for odd n >= 3")
    minor = build_sun_matrix_minor(n)
    prod = matmul(minor, build_bs_diagonal(minor.context, 1))
    half = (n - 1) // 2
    expected = tuple(range(-half, 0)) + tuple(range(1, half + 1))
    det_expected = Fraction(math.factorial(half) ** 2)
    if half % 2:
        det_expected = -det_expected
    det_value = det_exact(prod).as_rational()

    coeffs = [c.to_complex() for c in charpoly_exact(prod)]
    roots = sorted(_durand_kerner(coeffs), key=lambda z: (z.real, z.imag))
    deviation = max(abs(r - e) for r, e in zip(roots, expected))
    return LiuSpectrumResult(
        n,
        tuple(roots),
        expected,
        deviation,
        det_value,
        det_expected,
        det_value == det_expected,
    )


