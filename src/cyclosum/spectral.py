"""Spectral layer: a self-contained Hermitian eigensolver, residuals for
the eigenvector-eigenvalue identity, the exact eigenpair check of the
cotangent matrix, exact Lagrange interpolation of the minor characteristic
polynomial, and the exact spectrum check for the scaled minor.

The eigensolver runs complex Jacobi sweeps on the d x d Hermitian matrix
itself, with no LAPACK call.  A sweep is the round-robin ordering of the
index pairs: each round's rotations touch disjoint pairs, so the round is
one d x d unitary J, applied as a <- J^H a J, and as v <- v J only when the
eigenvectors are asked for.  One kernel sweeps a whole stack of same-size
matrices at once: herm_eigen is a stack of one with eigenvectors, and
minor_spectra solves the d principal minors of a matrix in one stack,
eigenvalues only.  It is the one float kernel here: the
eigenvector-eigenvalue identity is the only statement checked in floating
point.  The cotangent matrix's eigenpairs are checked exactly in
Q(zeta_n), against its circulant spectrum as the matrices module proves
it, and the scaled minor's spectrum is settled exactly through its
characteristic polynomial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

import numpy as np

from .exact import CycElem, cyc_context, minor_determinant
from .matrices import (
    ExactMatrix,
    _circulant_charpoly,
    _circulant_eigenvalues,
    _circulant_row,
    build_cp_matrix,
    build_sun_matrix,
)


class ConvergenceError(RuntimeError):
    """The eigensolver hit its sweep cap."""


MAX_SWEEPS = 60

# An eigenvalue closer than this to another one has no basis-independent
# eigenvector components, so its EEI pairs are inconclusive.
GAP_THRESHOLD = 1e-8


@dataclass(frozen=True, eq=False)
class HermMatrix:
    """Complex double-precision Hermitian matrix; construction symmetrizes
    (entries become a/2 + a^H/2, which cannot overflow where (a + a^H)/2
    can), so entry(k,j) = conj(entry(j,k)) holds exactly afterwards."""

    dim: int
    entries: np.ndarray

    @classmethod
    def from_rows(cls, rows) -> "HermMatrix":
        a = np.asarray(rows, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        return cls(a.shape[0], a / 2 + a.conj().T / 2)

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
    """Eigenvalues ascending; eigenvector column i pairs with eigenvalue i
    (None when the solve was asked for eigenvalues only)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None


def _round_robin(d: int) -> list[list[tuple[int, int]]]:
    """One sweep of the round-robin (tournament) ordering: d - 1 rounds for
    even d, d for odd d, where one index sits out each round.  The pairs of
    a round are disjoint, and every pair (p, q), p < q, appears exactly
    once per sweep.  Index 0 stays put while the others turn one place per
    round; for odd d a phantom index d pads the circle, and its partner
    sits out."""
    size = d + d % 2
    circle = list(range(size))
    rounds = []
    for _ in range(size - 1):
        half = zip(circle[: size // 2], reversed(circle[size // 2 :]))
        rounds.append([(min(p, q), max(p, q)) for p, q in half if max(p, q) < d])
        circle.insert(1, circle.pop())
    return rounds


@functools.cache
def _round_tables(d: int) -> list[tuple]:
    """Per round of _round_robin(d): its pairs, the (row, column) indices
    of its a_pq followed by the diagonal, which the round reads, and the
    flat indices of J's entries (p, p), (q, q), (p, q) and (q, p), which it
    writes, with their values 1, 1, 0, 0 in the identity."""
    tables = []
    for pairs in _round_robin(d):
        ps = np.array([p for p, _ in pairs], dtype=np.intp)
        qs = np.array([q for _, q in pairs], dtype=np.intp)
        read = (np.concatenate([ps, np.arange(d)]), np.concatenate([qs, np.arange(d)]))
        write = np.concatenate([ps * (d + 1), qs * (d + 1), ps * d + qs, qs * d + ps])
        reset = np.repeat([1.0, 1.0, 0.0, 0.0], len(pairs))
        tables.append((pairs, read, write, reset))
    return tables


def _jacobi(mats: np.ndarray, vectors: bool) -> list[SpectralDecomposition]:
    """Eigen-decompositions of a stack of same-size Hermitian matrices by
    complex Jacobi sweeps (Golub and Van Loan, Matrix Computations, section
    8.5) in the round-robin ordering of Brent and Luk (SIAM J. Sci. Stat.
    Comput. 6, 1985), which converges like the cyclic-by-rows ordering (Luk
    and Park, 1989).  Eigenvectors only when vectors is set; otherwise the
    eigenvectors field of each result is None.

    Each rotation first turns the phase of a_pq onto the real axis, then
    zeroes it with the real rotation (c, s).  The pairs of one round are
    disjoint, so a member's rotations in that round make one unitary J, and
    the round applies a <- J^H a J to every member by one stacked product
    (and v <- v J when vectors is set).  A round reads only the members'
    pair entries and diagonals.  Each member's entries are first divided by
    a power of two near its own largest modulus, exact for every entry that
    stays a normal number, which keeps tiny and huge matrices inside the
    range the stop test needs; its eigenvalues are scaled back.  A member
    leaves the stack at the first sweep that finds it converged, and a
    stacked product gives each member the bits of its own 2-D product, so
    every result is bit for bit the one its matrix gets alone.
    Deterministic for a fixed input; an entry that is not finite raises
    ValueError, and a member still not converged after MAX_SWEEPS sweeps
    raises ConvergenceError.
    """
    count, d = mats.shape[:2]
    if d < 1:
        raise ValueError("dimension must be >= 1")
    scale = np.abs(mats).max(axis=(1, 2))
    if not np.isfinite(scale).all():
        raise ValueError("matrix entries must be finite")
    # scale = frac * 2**e with 0.5 <= frac < 1; frexp(0.0) is (0.0, 0), so
    # a zero matrix is left as it is.
    frac, e = np.frexp(scale)
    parts = np.ascontiguousarray(mats, dtype=np.complex128).view(np.float64)
    a = np.ldexp(parts, -e[:, None, None]).view(np.complex128)
    stop = 1e-14 * frac
    # J of each member, reset to the identity after every round; its
    # conjugate and J^H a reuse their buffers round after round.
    j = np.broadcast_to(np.eye(d, dtype=np.complex128), a.shape).copy()
    jc, half = np.empty_like(a), np.empty_like(a)
    v = j.copy() if vectors else None
    live = np.arange(count)  # the input index of each member still in the stack
    out: list[SpectralDecomposition] = [None] * count
    rounds = _round_tables(d)
    for _ in range(MAX_SWEEPS):
        off = np.abs(a)
        off[:, range(d), range(d)] = 0.0
        done = off.max(axis=(1, 2)) <= stop
        if done.any():
            lam = a.diagonal(axis1=1, axis2=2).real
            for k in np.flatnonzero(done).tolist():
                order = np.argsort(lam[k], kind="stable")
                out[live[k]] = SpectralDecomposition(
                    np.ldexp(lam[k][order], e[k]), v[k][:, order] if vectors else None
                )
            if done.all():
                return out
            keep = ~done
            a, stop, e, live = a[keep], stop[keep], e[keep], live[keep]
            if vectors:
                v = v[keep]
        size = len(a)
        js, jcs, halfs = j[:size], jc[:size], half[:size]
        flat = js.reshape(size, d * d)
        floors = (stop * 1e-2).tolist()
        for pairs, read, write, reset in rounds:
            rows = []
            for row, floor in zip(a[:, read[0], read[1]].tolist(), floors):
                diag = row[len(pairs):]
                cs, ss, sq = [], [], []
                for (p, q), z in zip(pairs, row):
                    r = abs(z)
                    if r <= floor:
                        cs.append(1.0)
                        ss.append(0j)
                        sq.append(0j)
                        continue
                    phase = z / r
                    tau = (diag[q].real - diag[p].real) / (2.0 * r)
                    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
                    c = 1.0 / math.hypot(t, 1.0)
                    s = t * c * phase
                    cs.append(c)
                    ss.append(s)
                    sq.append(-s.conjugate())
                rows.append(cs + cs + ss + sq)
            flat[:, write] = rows
            np.conjugate(js, out=jcs)
            np.matmul(jcs.transpose(0, 2, 1), a, out=halfs)
            np.matmul(halfs, js, out=a)
            if vectors:
                v = v @ js
            flat[:, write] = reset
    raise ConvergenceError(f"Jacobi sweeps did not converge within {MAX_SWEEPS}")


def herm_eigen(m: HermMatrix) -> SpectralDecomposition:
    """Full eigen-decomposition of a Hermitian matrix: _jacobi on a stack
    of one, with eigenvectors."""
    return _jacobi(m.entries[None], vectors=True)[0]


def minor_spectra(m: HermMatrix) -> list[np.ndarray]:
    """The eigenvalues of the d principal minors of m, item j - 1 for the
    minor without row and column j: one _jacobi call on the stack of all
    d minors, without eigenvectors.  Each spectrum is bit for bit the one
    herm_eigen(m.minor(j)) returns.  At dimension 1 the one minor is empty."""
    d = m.dim
    if d == 1:
        return [np.empty(0)]
    keep = np.array([[r for r in range(d) if r != j] for j in range(d)])
    minors = m.entries[keep[:, :, None], keep[:, None, :]]
    return [dec.eigenvalues for dec in _jacobi(minors, vectors=False)]


def random_hermitian(dim: int, rng: Random) -> HermMatrix:
    """Seeded random Hermitian matrix (real diagonal, complex off-diagonal);
    draws are made in a fixed element order so a seed pins the matrix."""
    a = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dim):
        a[j, j] = rng.uniform(-2.0, 2.0)
        for k in range(j + 1, dim):
            z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            a[j, k] = z
            a[k, j] = z.conjugate()
    return HermMatrix.from_rows(a)


# -- closed forms and identity checks ---------------------------------------


def cp_eigenvalues(n: int) -> list[int]:
    """Closed-form spectrum of the n x n cotangent matrix: 2i - n - 1 for
    i = 1..n."""
    return [2 * i - n - 1 for i in range(1, n + 1)]


def cp_eigenpair_failures(n: int) -> list[int]:
    """The columns i (1-based) where C v_i != mu_i v_i in Q(zeta_n) for the
    cotangent matrix C, mu = cp_eigenvalues(n) and v_i = (zeta^(-ij))_j.

    C must be circulant, checked exactly on every entry, or every column
    fails.  Then v_i is the Fourier eigenvector (zeta^(jk))_j, k = -i mod n,
    of C's eigenvalue lambda_k (Davis, Circulant Matrices, 1979), so
    C v_i = mu_i v_i exactly when lambda_(-i mod n) = mu_i, with lambda
    from _circulant_eigenvalues, which proves C's spectrum exactly."""
    if n < 2:
        raise ValueError("n must be >= 2")
    ctx = cyc_context(n)
    t = _circulant_row(build_cp_matrix(ctx))
    if t is None or len(t) != n:
        return list(range(1, n + 1))
    lam = _circulant_eigenvalues(ctx, t)
    return [i for i, mu in enumerate(cp_eigenvalues(n), 1) if lam[-i % n] != mu]


@dataclass(frozen=True)
class EeiResult:
    """One eigenvector-eigenvalue identity check: |v_ij|^2 times the spectral
    gaps of the full matrix against the gaps to the minor's spectrum."""

    lhs: float
    rhs: float
    residual: float
    gap: float
    conclusive: bool


def _eei_gap(lam: list[float], i: int) -> float:
    """The distance from eigenvalue i (0-based) of lam to the nearest other
    one; inf at dimension 1."""
    li = lam[i]
    return min((abs(li - lk) for k, lk in enumerate(lam) if k != i), default=math.inf)


def _eei_pair(
    lam: list[float], i: int, gap: float, weight: float, minor_lam: list[float]
) -> EeiResult:
    """The identity for one pair (i, j), i 0-based, given the full matrix's
    eigenvalues lam, gap = _eei_gap(lam, i), weight = |v_i(j)|^2 and the
    eigenvalues of its minor j (empty at dimension 1), all Python floats.
    Both verify_eei and eei_residual judge every pair through here.  The
    pair is conclusive only when its gap clears GAP_THRESHOLD and its
    residual is finite: products that overflow give inf or NaN, which must
    not become a verdict."""
    li = lam[i]
    lhs = weight
    for k, lk in enumerate(lam):
        if k != i:
            lhs *= li - lk
    rhs = 1.0
    for mk in minor_lam:
        rhs *= li - mk
    residual = abs(lhs - rhs) / (1.0 + abs(lhs))
    conclusive = gap > GAP_THRESHOLD and math.isfinite(residual)
    return EeiResult(lhs, rhs, residual, gap, conclusive)


def eei_residual(m: HermMatrix, i: int, j: int) -> EeiResult:
    """Compare |v_ij|^2 prod_{k!=i}(lam_i - lam_k) with
    prod_k(lam_i - lam_k(minor_j)); residual is |lhs-rhs|/(1+|lhs|).

    When lam_i is within GAP_THRESHOLD of another eigenvalue the component
    |v_ij|^2 depends on the basis chosen inside the eigenspace, so the check
    is flagged inconclusive rather than pass/fail; so is a residual that is
    not finite.  One pair from two herm_eigen solves, the matrix and its
    minor j, each with eigenvectors; verify_eei judges all d^2 pairs from
    one herm_eigen solve and one minor_spectra call.
    """
    d = m.dim
    if not (1 <= i <= d and 1 <= j <= d):
        raise IndexError(f"indices ({i},{j}) outside 1..{d}")
    dec = herm_eigen(m)
    minor_lam = herm_eigen(m.minor(j)).eigenvalues.tolist() if d > 1 else []
    lam = dec.eigenvalues.tolist()
    weight = abs(dec.eigenvectors[j - 1, i - 1].item()) ** 2
    return _eei_pair(lam, i - 1, _eei_gap(lam, i - 1), weight, minor_lam)


def _lagrange_nodes(n: int) -> tuple[list[int], list[Fraction], list[Fraction]]:
    """The nodes x_i = n+1-2i, i = 1..n, of charpoly_lagrange, their
    closed-form values y_i = (2^(n-1)/n) prod_{k!=i}(k-i), and the weights
    y_i / prod_{k!=i}(x_i - x_k).  Both products come from one factorial
    table: prod_{k!=i}(k-i) = (-1)^(i-1) (i-1)! (n-i)!, and
    x_i - x_k = 2(k-i) makes the second 2^(n-1) times the first, so every
    weight is 1/n."""
    nodes = [n + 1 - 2 * i for i in range(1, n + 1)]
    fact = [1]
    for k in range(1, n):
        fact.append(fact[-1] * k)
    power = 2 ** (n - 1)
    gaps = [-fact[i - 1] * fact[n - i] if i % 2 == 0 else fact[i - 1] * fact[n - i]
            for i in range(1, n + 1)]
    values = [Fraction(power * g, n) for g in gaps]
    return nodes, values, [y / (power * g) for y, g in zip(values, gaps)]


def charpoly_lagrange(n: int) -> list[Fraction]:
    """The cotangent minor's characteristic polynomial, reconstructed from
    closed forms alone: the exact ascending coefficients of the Lagrange
    interpolation through the n nodes n+1-2i with values
    (2^(n-1)/n) prod_{k!=i}(k-i) (_lagrange_nodes).  Monic of degree n-1
    by construction (the node values are |v|^2-weighted spectral gap
    products, one degree below the node count).

    The nodes are integers, so the node polynomial w(x) = prod_k (x - x_k)
    and each basis numerator w(x) / (x - x_i), by synthetic division, have
    integer coefficients; the weights are brought to one denominator, so
    the sum runs on integers in O(n^2)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    nodes, _, weights = _lagrange_nodes(n)
    node_poly = [1]  # ascending coefficients of w(x)
    for xk in nodes:
        node_poly = [lo - xk * hi for lo, hi in zip([0] + node_poly, node_poly + [0])]
    den = math.lcm(*(w.denominator for w in weights))
    acc = [0] * n
    for xi, w in zip(nodes, weights):
        scale = w.numerator * (den // w.denominator)
        q = 0  # w(x) / (x - x_i), from the top coefficient down
        for p in range(n - 1, -1, -1):
            q = node_poly[p + 1] + xi * q
            acc[p] += scale * q
    return [Fraction(c, den) for c in acc]


@dataclass(frozen=True)
class LiuSpectrumResult:
    """Spectrum and determinant facts for the column-scaled minor: whether
    its characteristic polynomial is exactly prod_k (x^2 - k^2) over the
    claimed integers, plus the exact determinant (None, and both checks
    false, when the sun matrix is not an order-n circulant)."""

    expected: tuple[int, ...]
    charpoly_matches: bool
    det_value: Fraction | None
    det_expected: Fraction
    det_matches: bool


def _twisted_charpoly(c: ExactMatrix) -> list[CycElem] | None:
    """Ascending coefficients of det(xI - P) for the twisted product P of
    an n x n circulant c over Q(zeta_n): c without row and column n, with
    column k scaled by 1 - zeta^k for k = 1..n-1.  None when c is not an
    order-n circulant, checked exactly on every entry.

    The answer is (p(x) - p(0)) / x, p(x) = det(xI - c) = prod_k
    (x - lambda_k) from _circulant_charpoly, so it is p's coefficients
    1..n.  Proof: let Q = c diag(1 - zeta^k), k = 0..n-1.  Column 0 of Q
    is zero, so det(xI - Q) = x det(xI - Q'), with Q' the minor of Q
    without row and column 0; and Q' = P, since c[r+1][s+1] = c[r][s].
    With F the Fourier matrix F_jk = zeta^(jk), c = F diag(lambda) F^-1,
    and F^-1 diag(zeta^k) F is the cyclic shift Pi, so Q is similar to
    diag(lambda)(I - Pi).  Then xI - Q is similar to a diagonal
    x - lambda_k plus one cyclic off-diagonal lambda_k, whose determinant
    has two terms, the identity's and the n-cycle's:
    p(x) + (-1)^(n-1) prod_k lambda_k = p(x) - p(0)."""
    ctx = c.context
    t = _circulant_row(c)
    if t is None or len(t) != ctx.n:
        return None
    return _circulant_charpoly(ctx, t, c.dim)[1:]


def liu_spectrum_check(n: int) -> LiuSpectrumResult:
    """For odd n: the (n-1)-minor of the reciprocal root-difference matrix
    with column k scaled by 1 - zeta^k has the claimed spectrum
    {-(n-1)/2..-1, 1..(n-1)/2} and determinant (-1)^((n-1)/2) (((n-1)/2)!)^2.

    One exact characteristic polynomial settles both: the product matrix is
    not Hermitian, so its spectrum is compared as that polynomial against
    prod_{k=1}^{(n-1)/2} (x^2 - k^2), whose roots are the claimed integers,
    and its determinant is the constant coefficient (the dimension n - 1 is
    even).  prod_k (1 - zeta^k) = n, so the determinant must be n times the
    minor's closed form.

    The polynomial comes from _twisted_charpoly of the sun matrix: from its
    exact eigenvalues as (p(x) - p(0)) / x, once it is checked an order-n
    circulant on every entry; a sun matrix that is not fails both checks.
    For odd n one eigenvalue is 0, so p(0) = 0 and the product's spectrum
    is the sun matrix's without that 0.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("defined for odd n >= 3")
    coeffs = _twisted_charpoly(build_sun_matrix(cyc_context(n)))
    half = (n - 1) // 2
    expected = tuple(range(-half, 0)) + tuple(range(1, half + 1))
    det_expected = n * minor_determinant(n)
    if coeffs is None:
        return LiuSpectrumResult(expected, False, None, det_expected, False)
    det_value = coeffs[0].as_rational()
    claimed = [1]  # ascending coefficients of prod_k (x^2 - k^2)
    for k in range(1, half + 1):
        claimed = [a - k * k * b for a, b in zip([0, 0] + claimed, claimed + [0, 0])]
    return LiuSpectrumResult(
        expected,
        coeffs == claimed,
        det_value,
        det_expected,
        det_value == det_expected,
    )
