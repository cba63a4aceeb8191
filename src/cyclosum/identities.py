"""Verification operations: each one computes both sides of a single
identity and returns a VerificationReport.

Exact identities (the permanent/determinant/derangement-sum ones) pass only
on exact equality of canonical representations; spectral identities carry a
tolerance.  A report never invents a verdict: anything the check cannot
decide (a degenerate eigenvalue, a parameter outside a statement's range)
comes back "inconclusive" or "fail" with an explanatory note, not "pass".
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from random import Random
from typing import Sequence

import numpy as np

from .combinatorics import full_cycles, partitions_min2
from .exact import (
    cp_minor_determinant,
    cyc_context,
    double_factorial,
    full_permanent,
    minor_determinant,
    minor_permanent,
)
from .matrices import (
    build_cp_matrix,
    build_sun_matrix,
    delete_rows_cols,
    derangement_sums,
    det_exact,
    charpoly_exact,
    make_matrix,
    permanent_ryser,
)
# Eigensolves go through spectral.herm_eigen, looked up at call time, so that
# a replacement on the spectral module (a tracer, a counting test) sees them.
from . import spectral
from .spectral import (
    HermMatrix,
    _eei_pair,
    _lagrange_coeffs,
    cp_spectrum_closed_form,
    embed_matrix,
    liu_spectrum_check,
    random_hermitian,
)

__all__ = [
    "IDENTITY_IDS",
    "VerificationReport",
    "random_distinct_rationals",
    "verify_eei",
    "verify_eq1_1",
    "verify_eq1_2",
    "verify_eq1_3",
    "verify_eq2_3_liu",
    "verify_eq2_4",
    "verify_eq3_1",
    "verify_lemma3_2",
    "verify_thm2_1",
    "verify_thm3_1",
]

IDENTITY_IDS = (
    "eq1_1",
    "eq1_2",
    "eq1_3",
    "lemma3_2",
    "eq3_1",
    "thm3_1_odd",
    "thm3_1_even",
    "eq2_3_liu",
    "eq2_4",
    "thm2_1",
    "eei",
)


@dataclass(frozen=True)
class VerificationReport:
    identity_id: str
    n: int
    parameters: dict
    lhs: str | float
    rhs: str | float
    verdict: str
    elapsed: float
    notes: str = ""

    def to_json_dict(self, include_elapsed: bool = False) -> dict:
        """The fields in declaration order, with elapsed moved last and kept
        only on request."""
        out = asdict(self)
        elapsed = out.pop("elapsed")
        if include_elapsed:
            out["elapsed"] = elapsed
        return out


def random_distinct_rationals(l: int, rng: Random) -> tuple[Fraction, ...]:
    """l pairwise-distinct rationals with numerators in [-99, 99] and
    denominators in [1, 20], rejection-sampled from the given generator."""
    xs: list[Fraction] = []
    while len(xs) < l:
        q = Fraction(rng.randint(-99, 99), rng.randint(1, 20))
        if q not in xs:
            xs.append(q)
    return tuple(xs)


def _cycle_term(xs: Sequence, mapping: Sequence[int]):
    """prod_j 1/(x_{tau(j)} - x_j) in whatever exact field xs lives in."""
    prod = Fraction(1)
    for j, v in enumerate(mapping, start=1):
        prod = prod / (xs[v - 1] - xs[j - 1])
    return prod


def _check_distinct(xs: Sequence) -> None:
    if len(set(xs)) != len(xs):
        raise ValueError("scalars must be pairwise distinct")


# -- permanent / determinant identities --------------------------------------


def verify_eq1_1(n: int, permanent_cap: int = 16) -> VerificationReport:
    """Permanent of the n x n reciprocal matrix against ((n-1)!!)^2 / 2^n,
    even n; also cross-checks the sign-twisted determinant form
    per = (-1)^(n/2) det on the same matrix."""
    if n % 2 or n < 2:
        raise ValueError("defined for even n >= 2")
    t0 = time.perf_counter()
    m = build_sun_matrix(cyc_context(n))
    per = permanent_ryser(m, cap=permanent_cap)
    rhs = full_permanent(n)
    det = det_exact(m)
    twisted = -det if (n // 2) % 2 else det
    ok = per == rhs and per == twisted
    notes = "per equals (-1)^(n/2) det" if per == twisted else "per != (-1)^(n/2) det"
    return VerificationReport(
        "eq1_1",
        n,
        {"det_cross_check": per == twisted},
        str(per),
        str(rhs),
        "pass" if ok else "fail",
        (time.perf_counter() - t0) * 1e3,
        notes,
    )


def verify_eq1_2(n: int, permanent_cap: int = 16) -> VerificationReport:
    """Permanent of the (n-1)-minor against (1/n) (((n-1)/2)!)^2, odd n.

    The source statements delete index n in one place and index 1 in
    another; the two minors must agree, which settles the ambiguity.  They
    do entry for entry, since the matrix is circulant, and then the
    permanent is computed once; otherwise both permanents are computed.
    """
    if n % 2 == 0 or n < 3:
        raise ValueError("defined for odd n >= 3")
    t0 = time.perf_counter()
    m = build_sun_matrix(cyc_context(n))
    last = delete_rows_cols(m, {n})
    first = delete_rows_cols(m, {1})
    per = permanent_ryser(last, cap=permanent_cap)
    agree = (
        first.entries == last.entries
        or permanent_ryser(first, cap=permanent_cap) == per
    )
    rhs = minor_permanent(n)
    ok = per == rhs and agree
    return VerificationReport(
        "eq1_2",
        n,
        {"deletions_agree": agree},
        str(per),
        str(rhs),
        "pass" if ok else "fail",
        (time.perf_counter() - t0) * 1e3,
        "minors from deleting index n and index 1 agree"
        if agree
        else "deleting index n and index 1 gave different permanents",
    )


def verify_eq1_3(n: int) -> VerificationReport:
    """Determinant of the (n-1)-minor against
    (-1)^((n-1)/2) (1/n) (((n-1)/2)!)^2, odd n, plus the two steps the
    derivation leans on: det(minor) = 2^(1-n) times the cotangent-minor
    determinant, which is computed and must equal its own closed form, and
    (n-1)!! = 2^((n-1)/2) ((n-1)/2)!.  The minors deleting index n and
    index 1 are compared as in verify_eq1_2."""
    if n % 2 == 0 or n < 3:
        raise ValueError("defined for odd n >= 3")
    t0 = time.perf_counter()
    ctx = cyc_context(n)
    m = build_sun_matrix(ctx)
    last = delete_rows_cols(m, {n})
    first = delete_rows_cols(m, {1})
    det = det_exact(last)
    agree = first.entries == last.entries or det_exact(first) == det
    rhs = minor_determinant(n)
    half = (n - 1) // 2
    cp_det = det_exact(delete_rows_cols(build_cp_matrix(ctx), {n}))
    chain_scaling = cp_det == cp_minor_determinant(n) and det * 2 ** (n - 1) == cp_det
    chain_dfac = double_factorial(n - 1) == 2**half * math.factorial(half)
    ok = det == rhs and agree and chain_scaling and chain_dfac
    return VerificationReport(
        "eq1_3",
        n,
        {
            "deletions_agree": agree,
            "scaling_chain": chain_scaling,
            "double_factorial_chain": chain_dfac,
        },
        str(det),
        str(rhs),
        "pass" if ok else "fail",
        (time.perf_counter() - t0) * 1e3,
    )


# -- cycle-sum and partition identities ---------------------------------------


def _cycle_class_key(mapping: Sequence[int]) -> tuple[int, ...]:
    """Canonical label of a full cycle's class: the cyclic order induced on
    {2..l} once symbol 1 is skipped over.  Each class collects the l-1
    cycles that insert 1 into one cyclic order, so there are (l-2)! classes
    of l-1 members each."""
    l = len(mapping)
    after_one = mapping[0]
    succ = {}
    for x in range(2, l + 1):
        y = mapping[x - 1]
        succ[x] = y if y != 1 else after_one
    key = [2]
    cur = 2
    for _ in range(l - 3):
        cur = succ[cur]
        key.append(cur)
    return tuple(key)


def verify_lemma3_2(l: int, xs: Sequence) -> VerificationReport:
    """Sum of prod 1/(x_{tau(j)} - x_j) over all full cycles is exactly zero
    for l > 2, and already vanishes inside each insertion class.

    l = 2 is accepted but reported as the counterexample it is: the sum is
    -1/(x_1-x_2)^2 != 0, so the verdict says fail with a note, showing why
    the statement needs l > 2.
    """
    if l < 2:
        raise ValueError("need l >= 2")
    _check_distinct(xs)
    if len(xs) != l:
        raise ValueError(f"expected {l} scalars, got {len(xs)}")
    t0 = time.perf_counter()
    class_sums: dict[tuple[int, ...], object] = {}
    total = Fraction(0)
    for tau in full_cycles(l):
        term = _cycle_term(xs, tau.mapping)
        key = _cycle_class_key(tau.mapping)
        class_sums[key] = class_sums.get(key, Fraction(0)) + term
        total = total + term
    classes_zero = all(not s for s in class_sums.values())
    params = {"xs": [str(x) for x in xs], "classes": len(class_sums)}
    if l == 2:
        verdict = "fail"
        notes = "l=2 lies outside the statement (it needs l > 2); sum is nonzero"
    else:
        params["class_sums_vanish"] = classes_zero
        verdict = "pass" if not total and classes_zero else "fail"
        notes = (
            f"all {len(class_sums)} insertion-class partial sums vanish"
            if classes_zero
            else "some insertion-class partial sum is nonzero"
        )
    return VerificationReport(
        "lemma3_2", l, params, str(total), "0", verdict,
        (time.perf_counter() - t0) * 1e3, notes,
    )


def _block_cycle_sum(xs: Sequence, block: Sequence[int]):
    """f(Y): the full-cycle sum restricted to the labels in one block."""
    if len(block) < 2:
        return Fraction(0)
    ys = [xs[i - 1] for i in block]
    return sum((_cycle_term(ys, c.mapping) for c in full_cycles(len(ys))), Fraction(0))


def verify_eq3_1(l: int, xs: Sequence) -> VerificationReport:
    """Even-sign derangement sum against its decomposition over partitions
    into blocks of size >= 2 with an odd number of blocks, odd l; both sides
    must agree exactly and (for odd l >= 3) both are zero, since every such
    partition owns a block of size >= 3 whose full-cycle sum vanishes.

    The lhs is the even class of derangement_sums on W_jk = 1/(x_k - x_j),
    a rational matrix (Q(zeta_2) = Q), so it comes from the
    permanent/determinant route; the rhs enumerates partitions and full
    cycles."""
    if l < 3 or l % 2 == 0:
        raise ValueError("defined for odd l >= 3")
    _check_distinct(xs)
    if len(xs) != l:
        raise ValueError(f"expected {l} scalars, got {len(xs)}")
    t0 = time.perf_counter()
    w = make_matrix(
        cyc_context(2),
        [[Fraction(1) / (xk - xj) if xk != xj else 0 for xk in xs] for xj in xs],
    )
    lhs = derangement_sums(w).even_class
    rhs = Fraction(0)
    count = 0
    for part in partitions_min2(l, "odd"):
        count += 1
        prod = Fraction(1)
        for block in part.blocks:
            prod = prod * _block_cycle_sum(xs, block)
            if not prod:
                break
        rhs = rhs + prod
    ok = lhs == rhs and not lhs
    return VerificationReport(
        "eq3_1",
        l,
        {"xs": [str(x) for x in xs], "partitions": count},
        str(lhs),
        str(rhs),
        "pass" if ok else "fail",
        (time.perf_counter() - t0) * 1e3,
        "both sides vanish" if ok else "sides differ or are nonzero",
    )


def verify_thm3_1(
    n: int,
    deleted: Sequence[int],
    permanent_cap: int = 16,
    enumeration_cap: int = 11,
) -> VerificationReport:
    """Sign-class derangement sums of the sub-matrix after deleting the
    index set: for l = n - k odd both classes vanish; for l even the class
    with sign (-1)^(l/2 + 1) vanishes.  k = 1 sits outside the statement
    and is reported inconclusive with the observed sums."""
    s = sorted(set(deleted))
    k = len(s)
    if k >= n:
        raise ValueError("cannot delete every index")
    t0 = time.perf_counter()
    m = build_sun_matrix(cyc_context(n))
    sub = delete_rows_cols(m, s) if s else m
    sums = derangement_sums(
        sub, enumeration_cap=enumeration_cap, permanent_cap=permanent_cap
    )
    l = n - k
    params = {
        "deleted": s,
        "k": k,
        "l": l,
        "even_class": str(sums.even_class),
        "odd_class": str(sums.odd_class),
    }
    elapsed = (time.perf_counter() - t0) * 1e3
    identity = "thm3_1_odd" if l % 2 else "thm3_1_even"
    lhs, rhs = sums.even_class, sums.odd_class
    if k == 1:
        verdict = "inconclusive"
        notes = "k=1 is outside the statement; class sums reported unjudged"
    elif l % 2:
        verdict = "pass" if not lhs and not rhs else "fail"
        notes = "both sign classes must vanish for odd l"
    else:
        vanish_even = (l // 2 + 1) % 2 == 0
        params["vanishing_class"] = "even" if vanish_even else "odd"
        lhs, rhs = (sums.even_class if vanish_even else sums.odd_class), 0
        verdict = "pass" if not lhs else "fail"
        notes = f"class with sign (-1)^(l/2+1) is the {params['vanishing_class']} class"
    return VerificationReport(
        identity, n, params, str(lhs), str(rhs), verdict, elapsed, notes
    )


# -- spectral identities ------------------------------------------------------


def verify_thm2_1(n: int, tol: float = 1e-8) -> VerificationReport:
    """Embedded cotangent-matrix spectrum against the integers 2i - n - 1,
    and the closed-form eigenvectors against the matrix action."""
    if n < 2:
        raise ValueError("n must be >= 2")
    t0 = time.perf_counter()
    cp = embed_matrix(build_cp_matrix(cyc_context(n)))
    lam_closed, vecs = cp_spectrum_closed_form(n)
    computed = spectral.herm_eigen(cp).eigenvalues
    eig_dev = float(max(abs(computed[i] - lam_closed[i]) for i in range(n)))
    resid = float(np.max(np.abs(cp.entries @ vecs - vecs * lam_closed)))
    ok = eig_dev <= tol and resid <= tol
    return VerificationReport(
        "thm2_1",
        n,
        {"eigenvector_residual": resid, "tol": tol},
        eig_dev,
        0.0,
        "pass" if ok else "fail",
        (time.perf_counter() - t0) * 1e3,
        "lhs is the max eigenvalue deviation from 2i-n-1",
    )


def verify_eei(
    n: int,
    rng: Random | None = None,
    matrix: HermMatrix | None = None,
    tol: float = 1e-8,
    gap_threshold: float = 1e-8,
) -> VerificationReport:
    """Eigenvector-eigenvalue identity over every index pair (i, j) of one
    Hermitian matrix: random (seeded) when no matrix is supplied.  Pairs
    whose eigenvalue gap is below the threshold are inconclusive and do not
    count either way; a matrix with no conclusive pair is inconclusive."""
    if matrix is None:
        if rng is None:
            raise ValueError("need either a matrix or a seeded generator")
        matrix = random_hermitian(n, rng)
    if matrix.dim != n:
        raise ValueError(f"matrix dimension {matrix.dim} != n {n}")
    t0 = time.perf_counter()
    worst = 0.0
    inconclusive = 0
    # d + 1 eigensolves: the full matrix once, then each minor once for the
    # d pairs that share it.
    dec = spectral.herm_eigen(matrix)
    for j in range(1, n + 1):
        minor_lam = (
            spectral.herm_eigen(matrix.minor(j)).eigenvalues if n > 1 else np.empty(0)
        )
        for i in range(1, n + 1):
            r = _eei_pair(dec, minor_lam, i, j, gap_threshold)
            if not r.conclusive:
                inconclusive += 1
            else:
                worst = max(worst, r.residual)
    pairs = n * n
    params = {
        "pairs": pairs,
        "inconclusive_pairs": inconclusive,
        "source": "random" if rng is not None else "supplied",
        "tol": tol,
    }
    if inconclusive == pairs:
        verdict = "inconclusive"
    else:
        verdict = "pass" if worst <= tol else "fail"
    return VerificationReport(
        "eei",
        n,
        params,
        worst,
        0.0,
        verdict,
        (time.perf_counter() - t0) * 1e3,
        "lhs is the worst conclusive residual over all index pairs",
    )


def verify_eq2_3_liu(n: int, tol: float = 1e-7) -> VerificationReport:
    """Exact determinant of the column-scaled minor against
    (-1)^((n-1)/2) (((n-1)/2)!)^2, and its spectrum against the claimed
    integers, odd n.  The spectrum is judged exactly through the
    characteristic polynomial, so max_spectrum_deviation is 0.0 when it
    matches and None when it does not; tol is recorded but never needed."""
    if n % 2 == 0 or n < 3:
        raise ValueError("defined for odd n >= 3")
    t0 = time.perf_counter()
    res = liu_spectrum_check(n)
    ok = res.det_matches and res.charpoly_matches
    return VerificationReport(
        "eq2_3_liu",
        n,
        {
            "max_spectrum_deviation": 0.0 if res.charpoly_matches else None,
            "expected_spectrum": list(res.expected),
            "tol": tol,
        },
        str(res.det_value),
        str(res.det_expected),
        "pass" if ok else "fail",
        (time.perf_counter() - t0) * 1e3,
        "determinant and characteristic polynomial compared exactly"
        if ok
        else "determinant or spectrum check failed",
    )


def verify_eq2_4(n: int, tol: float = 1e-6) -> VerificationReport:
    """Lagrange interpolation through the closed-form node values against
    the exact characteristic polynomial of the cotangent minor.

    Both sides are compared exactly: the verdict is pass only when every
    exact coefficient is rational and equals its interpolated Fraction, and
    lhs is then 0.0.  Otherwise lhs is the float deviation (the largest
    coefficient difference or imaginary part under the embedding), kept as
    a diagnostic; tol is recorded but decides nothing.

    The printed source values carry a 1/(2n) factor where the derivation
    gives 2^(n-1)/n; the ratio 2^n is recorded so the discrepancy stays
    visible in every report.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    t0 = time.perf_counter()
    interp = _lagrange_coeffs(n)
    minor = delete_rows_cols(build_cp_matrix(cyc_context(n)), {n})
    exact = charpoly_exact(minor)
    ok = all(c.is_rational() and c.as_rational() == q for c, q in zip(exact, interp))
    dev = 0.0
    if not ok:
        coeffs = [c.to_complex() for c in exact]
        dev = max(
            max(abs(c.imag) for c in coeffs),
            max(abs(float(q) - c.real) for q, c in zip(interp, coeffs)),
        )
    return VerificationReport(
        "eq2_4",
        n,
        {
            "printed_node_factor": "1/(2n)",
            "derived_node_factor": "2^(n-1)/n",
            "factor_ratio": str(2**n),
            "tol": tol,
        },
        dev,
        0.0,
        "pass" if ok else "fail",
        (time.perf_counter() - t0) * 1e3,
        "lhs is the max coefficient deviation between interpolation and "
        "characteristic polynomial; node values use the derived factor, "
        "2^n times the printed one",
    )
