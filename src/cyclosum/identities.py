"""Verification operations: each one computes both sides of a single
identity and returns a VerificationReport.

Every identity passes only on exact equality of canonical representations
in Q(zeta_n), the spectral statements about fixed matrices included; only
eei, a statement about Hermitian matrices in floating point, is judged
against a tolerance.  A report never invents a verdict: anything the check
cannot decide (a degenerate eigenvalue, a parameter outside a statement's
range) comes back "inconclusive" or "fail" with an explanatory note, not
"pass".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from random import Random
from typing import Callable, Iterable, Sequence

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
    build_sun_and_cp_matrices,
    build_sun_matrix,
    delete_rows_cols,
    derangement_sums,
    det_exact,
    charpoly_exact,
    make_matrix,
    permanent_ryser,
)
# Eigensolves go through spectral.herm_eigen and spectral.minor_spectra,
# looked up at call time, so that a replacement on the spectral module (a
# tracer, a counting test) sees them.
from . import spectral
from .spectral import (
    HermMatrix,
    _eei_gap,
    _eei_pair,
    charpoly_lagrange,
    cp_eigenpair_failures,
    liu_spectrum_check,
    random_hermitian,
)


@dataclass(frozen=True)
class Statement:
    """One identity as a campaign runs it: the orders n >= least, of the
    given parity when parity is not None, and the note that says why an
    order outside is skipped.  check(n, trial, rng, cfg) draws the input
    from rng, a fresh one per trial when randomized, and calls the verify
    function by its module-global name when it runs, so that a replacement
    there (a tracer, a counting test) sees the call.

    The verify functions take no cap, so the campaign's caps bound what
    they run: a permanent of dimension n - drop, the subset DPs over n
    labels when enumerates, and for thm3_1 the deletion sizes k whose
    l = n - k is odd when odd_l, even when not."""

    least: int
    parity: int | None
    note: str
    check: Callable[..., VerificationReport]
    randomized: bool = False
    drop: int | None = None
    enumerates: bool = False
    odd_l: bool | None = None

    def covers(self, n: int) -> bool:
        return n >= self.least and (self.parity is None or n % 2 == self.parity)

    def run(self, n: int, trial: int, rng: Random, cfg) -> VerificationReport:
        """The campaign's report on trial `trial` at order n; a randomized
        statement's parameters lead with the trial."""
        report = self.check(n, trial, rng, cfg)
        if not self.randomized:
            return report
        return replace(report, parameters={"trial": trial, **report.parameters})

    def skip_reason(self, n: int, cfg) -> str | None:
        """Why a campaign with cfg's caps skips order n, None when it runs;
        past both caps the enumeration cap's note wins."""
        if not self.covers(n):
            return self.note
        if self.enumerates and n > cfg.enumeration_cap:
            return f"l={n} exceeds enumeration cap {cfg.enumeration_cap}"
        if self.drop is not None and n - self.drop > cfg.permanent_cap:
            return f"dimension {n - self.drop} exceeds permanent cap {cfg.permanent_cap}"
        if self.odd_l is not None and not _deletion_sizes(n, self.odd_l, cfg):
            parity = "odd" if self.odd_l else "even"
            return f"no deletion size gives {parity} l within the cap"
        return None


def _deletion_sizes(n: int, odd_l: bool, cfg) -> list[int]:
    """The sizes k in thm3_1's statement (k = 1 is not) whose l = n - k has
    the given parity and is at most cfg's permanent cap."""
    cap = cfg.permanent_cap
    return [k for k in [0, *range(2, n)] if (n - k) % 2 == odd_l and n - k <= cap]


def _thm3_1(odd_l: bool) -> Statement:
    def check(n: int, trial: int, rng: Random, cfg) -> VerificationReport:
        # Trial 0 keeps the whole matrix when its order has the right parity.
        ks = _deletion_sizes(n, odd_l, cfg)
        k = 0 if trial == 0 and 0 in ks else ks[rng.randrange(len(ks))]
        return verify_thm3_1(n, sorted(rng.sample(range(1, n + 1), k)))

    return Statement(2, None, "needs n >= 2", check, randomized=True, odd_l=odd_l)


STATEMENTS = {
    "eq1_1": Statement(2, 0, "needs even n >= 2", lambda n, *_: verify_eq1_1(n), drop=0),
    "eq1_2": Statement(3, 1, "needs odd n >= 3", lambda n, *_: verify_eq1_2(n), drop=1),
    "eq1_3": Statement(3, 1, "needs odd n >= 3", lambda n, *_: verify_eq1_3(n)),
    "lemma3_2": Statement(
        3, None, "statement needs l > 2",
        lambda l, _, rng, cfg: verify_lemma3_2(l, random_distinct_rationals(l, rng)),
        randomized=True, enumerates=True,
    ),
    "eq3_1": Statement(
        3, 1, "needs odd l >= 3",
        lambda l, _, rng, cfg: verify_eq3_1(l, random_distinct_rationals(l, rng)),
        randomized=True, drop=0, enumerates=True,
    ),
    "thm3_1_odd": _thm3_1(odd_l=True),
    "thm3_1_even": _thm3_1(odd_l=False),
    "eq2_3_liu": Statement(3, 1, "needs odd n >= 3", lambda n, *_: verify_eq2_3_liu(n)),
    "eq2_4": Statement(2, None, "needs n >= 2", lambda n, *_: verify_eq2_4(n)),
    "thm2_1": Statement(2, None, "needs n >= 2", lambda n, *_: verify_thm2_1(n)),
    "eei": Statement(
        1, None, "needs n >= 1",
        lambda n, _, rng, cfg: verify_eei(n, rng=rng, tol=cfg.tol), randomized=True,
    ),
}
IDENTITY_IDS = tuple(STATEMENTS)

EEI_TOL = 1e-8  # the EEI's default tolerance, verify_eei's and the campaign's


def _require(identity: str, n: int) -> None:
    if not STATEMENTS[identity].covers(n):
        raise ValueError(f"{identity} {STATEMENTS[identity].note}, got {n}")


@dataclass(frozen=True)
class VerificationReport:
    identity_id: str
    n: int
    parameters: dict
    lhs: str | float
    rhs: str | float
    verdict: str
    notes: str = ""

    def to_json_dict(self) -> dict:
        """The fields in declaration order, with a copy of parameters."""
        return {
            "identity_id": self.identity_id,
            "n": self.n,
            "parameters": dict(self.parameters),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "verdict": self.verdict,
            "notes": self.notes,
        }


def random_distinct_rationals(l: int, rng: Random) -> tuple[Fraction, ...]:
    """l pairwise-distinct rationals with numerators in [-99, 99] and
    denominators in [1, 20], rejection-sampled from the given generator."""
    xs: list[Fraction] = []
    while len(xs) < l:
        q = Fraction(rng.randint(-99, 99), rng.randint(1, 20))
        if q not in xs:
            xs.append(q)
    return tuple(xs)


def _check_distinct(xs: Sequence) -> None:
    if len(set(xs)) != len(xs):
        raise ValueError("scalars must be pairwise distinct")


# -- permanent / determinant identities --------------------------------------


def verify_eq1_1(n: int) -> VerificationReport:
    """Permanent of the n x n reciprocal matrix against ((n-1)!!)^2 / 2^n,
    even n; also cross-checks the sign-twisted determinant form
    per = (-1)^(n/2) det on the same matrix."""
    _require("eq1_1", n)
    m = build_sun_matrix(cyc_context(n))
    per = permanent_ryser(m, cap=m.dim)
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
        notes,
    )


def verify_eq1_2(n: int) -> VerificationReport:
    """Permanent of the (n-1)-minor against (1/n) (((n-1)/2)!)^2, odd n.

    The source statements delete index n in one place and index 1 in
    another; the two minors must agree entry for entry, which settles the
    ambiguity.  The matrix is circulant, so they do, and the permanent is
    computed once.
    """
    _require("eq1_2", n)
    m = build_sun_matrix(cyc_context(n))
    last = delete_rows_cols(m, {n})
    agree = delete_rows_cols(m, {1}).entries == last.entries
    per = permanent_ryser(last, cap=last.dim)
    rhs = minor_permanent(n)
    ok = per == rhs and agree
    return VerificationReport(
        "eq1_2",
        n,
        {"deletions_agree": agree},
        str(per),
        str(rhs),
        "pass" if ok else "fail",
        "minors from deleting index n and index 1 agree"
        if agree
        else "deleting index n and index 1 gave different minors",
    )


def verify_eq1_3(n: int) -> VerificationReport:
    """Determinant of the (n-1)-minor against
    (-1)^((n-1)/2) (1/n) (((n-1)/2)!)^2, odd n, plus the two steps the
    derivation leans on: det(minor) = 2^(1-n) times the cotangent-minor
    determinant, which is computed and must equal its own closed form, and
    (n-1)!! = 2^((n-1)/2) ((n-1)/2)!.  The minors deleting index n and
    index 1 are compared entry for entry as in verify_eq1_2.  The sun and
    cotangent matrices are built from one set of inverses."""
    _require("eq1_3", n)
    m, cp = build_sun_and_cp_matrices(cyc_context(n))
    last = delete_rows_cols(m, {n})
    agree = delete_rows_cols(m, {1}).entries == last.entries
    det = det_exact(last)
    rhs = minor_determinant(n)
    half = (n - 1) // 2
    cp_det = det_exact(delete_rows_cols(cp, {n}))
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
    )


# -- cycle-sum and partition identities ---------------------------------------


def _block_cycle_sums(xs: Sequence, roots: Iterable[int]) -> dict[int, object]:
    """f(Y) for every subset Y of the labels with |Y| >= 2 and min(Y) in
    roots (all of them for roots range(len(xs))), keyed by bitmask (bit i
    stands for xs[i]): the sum over the full cycles tau of Y of
    prod_{j in Y} 1/(x_{tau(j)} - x_j).

    One Held-Karp pass (Held and Karp, 1962): each full cycle of Y is read
    once, as a path from r = min(Y) through Y closed by the edge back to r.
    For each root r, dp[m][last] sums the path products from r through the
    labels of m, all above r, ending at last.  That is O(2^l l^2) work for
    all subsets together, where the cycles themselves number (|Y|-1)!."""
    l = len(xs)
    w = [[Fraction(1) / (xb - xa) if a != b else None for b, xb in enumerate(xs)]
         for a, xa in enumerate(xs)]
    f: dict[int, object] = {}
    for r in roots:
        step = 1 << (r + 1)
        dp: dict[int, dict[int, object]] = {}
        for m in range(step, 1 << l, step):
            ends = {}
            for last in range(r + 1, l):
                if m >> last & 1:
                    rest = m ^ (1 << last)
                    ends[last] = (
                        sum((p * w[prev][last] for prev, p in dp[rest].items()), Fraction(0))
                        if rest
                        else w[r][last]
                    )
            dp[m] = ends
            f[m | 1 << r] = sum((p * w[last][r] for last, p in ends.items()), Fraction(0))
    return f


def _insertion_table(xs: Sequence) -> dict[tuple[int, int], object]:
    """G[a][b] = (x_b - x_a) / ((x_1 - x_a)(x_b - x_1)) for labels a != b in
    {2..l}: the factor by which inserting label 1 between consecutive a -> b
    of a cyclic order on {2..l} scales that order's cycle product."""
    x1 = xs[0]
    return {
        (a, b): (xs[b - 1] - xs[a - 1]) / ((x1 - xs[a - 1]) * (xs[b - 1] - x1))
        for a in range(2, len(xs) + 1)
        for b in range(2, len(xs) + 1)
        if a != b
    }


def _insertion_classes_vanish(xs: Sequence) -> bool:
    """Whether every insertion class of full cycles on l >= 3 labels sums to
    zero, from one O(l^2) certificate instead of (l-2)! class sums.

    A class collects the l-1 cycles that insert label 1 into one cyclic
    order c on {2..l}, so it sums to W(c) * sum_{(a,b) in c} G[a][b], with
    W(c) = prod_{(a,b) in c} 1/(x_b - x_a) nonzero.  If G[a][b] = u(a) + v(b)
    with u(a) = 1/(x_1 - x_a) and v(b) = 1/(x_b - x_1), each label of c
    leaves once and enters once, so every such sum is sum_a (u(a) + v(a)),
    which must then be zero."""
    x1 = xs[0]
    u = {a: Fraction(1) / (x1 - xs[a - 1]) for a in range(2, len(xs) + 1)}
    v = {b: Fraction(1) / (xs[b - 1] - x1) for b in range(2, len(xs) + 1)}
    table = _insertion_table(xs)
    splits = all(g == u[a] + v[b] for (a, b), g in table.items())
    return splits and not sum((u[a] + v[a] for a in u), Fraction(0))


def verify_lemma3_2(l: int, xs: Sequence) -> VerificationReport:
    """Sum of prod 1/(x_{tau(j)} - x_j) over all full cycles is exactly zero
    for l > 2, and already vanishes inside each insertion class.

    The sum is the full set's entry of _block_cycle_sums from root 0 alone;
    the (l-2)! classes are covered at once by _insertion_classes_vanish.
    l = 2 is accepted but reported as the counterexample it is: the sum is
    -1/(x_1-x_2)^2 != 0, so the verdict says fail with a note, showing why
    the statement needs l > 2.
    """
    if l < 2:
        raise ValueError("need l >= 2")
    _check_distinct(xs)
    if len(xs) != l:
        raise ValueError(f"expected {l} scalars, got {len(xs)}")
    total = _block_cycle_sums(xs, (0,))[(1 << l) - 1]
    classes = math.factorial(l - 2)
    params = {"xs": [str(x) for x in xs], "classes": classes}
    if l == 2:
        verdict = "fail"
        notes = "l=2 lies outside the statement (it needs l > 2); sum is nonzero"
    else:
        classes_zero = _insertion_classes_vanish(xs)
        params["class_sums_vanish"] = classes_zero
        verdict = "pass" if not total and classes_zero else "fail"
        notes = (
            f"all {classes} insertion-class partial sums vanish"
            if classes_zero
            else "some insertion-class partial sum is nonzero"
        )
    return VerificationReport(
        "lemma3_2", l, params, str(total), "0", verdict, notes,
    )


def _odd_partition_sum(f: dict[int, object], l: int) -> tuple[object, int]:
    """Sum over the partitions of {1..l} into an odd number of blocks, each
    of size >= 2, of prod_B f(B) (f keyed by bitmask as _block_cycle_sums
    returns it), with the number of those partitions.

    g[p][S] sums over the partitions of S with block-count parity p; the
    block B holding min(S) is chosen first, so each partition is built once
    and g[p][S] = sum_B f(B) g[1-p][S - B].  That is O(3^l) steps."""
    size = 1 << l
    g = ([Fraction(0)] * size, [Fraction(0)] * size)
    count = ([0] * size, [0] * size)
    g[0][0] = Fraction(1)
    count[0][0] = 1
    for s in range(1, size):
        low = s & -s
        rest = s ^ low
        sub = rest
        while sub:
            left = rest ^ sub
            fb = f[sub | low]
            for p in (0, 1):
                if count[1 - p][left]:
                    count[p][s] += count[1 - p][left]
                    if fb and g[1 - p][left]:
                        g[p][s] = g[p][s] + fb * g[1 - p][left]
            sub = (sub - 1) & rest
    return g[1][size - 1], count[1][size - 1]


def verify_eq3_1(l: int, xs: Sequence) -> VerificationReport:
    """Even-sign derangement sum against its decomposition over partitions
    into blocks of size >= 2 with an odd number of blocks, odd l; both sides
    must agree exactly and (for odd l >= 3) both are zero, since every such
    partition owns a block of size >= 3 whose full-cycle sum vanishes.

    The lhs is the even class of derangement_sums on W_jk = 1/(x_k - x_j),
    a rational matrix (Q(zeta_2) = Q), so it comes from the
    permanent/determinant route; the rhs is a subset DP over the block cycle
    sums."""
    _require("eq3_1", l)
    _check_distinct(xs)
    if len(xs) != l:
        raise ValueError(f"expected {l} scalars, got {len(xs)}")
    w = make_matrix(
        cyc_context(2),
        [[Fraction(1) / (xk - xj) if xk != xj else 0 for xk in xs] for xj in xs],
    )
    lhs = derangement_sums(w, permanent_cap=w.dim).even_class
    rhs, count = _odd_partition_sum(_block_cycle_sums(xs, range(l)), l)
    ok = lhs == rhs and not lhs
    return VerificationReport(
        "eq3_1",
        l,
        {"xs": [str(x) for x in xs], "partitions": count},
        str(lhs),
        str(rhs),
        "pass" if ok else "fail",
        "both sides vanish" if ok else "sides differ or are nonzero",
    )


def verify_thm3_1(n: int, deleted: Sequence[int]) -> VerificationReport:
    """Sign-class derangement sums of the sub-matrix after deleting the
    index set: for l = n - k odd both classes vanish; for l even the class
    with sign (-1)^(l/2 + 1) vanishes.  k = 1 sits outside the statement
    and is reported inconclusive with the observed sums."""
    s = sorted(set(deleted))
    k = len(s)
    l = n - k
    identity = "thm3_1_odd" if l % 2 else "thm3_1_even"
    _require(identity, n)
    if k >= n:
        raise ValueError("cannot delete every index")
    m = build_sun_matrix(cyc_context(n))
    sub = delete_rows_cols(m, s) if s else m
    sums = derangement_sums(sub, permanent_cap=sub.dim)
    params = {
        "deleted": s,
        "k": k,
        "l": l,
        "even_class": str(sums.even_class),
        "odd_class": str(sums.odd_class),
    }
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
        identity, n, params, str(lhs), str(rhs), verdict, notes
    )


# -- spectral identities ------------------------------------------------------


def verify_thm2_1(n: int) -> VerificationReport:
    """The cotangent matrix's eigenpairs (2i - n - 1, zeta^(-ij)), checked
    exactly in Q(zeta_n) by cp_eigenpair_failures, which settles the whole
    integer spectrum and every eigenvector.

    lhs counts the failing eigenpairs, so it is 0.0 on a pass;
    eigenvector_residual is 0.0 on a pass and None on a fail.  The check
    is exact, so the recorded tol is 0.0."""
    _require("thm2_1", n)
    failing = cp_eigenpair_failures(n)
    notes = "lhs counts the eigenpairs (2i-n-1, zeta^(-ij)) that fail exactly"
    if failing:
        notes += f"; failing columns {failing}"
    return VerificationReport(
        "thm2_1",
        n,
        {"eigenvector_residual": None if failing else 0.0, "tol": 0.0},
        float(len(failing)),
        0.0,
        "fail" if failing else "pass",
        notes,
    )


def verify_eei(
    n: int,
    rng: Random | None = None,
    matrix: HermMatrix | None = None,
    tol: float = EEI_TOL,
) -> VerificationReport:
    """Eigenvector-eigenvalue identity over every index pair (i, j) of one
    Hermitian matrix: random (seeded) when no matrix is supplied.  Pairs
    whose eigenvalue gap is below spectral.GAP_THRESHOLD, or whose residual
    is not finite, are inconclusive and do not count either way; a matrix
    with no conclusive pair is inconclusive."""
    _require("eei", n)
    source = "random" if matrix is None else "supplied"
    if matrix is None:
        if rng is None:
            raise ValueError("need either a matrix or a seeded generator")
        matrix = random_hermitian(n, rng)
    if matrix.dim != n:
        raise ValueError(f"matrix dimension {matrix.dim} != n {n}")
    worst = 0.0
    inconclusive = 0
    # The full matrix once with eigenvectors, then the spectra of all d
    # minors from one stacked solve without them; each minor's spectrum
    # serves the d pairs that share it.
    dec = spectral.herm_eigen(matrix)
    lam = dec.eigenvalues.tolist()
    gaps = [_eei_gap(lam, i) for i in range(n)]
    # weights[j][i] = |v_i(j)|^2.  Python's complex abs gives the bits of
    # numpy's scalar abs; numpy's abs of a whole array does not always.
    weights = [[abs(v) ** 2 for v in row] for row in dec.eigenvectors.tolist()]
    for minor_lam, weight in zip(spectral.minor_spectra(matrix), weights):
        minor_lam = minor_lam.tolist()
        for i in range(n):
            r = _eei_pair(lam, i, gaps[i], weight[i], minor_lam)
            if not r.conclusive:
                inconclusive += 1
            else:
                worst = max(worst, r.residual)
    pairs = n * n
    params = {
        "pairs": pairs,
        "inconclusive_pairs": inconclusive,
        "source": source,
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
        "lhs is the worst conclusive residual over all index pairs",
    )


def verify_eq2_3_liu(n: int) -> VerificationReport:
    """Exact determinant of the column-scaled minor against
    (-1)^((n-1)/2) (((n-1)/2)!)^2, and its spectrum against the claimed
    integers, odd n.  The spectrum is judged exactly through the
    characteristic polynomial, so max_spectrum_deviation is 0.0 when it
    matches and None when it does not; the recorded tol is 0.0."""
    _require("eq2_3_liu", n)
    res = liu_spectrum_check(n)
    ok = res.det_matches and res.charpoly_matches
    return VerificationReport(
        "eq2_3_liu",
        n,
        {
            "max_spectrum_deviation": 0.0 if res.charpoly_matches else None,
            "expected_spectrum": list(res.expected),
            "tol": 0.0,
        },
        str(res.det_value),
        str(res.det_expected),
        "pass" if ok else "fail",
        "determinant and characteristic polynomial compared exactly"
        if ok
        else "determinant or spectrum check failed",
    )


def verify_eq2_4(n: int) -> VerificationReport:
    """Lagrange interpolation through the closed-form node values against
    the exact characteristic polynomial of the cotangent minor, which
    charpoly_exact reads off the cotangent matrix's exact eigenvalues.

    Both sides are compared exactly: the verdict is pass only when every
    exact coefficient is rational and equals its interpolated Fraction.
    lhs counts the coefficients that differ, so it is 0.0 on a pass, and
    the recorded tol is 0.0.

    The printed source values carry a 1/(2n) factor where the derivation
    gives 2^(n-1)/n; the ratio 2^n is recorded so the discrepancy stays
    visible in every report.
    """
    _require("eq2_4", n)
    interp = charpoly_lagrange(n)
    minor = delete_rows_cols(build_cp_matrix(cyc_context(n)), {n})
    exact = charpoly_exact(minor)
    mismatches = sum(
        not (c.is_rational() and c.as_rational() == q) for c, q in zip(exact, interp)
    )
    return VerificationReport(
        "eq2_4",
        n,
        {
            "printed_node_factor": "1/(2n)",
            "derived_node_factor": "2^(n-1)/n",
            "factor_ratio": str(2**n),
            "tol": 0.0,
        },
        float(mismatches),
        0.0,
        "fail" if mismatches else "pass",
        ("lhs counts the coefficients where interpolation and characteristic "
         "polynomial differ" if mismatches else "lhs is the max coefficient "
         "deviation between interpolation and characteristic polynomial")
        + "; node values use the derived factor, 2^n times the printed one",
    )
