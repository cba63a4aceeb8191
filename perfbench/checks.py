"""Correctness checks computed apart from cyclosum.

Nothing here imports the program.  The closed forms are recomputed in
integer and ``fractions`` arithmetic, and the float cross-checks use the
benchmark's own numpy embedding of 1/(1 - exp(2*pi*i*(j-k)/n)).  Every check
returns a list of problems; an empty list means the record is accepted.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from fractions import Fraction

import numpy as np

# Relative tolerance of the float cross-checks.  The numpy routes below are
# accurate to about 1e-10 at every size the workloads use.
FLOAT_RTOL = 1e-6
# Absolute gap below which the program calls an EEI pair inconclusive.
EEI_GAP = 1e-8

RANDOMIZED = ("lemma3_2", "eq3_1", "thm3_1_odd", "thm3_1_even", "eei")
# Identities about fixed matrices, which statement_holds can confirm.
DETERMINISTIC = ("eq1_1", "eq1_2", "eq1_3", "eq2_3_liu", "eq2_4", "thm2_1")


# -- closed forms ------------------------------------------------------------


def full_permanent(n: int) -> Fraction:
    """eq1_1: ((n-1)!!)^2 / 2^n for even n."""
    return Fraction(math.prod(range(n - 1, 0, -2)) ** 2, 2**n)


def minor_permanent(n: int) -> Fraction:
    """eq1_2: ((n-1)/2)!^2 / n for odd n."""
    return Fraction(math.factorial((n - 1) // 2) ** 2, n)


def minor_determinant(n: int) -> Fraction:
    """eq1_3: (-1)^((n-1)/2) ((n-1)/2)!^2 / n for odd n."""
    half = (n - 1) // 2
    return (-1) ** half * minor_permanent(n)


def liu_determinant(n: int) -> Fraction:
    """eq2_3_liu: (-1)^((n-1)/2) ((n-1)/2)!^2 for odd n."""
    half = (n - 1) // 2
    return Fraction((-1) ** half * math.factorial(half) ** 2)


def liu_spectrum(n: int) -> list[int]:
    half = (n - 1) // 2
    return list(range(-half, 0)) + list(range(1, half + 1))


def cotangent_spectrum(n: int) -> list[int]:
    """thm2_1: the integers 2i - n - 1, i = 1..n."""
    return [2 * i - n - 1 for i in range(1, n + 1)]


def cotangent_minor_charpoly_at(n: int, i: int) -> Fraction:
    """det(lam_i I - A) for the cotangent minor A, lam_i = 2i - n - 1, from
    the EEI with |v_in|^2 = 1/n: (1/n) prod_{k != i} 2(i - k)."""
    return Fraction(math.prod(2 * (i - k) for k in range(1, n + 1) if k != i), n)


# -- the benchmark's own embedding --------------------------------------------


@functools.lru_cache(maxsize=None)
def sun_matrix(n: int) -> np.ndarray:
    """n x n matrix with zero diagonal and entries 1/(1 - exp(2 pi i (j-k)/n))."""
    j = np.arange(n)
    z = np.exp(2j * np.pi * (j[:, None] - j[None, :]) / n)
    off = ~np.eye(n, dtype=bool)
    m = np.zeros((n, n), dtype=np.complex128)
    m[off] = 1.0 / (1.0 - z[off])
    m.setflags(write=False)
    return m


def cotangent_matrix(n: int) -> np.ndarray:
    """Entries (1 - delta_jk)(1 + i cot(pi (j-k)/n)) = 2 sun_matrix(n)."""
    return 2.0 * sun_matrix(n)


def campaign_eei_matrix(seed: int, n: int, trial: int) -> np.ndarray:
    """The random Hermitian matrix of a campaign's eei record at (n, trial),
    drawn as the campaign documents it: random.Random seeded with the
    sha256 of "seed|eei|n|trial", then row by row a real diagonal entry from
    U(-2, 2) and complex entries U(-1, 1) + i U(-1, 1) above it."""
    digest = hashlib.sha256(f"{seed}|eei|{n}|{trial}".encode()).hexdigest()
    rng = random.Random(int(digest, 16))
    a = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        a[j, j] = rng.uniform(-2.0, 2.0)
        for k in range(j + 1, n):
            a[j, k] = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            a[k, j] = a[j, k].conjugate()
    return a


def ryser_permanent(a: np.ndarray) -> complex:
    """Ryser's formula over all column subsets, vectorised."""
    d = a.shape[0]
    subsets = np.arange(1, 1 << d)
    bits = ((subsets[:, None] >> np.arange(d)) & 1).astype(np.float64)
    signs = np.where(bits.sum(axis=1) % 2, -1.0, 1.0)
    return complex((-1) ** d * np.sum(signs * np.prod(bits @ a.T, axis=1)))


def eei_worst_residual(a: np.ndarray) -> tuple[float, int]:
    """Worst EEI residual |lhs - rhs| / (1 + |lhs|) over all (i, j) with
    numpy.linalg.eigh and eigvalsh, and the number of pairs whose gap is at
    most EEI_GAP."""
    d = a.shape[0]
    lam, vecs = np.linalg.eigh(a)
    minors = [
        np.linalg.eigvalsh(np.delete(np.delete(a, j, axis=0), j, axis=1))
        for j in range(d)
    ]
    worst, degenerate = 0.0, 0
    for i in range(d):
        others = np.delete(lam, i)
        if d > 1 and np.min(np.abs(lam[i] - others)) <= EEI_GAP:
            degenerate += d
            continue
        gaps = np.prod(lam[i] - others)
        for j in range(d):
            lhs = abs(vecs[j, i]) ** 2 * gaps
            rhs = np.prod(lam[i] - minors[j]) if d > 1 else 1.0
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return float(worst), degenerate


def _close(x: complex, want: Fraction | float) -> bool:
    return abs(x - float(want)) <= FLOAT_RTOL * max(1.0, abs(float(want)))


# -- independent confirmation that a statement holds at n ---------------------


def statement_holds(identity: str, n: int) -> list[str]:
    """Float confirmation, from the benchmark's own embedding, of the
    statement behind a deterministic identity at order n: the problems
    found, none when it holds."""
    if identity == "eq1_1":
        per = ryser_permanent(sun_matrix(n))
        return [] if _close(per, full_permanent(n)) else [f"numpy permanent {per}"]
    if identity == "eq1_2":
        per = ryser_permanent(sun_matrix(n)[:-1, :-1])
        return [] if _close(per, minor_permanent(n)) else [f"numpy permanent {per}"]
    if identity == "eq1_3":
        det = np.linalg.det(sun_matrix(n)[:-1, :-1])
        return [] if _close(det, minor_determinant(n)) else [f"numpy det {det}"]
    if identity == "eq2_3_liu":
        scale = 1.0 - np.exp(2j * np.pi * np.arange(1, n) / n)
        prod = sun_matrix(n)[:-1, :-1] * scale[None, :]
        ev = np.linalg.eigvals(prod)
        ev = ev[np.argsort(ev.real)]
        out = []
        if not all(_close(z, e) for z, e in zip(ev, liu_spectrum(n))):
            out.append(f"numpy spectrum {ev}")
        if not _close(np.linalg.det(prod), liu_determinant(n)):
            out.append("numpy det differs from the closed form")
        return out
    if identity == "eq2_4":
        a = cotangent_matrix(n)[:-1, :-1]
        out = []
        for i in range(1, n + 1):
            lam = 2 * i - n - 1
            got = np.linalg.det(lam * np.eye(n - 1) - a)
            if not _close(got, cotangent_minor_charpoly_at(n, i)):
                out.append(f"numpy charpoly at {lam} is {got}")
        return out
    if identity == "thm2_1":
        lam = np.linalg.eigvalsh(cotangent_matrix(n))
        want = cotangent_spectrum(n)
        return [] if np.allclose(lam, want, rtol=0, atol=1e-9 * n) else [
            f"numpy spectrum {lam}"
        ]
    raise ValueError(f"no float confirmation for {identity}")


# -- checks on the program's records -----------------------------------------


def _fraction(text) -> Fraction | None:
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        return None


def _equals(label: str, text, want: Fraction) -> list[str]:
    got = _fraction(text)
    return [] if got == want else [f"{label} {text!r} != {want}"]


def _within(label: str, value, tol: float) -> list[str]:
    if isinstance(value, (int, float)) and 0.0 <= value <= tol:
        return []
    return [f"{label} {value!r} is not within {tol}"]


def check_record(record: dict, matrix: np.ndarray | None = None) -> list[str]:
    """Check one verification record (the jsonl form, identity_id, n,
    parameters, lhs, rhs, verdict) against the independent computations.

    ``matrix`` is the Hermitian input of an eei record, when the benchmark
    built it; its residuals are then recomputed with numpy.
    """
    ident, n = record["identity_id"], record["n"]
    lhs, rhs, params = record["lhs"], record["rhs"], record["parameters"]
    out: list[str] = []
    if record["verdict"] != "pass":
        out.append(f"verdict is {record['verdict']!r}")
    if ident == "eq1_1":
        out += _equals("lhs", lhs, full_permanent(n)) + _equals("rhs", rhs, full_permanent(n))
        out += statement_holds(ident, n)
    elif ident == "eq1_2":
        out += _equals("lhs", lhs, minor_permanent(n)) + _equals("rhs", rhs, minor_permanent(n))
        out += statement_holds(ident, n)
    elif ident == "eq1_3":
        want = minor_determinant(n)
        out += _equals("lhs", lhs, want) + _equals("rhs", rhs, want)
        out += statement_holds(ident, n)
    elif ident == "eq2_3_liu":
        want = liu_determinant(n)
        out += _equals("lhs", lhs, want) + _equals("rhs", rhs, want)
        if params.get("expected_spectrum") != liu_spectrum(n):
            out.append("expected spectrum is not {+-1..+-(n-1)/2}")
        out += _within("spectrum deviation", params.get("max_spectrum_deviation"), params["tol"])
        out += statement_holds(ident, n)
    elif ident == "eq2_4":
        out += _within("coefficient deviation", lhs, params["tol"])
        out += statement_holds(ident, n)
    elif ident == "thm2_1":
        out += _within("eigenvalue deviation", lhs, params["tol"])
        out += _within("eigenvector residual", params.get("eigenvector_residual"), params["tol"])
        out += statement_holds(ident, n)
    elif ident == "eei":
        out += _within("worst residual", lhs, params["tol"])
        if params.get("pairs") != n * n:
            out.append(f"pairs {params.get('pairs')} != {n * n}")
        if matrix is not None:
            worst, degenerate = eei_worst_residual(matrix)
            out += _within("numpy residual", worst, params["tol"])
            if params.get("inconclusive_pairs") != degenerate:
                out.append(
                    f"inconclusive pairs {params.get('inconclusive_pairs')} != {degenerate}"
                )
    elif ident in ("lemma3_2", "eq3_1"):
        # Both sums vanish for every choice of distinct scalars: the
        # statements are identities, so zero is a property, not a sample.
        out += _equals("lhs", lhs, Fraction(0)) + _equals("rhs", rhs, Fraction(0))
    elif ident == "thm3_1_odd":
        out += _equals("even class", lhs, Fraction(0)) + _equals("odd class", rhs, Fraction(0))
        if params.get("l", 0) % 2 != 1 or params.get("k") == 1:
            out.append(f"odd-l record with l={params.get('l')} k={params.get('k')}")
    elif ident == "thm3_1_even":
        out += _equals("vanishing class", lhs, Fraction(0))
        if params.get("l", 1) % 2 != 0 or params.get("k") == 1:
            out.append(f"even-l record with l={params.get('l')} k={params.get('k')}")
    else:
        out.append(f"unknown identity {ident!r}")
    return [f"{ident} n={n}: {p}" for p in out]


# -- campaign plan ------------------------------------------------------------


def campaign_applies(identity: str, n: int, permanent_cap: int = 16) -> bool:
    """Whether a statement covers order n, from the statements themselves:
    parities, the l > 2 and k != 1 ranges and the permanent's dimension cap."""
    if identity == "eq1_1":
        return n >= 2 and n % 2 == 0 and n <= permanent_cap
    if identity == "eq1_2":
        return n >= 3 and n % 2 == 1 and n - 1 <= permanent_cap
    if identity in ("eq1_3", "eq2_3_liu", "eq3_1"):
        return n >= 3 and n % 2 == 1
    if identity == "lemma3_2":
        return n >= 3
    if identity in ("eq2_4", "thm2_1", "eei"):
        return n >= 2
    if identity in ("thm3_1_odd", "thm3_1_even"):
        want = 1 if identity == "thm3_1_odd" else 0
        sizes = [0] + list(range(2, n))
        return any((n - k) % 2 == want and n - k <= permanent_cap for k in sizes)
    raise ValueError(f"unknown identity {identity!r}")


def check_campaign(
    records: list[dict], identities: list[str], lo: int, hi: int, trials: int
) -> list[str]:
    """Check the plan of a campaign: one record per (identity, n) and trial,
    skipped exactly where a statement does not apply, sorted as documented."""
    out: list[str] = []
    keys = [(r["identity_id"], r["n"], r["parameters"].get("trial", 0)) for r in records]
    if keys != sorted(keys):
        out.append("records are not sorted by (identity, n, trial)")
    want = set()
    for ident in identities:
        for n in range(lo, hi + 1):
            if campaign_applies(ident, n):
                want.update((ident, n, t) for t in range(trials if ident in RANDOMIZED else 1))
            else:
                want.add((ident, n, 0))
    if set(keys) != want or len(keys) != len(want):
        out.append(f"campaign has {len(keys)} records, the plan has {len(want)}")
    for r, (ident, n, _) in zip(records, keys):
        skipped = r["verdict"] == "skipped"
        if skipped == campaign_applies(ident, n):
            out.append(f"{ident} n={n}: verdict {r['verdict']!r} where the statement "
                       f"{'applies' if skipped else 'does not apply'}")
    return out
