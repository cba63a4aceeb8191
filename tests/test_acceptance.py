"""Acceptance suite: every criterion the package must meet, one test per
criterion, each printing a single pass/fail line with its elapsed time.

Exact criteria compare canonical representations with no tolerance; the
floating-point criteria state their tolerance explicitly. Each criterion
carries the runtime budget it must fit inside.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from random import Random

import numpy as np

from cyclosum.cli import CampaignConfig, cmd_verify
from cyclosum.exact import cyc_context
from cyclosum.identities import (
    random_distinct_rationals,
    verify_eei,
    verify_eq1_1,
    verify_eq1_2,
    verify_eq1_3,
    verify_eq2_3_liu,
    verify_eq2_4,
    verify_eq3_1,
    verify_lemma3_2,
    verify_thm2_1,
    verify_thm3_1,
)
from cyclosum.matrices import (
    build_cp_matrix,
    derangement_sums,
    make_matrix,
    permanent_ryser,
)
from cyclosum.spectral import HermMatrix, embed_matrix
from oracles import derangement_sums_enumerated, permanent_naive, random_element


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed > budget:
            raise AssertionError(
                f"criterion {number:02d} took {elapsed:.1f}s, budget {budget:.0f}s"
            )
    except BaseException:
        print(f"criterion {number:02d} {label}: FAIL")
        raise
    suffix = f" of {budget:.0f}s budget" if budget is not None else ""
    print(f"criterion {number:02d} {label}: PASS ({elapsed:.1f}s{suffix})")


def test_c01_full_permanent_closed_form_even_orders():
    with criterion(1, "permanent of full matrix, even n 2..22, exact", 600):
        for n in range(2, 23, 2):
            report = verify_eq1_1(n)
            assert report.verdict == "pass", f"n={n}: {report.notes}"
            assert report.lhs == report.rhs


def test_c02_minor_permanent_closed_form_odd_orders():
    with criterion(2, "permanent of minor, odd n 3..21, exact", 600):
        for n in range(3, 22, 2):
            report = verify_eq1_2(n)
            assert report.verdict == "pass", f"n={n}: {report.notes}"
            assert report.parameters["deletions_agree"] is True


def test_c03_minor_determinant_closed_form_odd_orders():
    with criterion(3, "determinant of minor, odd n 3..61, exact", 60):
        for n in range(3, 62, 2):
            report = verify_eq1_3(n)
            assert report.verdict == "pass", f"n={n}: {report.notes}"
            assert report.lhs == report.rhs


def test_c04_integer_spectrum_and_eigenvectors():
    with criterion(4, "integer spectrum and eigenvectors, n 2..64, exact", 60):
        for n in range(2, 65):
            report = verify_thm2_1(n)
            assert report.verdict == "pass", f"n={n}: {report.notes}"
            assert report.lhs == 0.0
            assert report.parameters["eigenvector_residual"] == 0.0


def test_c05_minor_spectra_identity():
    label = "eigenvector-eigenvalue identity, 50 matrices per dim 2..12 plus structured n 2..24, tol 1e-8"
    with criterion(5, label, 300):
        for dim in range(2, 13):
            for trial in range(50):
                rng = Random(1_000_000 + dim * 1_000 + trial)
                report = verify_eei(dim, rng=rng, tol=1e-8)
                assert report.verdict == "pass", (
                    f"dim={dim} trial={trial}: {report.verdict} {report.notes}"
                )
        for n in range(2, 25):
            matrix = embed_matrix(build_cp_matrix(cyc_context(n)))
            report = verify_eei(n, matrix=matrix, tol=1e-8)
            assert report.verdict == "pass", f"structured n={n}: {report.notes}"
        degenerate = verify_eei(3, matrix=HermMatrix.from_rows(np.eye(3)))
        assert degenerate.verdict == "inconclusive"


def test_c06_product_matrix_spectrum_and_determinant():
    label = "product-matrix determinant and characteristic polynomial exact, odd n 3..61"
    with criterion(6, label, 120):
        for n in range(3, 62, 2):
            report = verify_eq2_3_liu(n)
            assert report.verdict == "pass", f"n={n}: {report.notes}"
            assert report.lhs == report.rhs


def test_c07_interpolated_polynomial_resolution():
    label = "interpolated vs exact characteristic polynomial, odd n 3..61, exact"
    with criterion(7, label, 60):
        for n in range(3, 62, 2):
            report = verify_eq2_4(n)
            assert report.verdict == "pass", f"n={n}: {report.notes}"
            assert report.lhs == 0.0
            assert report.parameters["factor_ratio"] == str(2**n)
            assert report.parameters["printed_node_factor"] == "1/(2n)"


def test_c08_full_cycle_sums_vanish():
    label = "full-cycle sums, 20 tuples per l 3..11 and one at l=13, exact zero"
    with criterion(8, label, 120):
        for l, trials in [(l, 20) for l in range(3, 12)] + [(13, 1)]:
            for trial in range(trials):
                xs = random_distinct_rationals(l, Random(2_000_000 + l * 100 + trial))
                report = verify_lemma3_2(l, xs)
                assert report.verdict == "pass", f"l={l} trial={trial}"
                assert report.lhs == "0"
                assert report.parameters["class_sums_vanish"] is True


def test_c09_partition_decomposition():
    label = "even-sign sum equals partition sum, l in {3,5,7,9,11}, 10 trials, and l=13, exact"
    with criterion(9, label, 180):
        for l, trials in [(3, 10), (5, 10), (7, 10), (9, 10), (11, 10), (13, 1)]:
            for trial in range(trials):
                xs = random_distinct_rationals(l, Random(3_000_000 + l * 100 + trial))
                report = verify_eq3_1(l, xs)
                assert report.verdict == "pass", f"l={l} trial={trial}"
                assert report.lhs == "0" == report.rhs


def test_c10_sign_class_vanishing_under_deletion():
    with criterion(10, "sign-class sums vanish under deletion, n 5..11, 10 sets per n, exact", 300):
        for n in range(5, 12):
            for trial in range(10):
                rng = Random(4_000_000 + n * 100 + trial)
                if trial == 0:
                    k = 0
                else:
                    k = rng.choice([0] + list(range(2, n)))
                deleted = sorted(rng.sample(range(1, n + 1), k))
                report = verify_thm3_1(n, deleted)
                assert report.verdict == "pass", (
                    f"n={n} deleted={deleted}: {report.verdict} {report.notes}"
                )


def test_c11_oracle_suites():
    with criterion(11, "permanent and derangement-sum oracles plus field axioms", 180):
        rng = Random(5_000_000)
        for _ in range(100):
            order = rng.choice([2, 3, 4, 5])
            dim = rng.randrange(1, 8)
            ctx = cyc_context(order)
            m = make_matrix(
                ctx,
                [
                    [
                        random_element(ctx, rng, max_numerator=2, max_denominator=2)
                        for _ in range(dim)
                    ]
                    for _ in range(dim)
                ],
            )
            assert permanent_ryser(m) == permanent_naive(m)
            if dim >= 2:
                assert derangement_sums_enumerated(m) == derangement_sums(m)
        for n in range(2, 13):
            ctx = cyc_context(n)
            axiom_rng = Random(6_000_000 + n)
            for _ in range(1000):
                a = random_element(ctx, axiom_rng)
                b = random_element(ctx, axiom_rng)
                c = random_element(ctx, axiom_rng)
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c
                assert (a * b) * c == a * (b * c)
                assert a + b == b + a
                assert a * b == b * a
                if a:
                    assert a * a.inverse() == ctx.one


def test_c12_campaign_byte_determinism(tmp_path):
    with criterion(12, "byte-identical campaign reruns"):
        outputs = []
        for name in ("first.jsonl", "second.jsonl"):
            path = tmp_path / name
            config = CampaignConfig(
                identities=("lemma3_2", "eq3_1", "eei", "eq1_2"),
                n_range=(3, 6),
                seed=20240817,
                trials=3,
                output=str(path),
                jobs=2,
            )
            assert cmd_verify(config) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > 0
