"""Tests for the spectral layer: embedding, the Jacobi eigensolver, the
exact eigenpair check of the cotangent matrix, and the interpolated
polynomial."""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest

import cyclosum.matrices
import cyclosum.spectral
from cyclosum.exact import cp_minor_determinant, cyc_context
from cyclosum.identities import verify_eei, verify_eq2_3_liu
from cyclosum.matrices import (
    build_cp_matrix,
    build_sun_matrix,
    charpoly_exact,
    delete_rows_cols,
    det_exact,
    make_matrix,
    matmul,
)
from cyclosum.spectral import (
    GAP_THRESHOLD,
    ConvergenceError,
    HermMatrix,
    _lagrange_nodes,
    _round_robin,
    charpoly_lagrange,
    cp_eigenpair_failures,
    cp_eigenvalues,
    eei_residual,
    embed_matrix,
    herm_eigen,
    liu_spectrum_check,
    minor_spectra,
    random_hermitian,
)
from oracles import (
    charpoly_lagrange_naive,
    cp_eigenvector_exponents,
    cp_eigenvectors,
    random_element,
    root_power_product,
)


# --- embedding ------------------------------------------------------------------


def test_embedding_is_hermitian():
    for n in (2, 3, 4, 7):
        h = embed_matrix(build_cp_matrix(cyc_context(n)))
        assert np.allclose(h.entries, h.entries.conj().T, atol=1e-13)


def test_embedded_entry_values():
    h = embed_matrix(build_cp_matrix(cyc_context(4)))
    assert abs(h.entry(1, 2) - (1 - 1j)) < 1e-12
    assert abs(h.entry(2, 1) - (1 + 1j)) < 1e-12
    assert abs(h.entry(1, 1)) < 1e-12


def test_from_rows_symmetrizes():
    h = HermMatrix.from_rows([[1.0, 2.0 + 1e-14j], [2.0, 3.0]])
    assert np.allclose(h.entries, h.entries.conj().T)


def test_from_rows_symmetrizes_without_overflow():
    # (a + a^H)/2 overflows here and turned a finite matrix into one with an
    # inf entry; on normal-range input a/2 + a^H/2 gives the same bits.
    h = HermMatrix.from_rows([[1, 1e308], [1e308, 2]])
    assert np.array_equal(h.entries, [[1, 1e308], [1e308, 2]])
    lam = herm_eigen(h).eigenvalues
    assert np.allclose(lam, np.linalg.eigvalsh(h.entries), rtol=1e-14, atol=0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert verify_eei(2, matrix=h).verdict == "inconclusive"
    a = random_hermitian(6, Random(3)).entries + np.triu(np.full((6, 6), 1e-9j))
    assert np.array_equal(HermMatrix.from_rows(a).entries, (a + a.conj().T) / 2)


# --- eigensolver ------------------------------------------------------------------


def test_eigenvalues_of_diagonal():
    h = HermMatrix.from_rows([[3, 0, 0], [0, 1, 0], [0, 0, 2]])
    dec = herm_eigen(h)
    assert np.allclose(dec.eigenvalues, [1, 2, 3], atol=1e-12)


def test_eigenvalues_of_swap():
    dec = herm_eigen(HermMatrix.from_rows([[0, 1], [1, 0]]))
    assert np.allclose(dec.eigenvalues, [-1, 1], atol=1e-13)


def test_eigenvalues_of_embedded_doubled_matrix():
    dec = herm_eigen(embed_matrix(build_cp_matrix(cyc_context(5))))
    assert np.allclose(dec.eigenvalues, [-4, -2, 0, 2, 4], atol=1e-10)


def test_eigensolver_invariants_random():
    """Residuals, orthonormality, ordering, and agreement with numpy."""
    rng = Random(8675309)
    for dim in range(2, 11):
        for _ in range(200):
            h = random_hermitian(dim, rng)
            dec = herm_eigen(h)
            lam = dec.eigenvalues
            vecs = dec.eigenvectors
            scale = max(1.0, float(np.max(np.abs(h.entries))))
            assert all(lam[i] <= lam[i + 1] + 1e-12 for i in range(dim - 1))
            for i in range(dim):
                residual = h.entries @ vecs[:, i] - lam[i] * vecs[:, i]
                assert np.linalg.norm(residual) <= 1e-9 * scale * dim
            gram = vecs.conj().T @ vecs
            assert np.allclose(gram, np.eye(dim), atol=1e-9)
            assert np.allclose(lam, np.linalg.eigvalsh(h.entries), atol=1e-9 * scale)


def test_eigensolver_handles_degenerate_spectra():
    h = HermMatrix.from_rows(np.eye(4) * 2.5)
    dec = herm_eigen(h)
    assert np.allclose(dec.eigenvalues, [2.5] * 4, atol=1e-12)
    assert np.allclose(dec.eigenvectors.conj().T @ dec.eigenvectors, np.eye(4), atol=1e-9)


def assert_matches_eigh(h: HermMatrix, atol: float) -> None:
    """Eigenvalues against numpy's eigh; residual and orthonormality of the
    returned basis (eigh's vectors are only unique up to a unitary inside
    each eigenspace, so they are not compared directly)."""
    dec = herm_eigen(h)
    lam, vecs = dec.eigenvalues, dec.eigenvectors
    assert np.allclose(lam, np.linalg.eigh(h.entries)[0], rtol=0, atol=atol)
    assert np.allclose(h.entries @ vecs, vecs * lam, rtol=0, atol=atol)
    assert np.allclose(vecs.conj().T @ vecs, np.eye(h.dim), rtol=0, atol=1e-12)


def test_eigensolver_repeated_eigenvalue_off_diagonal():
    u, _ = np.linalg.qr(np.array([[1, 2j, 0], [1j, 1, 3], [2, -1j, 1]]))
    h = HermMatrix.from_rows(u @ np.diag([1.0, 1.0, 2.0]) @ u.conj().T)
    assert np.max(np.abs(h.entries - np.diag(np.diag(h.entries)))) > 0.1
    assert_matches_eigh(h, 1e-13)


def test_eigensolver_zero_and_one_by_one():
    assert_matches_eigh(HermMatrix.from_rows(np.zeros((4, 4))), 0.0)
    assert_matches_eigh(HermMatrix.from_rows([[-2.5]]), 0.0)


def test_eigensolver_cotangent_order_32():
    assert_matches_eigh(embed_matrix(build_cp_matrix(cyc_context(32))), 1e-12)


def test_eigensolver_rejects_non_finite_entries():
    # An inf entry used to make the stop threshold inf, so the solver
    # reported its input as already diagonal and the EEI passed with lhs 0.0.
    inf, nan = math.inf, math.nan
    bad = [
        [[1, inf], [inf, 2]],
        [[1, 0, inf], [0, 2, 0], [inf, 0, 3]],
        [[nan, 0], [0, 1]],
        [[1, complex(1, inf)], [complex(1, -inf), 2]],
        [[1, inf, 0], [inf, nan, 1], [0, 1, -inf]],
    ]
    for rows in bad:
        with np.errstate(invalid="ignore"):
            h = HermMatrix.from_rows(rows)
        with pytest.raises(ValueError, match="finite"):
            herm_eigen(h)
        with pytest.raises(ValueError, match="finite"):
            verify_eei(h.dim, matrix=h)


def test_eigensolver_scales_by_a_power_of_two():
    # Subnormal entries used to hit the sweep cap: the stop threshold
    # 1e-14 * scale underflowed below every rotation's reach.
    rows = [[1e-310, 1e-310], [1e-310, 0]]
    lam = herm_eigen(HermMatrix.from_rows(rows)).eigenvalues
    assert np.allclose(lam, np.linalg.eigvalsh(np.array(rows)), rtol=1e-12, atol=0)
    a = random_hermitian(7, Random(11)).entries
    for k in (-1030, 1000):
        h = HermMatrix.from_rows(np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k))
        ref = np.linalg.eigvalsh(h.entries)
        tol = 1e-12 * np.max(np.abs(ref))
        assert np.allclose(herm_eigen(h).eigenvalues, ref, rtol=0, atol=tol), k


def test_round_robin_schedule_covers_each_pair_once():
    for d in range(1, 17):
        rounds = _round_robin(d)
        assert len(rounds) == (d if d % 2 else d - 1)
        for pairs in rounds:
            indices = [i for pair in pairs for i in pair]
            assert len(indices) == len(set(indices))
            assert len(pairs) == d // 2
        swept = [pair for pairs in rounds for pair in pairs]
        assert sorted(swept) == [(p, q) for p in range(d) for q in range(p + 1, d)]


def test_eigensolver_converges_within_ten_sweeps(monkeypatch):
    # Jacobi converges quadratically in every cyclic ordering; the
    # round-robin one needs at most 8 sweeps up to d = 32.
    monkeypatch.setattr(cyclosum.spectral, "MAX_SWEEPS", 10)
    rng = Random(31337)
    for dim in range(2, 17):
        for _ in range(200):
            h = random_hermitian(dim, rng)
            assert np.allclose(
                herm_eigen(h).eigenvalues, np.linalg.eigvalsh(h.entries), rtol=0, atol=1e-9
            )


def test_random_hermitian_is_deterministic():
    a = random_hermitian(5, Random(4))
    b = random_hermitian(5, Random(4))
    assert np.array_equal(a.entries, b.entries)
    assert np.allclose(a.entries, a.entries.conj().T)


# --- stacked minor spectra ----------------------------------------------------------


def assert_minor_spectra_match_herm_eigen(h: HermMatrix) -> list[np.ndarray]:
    """The stacked solve of the d minors against herm_eigen on each minor
    alone, bit for bit; returns the stacked spectra."""
    spectra = minor_spectra(h)
    assert len(spectra) == h.dim
    for j, lam in enumerate(spectra, 1):
        alone = herm_eigen(h.minor(j)).eigenvalues
        assert np.array_equal(lam, alone), j
        assert np.array_equal(np.signbit(lam), np.signbit(alone)), j
    return spectra


def test_minor_spectra_are_bit_identical_to_each_minor_alone():
    for dim in range(2, 17):
        for seed in range(2):
            h = random_hermitian(dim, Random(900 + 10 * dim + seed))
            assert_minor_spectra_match_herm_eigen(h)
    for n in range(2, 13):
        assert_minor_spectra_match_herm_eigen(embed_matrix(build_cp_matrix(cyc_context(n))))


def test_minor_spectra_of_dimension_one_is_one_empty_spectrum():
    spectra = minor_spectra(HermMatrix.from_rows([[3.0]]))
    assert len(spectra) == 1 and spectra[0].shape == (0,)


def test_minor_spectra_members_that_converge_in_different_sweeps():
    # Minor 3 is [[1, e], [e, 1]] with e below its stop but above the
    # rotation floor: alone it is converged before the first sweep, and one
    # more rotation would split its double eigenvalue 1.  Minors 1 and 2
    # need sweeps.  In the second matrix minor 1 is diagonal.
    e = 3e-15
    h = HermMatrix.from_rows([[1, e, 0.5], [e, 1, 0.25j], [0.5, -0.25j, -1]])
    spectra = assert_minor_spectra_match_herm_eigen(h)
    assert np.array_equal(spectra[2], [1.0, 1.0])
    a = np.diag([4.0, 3.0, -1.0, 2.0, 0.5]).astype(complex)
    a[0, 1:] = [1, 1j, -2, 0.5 - 0.5j]
    h = HermMatrix.from_rows(a + np.triu(a, 1).conj().T)
    diagonal = assert_minor_spectra_match_herm_eigen(h)
    assert np.array_equal(diagonal[0], [-1.0, 0.5, 2.0, 3.0])


def test_minor_spectra_with_a_zero_minor():
    # Only row and column 1 are nonzero, so minor 1 is zero (scale 0).
    a = np.zeros((5, 5), dtype=complex)
    a[0, 1:] = [1, 2j, -1, 0.5]
    spectra = assert_minor_spectra_match_herm_eigen(HermMatrix.from_rows(a + a.conj().T))
    assert np.array_equal(spectra[0], np.zeros(4))


def test_minor_spectra_with_subnormal_entries():
    # Minor 1 is all subnormal; the other minors also hold row 1's normal
    # entries.  Each member is scaled by its own power of two.
    b = random_hermitian(6, Random(21)).entries
    a = np.ldexp(b.real, -1040) + 1j * np.ldexp(b.imag, -1040)
    a[0, :] = [2.0, 1, -1j, 0.5, 1 + 1j, -0.25]
    a[:, 0] = a[0, :].conj()
    h = HermMatrix.from_rows(a)
    spectra = assert_minor_spectra_match_herm_eigen(h)
    ref = np.linalg.eigvalsh(h.minor(1).entries)
    assert np.allclose(spectra[0], ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))
    assert np.max(np.abs(spectra[0])) < 1e-300


def test_minor_spectra_with_a_degenerate_spectrum():
    u, _ = np.linalg.qr(random_hermitian(6, Random(4)).entries)
    h = HermMatrix.from_rows(u @ np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 3.0]) @ u.conj().T)
    for j, lam in enumerate(assert_minor_spectra_match_herm_eigen(h), 1):
        assert np.allclose(lam, np.linalg.eigvalsh(h.minor(j).entries), rtol=0, atol=1e-12)
    assert_minor_spectra_match_herm_eigen(HermMatrix.from_rows(np.eye(5) * 2.5))


def test_minor_spectra_reject_non_finite_entries():
    inf, nan = math.inf, math.nan
    bad = [
        [[1, 0, inf], [0, 2, 0], [inf, 0, 3]],
        [[1, inf, 0], [inf, nan, 1], [0, 1, -inf]],
    ]
    for rows in bad:
        with np.errstate(invalid="ignore"):
            h = HermMatrix.from_rows(rows)
        with pytest.raises(ValueError, match="finite"):
            minor_spectra(h)


def test_minor_spectra_raise_at_the_sweep_cap(monkeypatch):
    monkeypatch.setattr(cyclosum.spectral, "MAX_SWEEPS", 1)
    h = random_hermitian(6, Random(5))
    with pytest.raises(ConvergenceError):
        minor_spectra(h)
    with pytest.raises(ConvergenceError):
        herm_eigen(h)


def test_a_gap_equal_to_the_threshold_is_inconclusive():
    # diag(0, GAP_THRESHOLD) is solved exactly, so both gaps equal the
    # threshold; only a gap above it makes a pair conclusive.
    h = HermMatrix.from_rows(np.diag([0.0, GAP_THRESHOLD]))
    assert np.array_equal(herm_eigen(h).eigenvalues, [0.0, GAP_THRESHOLD])
    for i in (1, 2):
        for j in (1, 2):
            r = eei_residual(h, i, j)
            assert r.gap == GAP_THRESHOLD and not r.conclusive
    assert verify_eei(2, matrix=h).verdict == "inconclusive"


# --- closed-form spectrum -----------------------------------------------------------


def test_closed_form_spectrum_order_four():
    assert cp_eigenvalues(4) == [-3, -1, 1, 3]
    assert cp_eigenpair_failures(4) == []


def test_closed_form_middle_eigenvalue_vanishes_for_odd_orders():
    # Column (n+1)/2 spans the kernel: C times it is exactly the zero vector.
    for n in (3, 5, 9, 11):
        ctx = cyc_context(n)
        mid = (n + 1) // 2
        assert cp_eigenvalues(n)[mid - 1] == 0
        cv = matmul(build_cp_matrix(ctx), cp_eigenvectors(ctx))
        assert all(not row[mid - 1] for row in cv.entries)


def test_closed_form_vector_component_magnitude():
    # Every component is a root of unity, so each unit eigenvector has
    # |v_ji|^2 = 1/n; the last row, the one the EEI reads, is all ones.
    for n in (3, 6, 10):
        v = cp_eigenvectors(cyc_context(n))
        assert all(e * e.conjugate() == 1 for row in v.entries for e in row)
        assert all(e == 1 for e in v.entries[n - 1])


def test_closed_form_vectors_diagonalize_the_matrix():
    # The exact check against the float embedding, and V is invertible.
    for n in (4, 7, 12):
        ctx = cyc_context(n)
        assert cp_eigenpair_failures(n) == []
        v = cp_eigenvectors(ctx)
        assert det_exact(v)
        a = embed_matrix(build_cp_matrix(ctx)).entries
        vecs = np.array([[e.to_complex() for e in row] for row in v.entries])
        lam = np.array(cp_eigenvalues(n), dtype=np.float64)
        assert np.allclose(a @ vecs, vecs * lam, rtol=0, atol=1e-9)


def test_root_power_product_matches_matmul():
    # The oracle's product against the field triple loop, on random entries
    # and random exponents, negative ones included.
    rng = Random(41)
    for n in (2, 3, 4, 6, 9, 12):
        ctx = cyc_context(n)
        for dim in (1, 3, 5):
            a = make_matrix(ctx, [[random_element(ctx, rng) for _ in range(dim)]
                                  for _ in range(dim)])
            exps = [[rng.randint(-2 * n, 2 * n) for _ in range(dim)] for _ in range(dim)]
            v = make_matrix(ctx, [[ctx.zeta_pow(e) for e in row] for row in exps])
            assert root_power_product(a, exps) == matmul(a, v), (n, dim)


def test_eigenpair_failures_agree_with_the_fourier_product(monkeypatch):
    # The oracle route: C V against V diag(claimed), column by column, for
    # the true spectrum and for the reversed one, which pairs column i with
    # column n + 1 - i's eigenvalue and so fails every column but a middle one.
    for n in range(2, 33):
        ctx = cyc_context(n)
        v = cp_eigenvectors(ctx)
        cv = root_power_product(build_cp_matrix(ctx), cp_eigenvector_exponents(n))
        for claimed in (cp_eigenvalues(n), cp_eigenvalues(n)[::-1]):
            failing = [
                i + 1
                for i in range(n)
                if any(row[i] != claimed[i] * vrow[i] for row, vrow in zip(cv.entries, v.entries))
            ]
            monkeypatch.setattr(cyclosum.spectral, "cp_eigenvalues", lambda _: claimed)
            assert cp_eigenpair_failures(n) == failing, n
        assert failing == [i for i in range(1, n + 1) if 2 * i != n + 1], n


def test_eigenpair_failures_agree_on_the_int64_and_packed_routes(monkeypatch):
    # The same failing columns whether C's spectrum is proved by the int64
    # inverse DFT or unpacked from packed integers, which an int64 bound of
    # 1 forces; for the true spectrum and for one eigenvalue off by one.
    real = cp_eigenvalues
    dfts = []
    inverse_dft = cyclosum.matrices._inverse_dft

    def counting(*args):
        dfts.append(args[-1])
        return inverse_dft(*args)

    monkeypatch.setattr(cyclosum.matrices, "_inverse_dft", counting)
    for n in range(2, 17):
        off = n // 2 + 1

        def off_by_one(m):
            lam = real(m)
            lam[off - 1] += 1
            return lam

        for claimed, want in ((real, []), (off_by_one, [off])):
            monkeypatch.setattr(cyclosum.spectral, "cp_eigenvalues", claimed)
            dfts.clear()
            int64 = cp_eigenpair_failures(n)
            assert dfts == [n], n
            with monkeypatch.context() as patch:
                patch.setattr(cyclosum.matrices, "_INT64", 1)
                dfts.clear()
                packed = cp_eigenpair_failures(n)
                assert dfts == [], n
            assert int64 == packed == want, n


# --- eigenvector-eigenvalue identity --------------------------------------------------


def closed_form_two_by_two(a: float, b: complex, c: float):
    mean = (a + c) / 2
    radius = math.hypot((a - c) / 2, abs(b))
    return mean - radius, mean + radius


def test_identity_on_two_by_two():
    # Against the quadratic-formula eigensystem: |v_ij|^2 (l_i - l_other) = l_i - m_j.
    h = HermMatrix.from_rows([[2.0, 1 - 2j], [1 + 2j, -1.0]])
    for i in (1, 2):
        for j in (1, 2):
            res = eei_residual(h, i, j)
            assert res.conclusive
            assert res.residual <= 1e-9
    low, high = closed_form_two_by_two(2.0, 1 - 2j, -1.0)
    dec = herm_eigen(h)
    assert np.allclose(dec.eigenvalues, [low, high], atol=1e-12)


def test_identity_on_embedded_matrix_zero_eigenvalue():
    h = embed_matrix(build_cp_matrix(cyc_context(5)))
    res = eei_residual(h, 3, 5)
    assert res.conclusive
    assert res.residual <= 1e-8


def test_identity_on_random_matrix_all_pairs():
    h = random_hermitian(6, Random(17))
    for i in range(1, 7):
        for j in range(1, 7):
            res = eei_residual(h, i, j)
            if res.conclusive:
                assert res.residual <= 1e-8


def test_identity_reports_degenerate_spectra_inconclusive():
    h = HermMatrix.from_rows(np.eye(3))
    res = eei_residual(h, 1, 2)
    assert not res.conclusive


def test_identity_rejects_bad_indices():
    h = random_hermitian(3, Random(2))
    with pytest.raises(IndexError):
        eei_residual(h, 0, 1)
    with pytest.raises(IndexError):
        eei_residual(h, 1, 4)


# --- minor determinant closed form ------------------------------------------------------


def test_minor_determinant_matches_eigenvalue_product():
    for n in (3, 5, 7, 9):
        minor = delete_rows_cols(build_cp_matrix(cyc_context(n)), {n})
        lam = herm_eigen(embed_matrix(minor)).eigenvalues
        assert abs(float(np.prod(lam)) - float(cp_minor_determinant(n))) < 1e-8 * abs(
            float(cp_minor_determinant(n))
        )


def test_minor_determinant_consistent_with_exact_path():
    # The doubled matrix scales each of the n-1 rows by 2.
    for n in range(3, 14, 2):
        base = det_exact(delete_rows_cols(build_sun_matrix(cyc_context(n)), {n}))
        assert cp_minor_determinant(n) == Fraction(2) ** (n - 1) * base.as_rational()
        half = (n - 1) // 2
        sign = -1 if half % 2 else 1
        assert base.as_rational() == Fraction(sign * math.factorial(half) ** 2, n)


# --- interpolated characteristic polynomial ----------------------------------------------


def test_interpolated_polynomial_order_three():
    assert charpoly_lagrange(3) == [Fraction(-4, 3), 0, 1]


def test_interpolated_polynomial_matches_determinant_at_zero():
    # c_0 = det(-M) = (-1)^(n-1) det(M) for the (n-1)-dim cotangent minor M,
    # and n - 1 is even where the closed form is defined.
    for n in range(3, 14, 2):
        assert charpoly_lagrange(n)[0] == cp_minor_determinant(n)


def test_interpolated_polynomial_is_monic():
    for n in range(2, 12):
        coeffs = charpoly_lagrange(n)
        assert len(coeffs) == n
        assert coeffs[-1] == 1
        assert all(type(c) is Fraction for c in coeffs)


def test_interpolated_polynomial_weights_are_one_over_n():
    # The factorial table against the products it replaces, and the
    # weights y_i / prod_{k!=i}(x_i - x_k) all equal to 1/n.
    for n in range(2, 40):
        nodes, values, weights = _lagrange_nodes(n)
        assert nodes == [n + 1 - 2 * i for i in range(1, n + 1)]
        assert values == [
            Fraction(2) ** (n - 1) / n * math.prod(k - i for k in range(1, n + 1) if k != i)
            for i in range(1, n + 1)
        ]
        assert weights == [
            y / math.prod(x - xk for xk in nodes if xk != x) for x, y in zip(nodes, values)
        ] == [Fraction(1, n)] * n, f"n={n}"


def test_interpolated_polynomial_matches_basis_by_basis_oracle():
    # Synthetic division by each node against multiplying each basis
    # polynomial out: the same Fractions, coefficient for coefficient.
    for n in range(2, 26):
        assert charpoly_lagrange(n) == charpoly_lagrange_naive(n), f"n={n}"


def test_interpolated_polynomial_matches_exact_charpoly():
    for n in range(2, 14):
        minor = delete_rows_cols(build_cp_matrix(cyc_context(n)), {n})
        exact = charpoly_exact(minor)
        assert all(c.is_rational() for c in exact)
        assert [c.as_rational() for c in exact] == charpoly_lagrange(n)


# --- product-matrix spectrum ---------------------------------------------------------------


def test_product_spectrum_order_three():
    res = liu_spectrum_check(3)
    assert res.expected == (-1, 1)
    assert res.charpoly_matches
    assert res.det_value == -1
    assert res.det_matches


def test_product_spectrum_order_five():
    res = liu_spectrum_check(5)
    assert res.charpoly_matches
    assert res.det_value == 4
    assert res.expected == (-2, -1, 1, 2)


def test_product_spectrum_deviation_small_for_small_orders():
    # The spectrum is judged exactly, so the recorded deviation is exactly 0.
    for n in (3, 5, 7, 9):
        res = liu_spectrum_check(n)
        assert res.charpoly_matches
        assert res.det_matches
        assert verify_eq2_3_liu(n).parameters["max_spectrum_deviation"] == 0.0


def test_product_determinant_matches_gaussian_elimination():
    # The determinant comes from the characteristic polynomial; elimination
    # on the column-scaled minor, and on the minor times n, must agree.
    for n in range(3, 14, 2):
        ctx = cyc_context(n)
        minor = delete_rows_cols(build_sun_matrix(ctx), {n})
        scaled = make_matrix(ctx, [
            [e * (1 - ctx.zeta_pow(k)) for k, e in enumerate(row, 1)]
            for row in minor.entries
        ])
        det = liu_spectrum_check(n).det_value
        assert det == det_exact(scaled)
        assert det == n * det_exact(minor)


def test_product_spectrum_rejects_even_orders():
    with pytest.raises(ValueError):
        liu_spectrum_check(4)
