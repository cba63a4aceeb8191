"""Tests for the floating-point spectral layer: embedding, the Jacobi
eigensolver, closed-form spectra, and the interpolated polynomial."""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from cyclosum.exact import cp_minor_determinant, cyc_context
from cyclosum.identities import verify_eq2_3_liu
from cyclosum.matrices import (
    build_cp_matrix,
    build_sun_matrix,
    charpoly_exact,
    delete_rows_cols,
    det_exact,
)
from cyclosum.spectral import (
    HermMatrix,
    charpoly_lagrange,
    cp_spectrum_closed_form,
    eei_residual,
    embed_matrix,
    herm_eigen,
    liu_spectrum_check,
    random_hermitian,
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


def test_random_hermitian_is_deterministic():
    a = random_hermitian(5, Random(4))
    b = random_hermitian(5, Random(4))
    assert np.array_equal(a.entries, b.entries)
    assert np.allclose(a.entries, a.entries.conj().T)


# --- closed-form spectrum -----------------------------------------------------------


def test_closed_form_spectrum_order_four():
    lam, _ = cp_spectrum_closed_form(4)
    assert np.allclose(lam, [-3, -1, 1, 3])


def test_closed_form_middle_eigenvalue_vanishes_for_odd_orders():
    for n in (3, 5, 9, 11):
        lam, _ = cp_spectrum_closed_form(n)
        assert lam[(n + 1) // 2 - 1] == 0


def test_closed_form_vector_component_magnitude():
    for n in (3, 6, 10):
        _, vecs = cp_spectrum_closed_form(n)
        for i in range(n):
            assert abs(abs(vecs[n - 1, i]) ** 2 - 1 / n) < 1e-12


def test_closed_form_vectors_diagonalize_the_matrix():
    for n in (4, 7, 12):
        lam, vecs = cp_spectrum_closed_form(n)
        a = embed_matrix(build_cp_matrix(cyc_context(n))).entries
        for i in range(n):
            residual = a @ vecs[:, i] - lam[i] * vecs[:, i]
            assert np.linalg.norm(residual) < 1e-8


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
    poly = charpoly_lagrange(3)
    assert poly.degree == 2
    assert np.allclose(poly.coeffs, [-4 / 3, 0.0, 1.0], atol=1e-12)
    assert abs(poly(2.0) - 8 / 3) < 1e-12


def test_interpolated_polynomial_matches_determinant_at_zero():
    for n in (3, 5, 7):
        poly = charpoly_lagrange(n)
        det = float(cp_minor_determinant(n))
        expected = det if (n - 1) % 2 == 0 else -det
        assert abs(poly(0.0) - expected) < 1e-9 * max(1.0, abs(det))


def test_interpolated_polynomial_is_monic():
    for n in range(2, 12):
        poly = charpoly_lagrange(n)
        assert poly.degree == n - 1
        assert poly.coeffs[-1] == 1.0


def test_interpolated_polynomial_matches_exact_charpoly():
    for n in range(3, 14, 2):
        poly = charpoly_lagrange(n)
        minor = delete_rows_cols(build_cp_matrix(cyc_context(n)), {n})
        exact = charpoly_exact(minor)
        for k, coeff in enumerate(exact):
            value = complex(coeff.to_complex())
            assert abs(value.imag) < 1e-9
            assert abs(poly.coeffs[k] - value.real) < 1e-6 * max(1.0, abs(value.real))


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


def test_product_spectrum_rejects_even_orders():
    with pytest.raises(ValueError):
        liu_spectrum_check(4)
