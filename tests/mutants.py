"""Mutation check of the fast paths.  Each mutant replaces one piece of
text in a temporary copy of src/, and every test it names must then fail.
The named tests must first pass on an unmutated copy, so that a mutant
cannot pass by a test that fails anyway.

Run it from anywhere, with the interpreter that runs the tests:

    python tests/mutants.py

It needs the standard library and pytest, and exits 0 when every check
holds and 1 otherwise.  pytest does not collect this file (its name has no
test_ prefix), so Tier-1 does not run it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Seconds one pytest run may take.  A mutant that makes a test hang (an
# unpack loop without its borrow, on a negative packed value) is killed
# when the run is stopped here, though every mutant below names a test
# that fails without hanging.
TIMEOUT = 90


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/cyclosum
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # The residue walk of every permanent: the lanes, the two streams and
    # the lift.  A mutant that replaced one of the retired walk's is marked
    # with the one it replaced.
    Mutant(  # replaces "one prime fewer than the bound asks for"
        "the CRT stopping one prime short of 2B",
        "matrices.py",
        "        modulus *= primes[-1][0]\n",
        "        modulus *= primes[-1][0]\n    primes = primes[:-1] if len(primes) > 1 else primes\n",
        ("tests/test_kernels.py::test_modular_route_takes_every_prime_the_bound_asks_for",
         "tests/test_kernels.py::test_n_lanes_take_every_prime_the_bound_asks_for"),
    ),
    Mutant(
        "a root of unity of order n/q for the least prime q | n",
        "matrices.py",
        "                yield p, r\n",
        "                yield p, pow(r, primes_of_n[0], p)\n",
        ("tests/test_kernels.py::test_prime_images_are_primes_with_primitive_roots[12]",
         "tests/test_kernels.py::test_necklace_route_matches_gray_code_on_sun_matrix[6]"),
    ),
    Mutant(
        "the necklace period weight dropped",
        "matrices.py",
        "np.where(np.bitwise_count(words) & 1, -periods, periods)",
        "np.where(np.bitwise_count(words) & 1, -1, 1)",
        ("tests/test_kernels.py::test_necklace_route_matches_gray_code_on_sun_matrix[8]",
         "tests/test_kernels.py::test_one_lane_matches_n_lanes_on_sun_and_cotangent_matrices[9]"),
    ),
    Mutant(
        "the factor N of a minor dropped",
        "matrices.py",
        "den = order ** (order > d) * row_den**d",
        "den = row_den**d",
        ("tests/test_kernels.py::test_one_lane_matches_n_lanes_on_sun_and_cotangent_matrices[7]",
         "tests/test_acceptance.py::test_c02_minor_permanent_closed_form_odd_orders"),
    ),
    Mutant(  # replaces "the necklace period used as the orbit weight"
        "Glynn's sign product dropped",
        "matrices.py",
        "yield words, np.where(np.bitwise_count(words) & 1, -1, 1)",
        "yield words, np.ones_like(words)",
        ("tests/test_kernels.py::test_ryser_matches_naive_permanent[3]",),
    ),
    Mutant(
        "Glynn's fixed sign left free",
        "matrices.py",
        "    half = 1 << (dim - 1)\n",
        "    half = 1 << dim\n",
        ("tests/test_kernels.py::test_ryser_matches_naive_permanent[3]",),
    ),
    Mutant(  # replaces "the (-1)^N sign of the packed Ryser sum dropped"
        "the (-1)^N of Ryser's necklace sum dropped",
        "matrices.py",
        "blocks, scale = _necklace_blocks(order), (-1) ** order",
        "blocks, scale = _necklace_blocks(order), 1",
        ("tests/test_kernels.py::test_necklace_route_matches_gray_code_on_sun_matrix[5]",),
    ),
    Mutant(  # replaces "the x [i in S] of a minor's factor dropped in the orbit walk"
        "the x [i in S] of a minor's factor dropped",
        "matrices.py",
        "b = (b * s + prod * (words >> i & 1)) % ps",
        "b = b * s % ps",
        ("tests/test_kernels.py::test_necklace_route_matches_gray_code_on_sun_matrix[7]",),
    ),
    Mutant(  # replaces "the 1/|H| of the orbit walk dropped"
        "n - 1 lanes",
        "matrices.py",
        "points = np.array([1] if rational else range(n))",
        "points = np.array([1] if rational else range(n - 1))",
        ("tests/test_kernels.py::test_ryser_matches_naive_permanent[3]",),
    ),
    Mutant(
        "the residue walk's inverse DFT exponent sign flipped",
        "matrices.py",
        "powers[:, _dft_grid(ctx.n, ctx.n)]",
        "powers[:, -_dft_grid(ctx.n, ctx.n) % ctx.n]",
        ("tests/test_kernels.py::test_ryser_matches_naive_permanent[3]",),
    ),
    Mutant(
        "the CRT's symmetric residue dropped",
        "matrices.py",
        "coeffs = [c - modulus if c > modulus // 2 else c for c in coeffs]",
        "coeffs = [c - modulus if c > modulus else c for c in coeffs]",
        ("tests/test_kernels.py::test_residue_walk_lifts_large_negative_coefficients[16]",),
    ),
    Mutant(
        "a matrix taken as rational when any entry is",
        "matrices.py",
        "rational = not any(any(v[1:]) for v in cells) or (",
        "rational = not all(any(v[1:]) for v in cells) or (",
        ("tests/test_kernels.py::test_ryser_matches_naive_permanent[3]",),
    ),
    Mutant(
        "the sums left unreduced past two byte tables",
        "matrices.py",
        "if not reduced or len(tables) > 2:",
        "if not reduced or len(tables) > 3:",
        ("tests/test_kernels.py::test_walk_past_two_byte_tables_reduces_its_sums",),
    ),
    Mutant(  # replaces "one row's denominator dropped from the Gray walk's product"
        "one row's lcm dropped from the walk's denominator",
        "matrices.py",
        "den = math.prod(dens)",
        "den = math.prod(dens[1:])",
        ("tests/test_kernels.py::test_ryser_matches_naive_permanent[3]",),
    ),
    # Kronecker packing: the carry of a negative low part, and signed digits.
    Mutant(
        "fold's carry from a negative low part dropped",
        "exact.py",
        "            high += 1\n",
        "            pass\n",
        ("tests/test_kernels.py::test_packed_kernels_carry_large_negative_coefficients[16]",),
    ),
    Mutant(
        "unpack's borrow for a negative digit dropped",
        "exact.py",
        "                value += 1\n",
        "                pass\n",
        ("tests/test_kernels.py::"
         "test_unpack_borrows_for_a_negative_digit_below_a_positive_top_digit[16]",),
    ),
    # thm2_1: each claimed eigenvalue against C's circulant eigenvalue for
    # its eigenvector, and every column failing off a circulant.
    Mutant(
        "thm2_1's eigenvalue read at index i, not -i",
        "spectral.py",
        "lam[-i % n]",
        "lam[i % n]",
        ("tests/test_identities.py::test_integer_spectrum_fails_on_an_eigenvalue_off_by_one",),
    ),
    Mutant(
        "thm2_1 passing every column of a matrix that is not circulant",
        "spectral.py",
        "return list(range(1, n + 1))",
        "return []",
        ("tests/test_identities.py::test_integer_spectrum_fails_on_a_wrong_eigenvector",),
    ),
    Mutant(
        "the 1/N of a minor's characteristic polynomial dropped",
        "matrices.py",
        "order * c.den)",
        "c.den)",
        ("tests/test_kernels.py::test_circulant_charpoly_on_random_circulants_and_minors[6]",),
    ),
    # The integer product of a rational spectrum.
    Mutant(
        "the integer route's power B^(N-i) off by one",
        "matrices.py",
        "den ** (order - i))",
        "den ** (order - i - 1))",
        ("tests/test_kernels.py::test_rational_spectra_take_the_integer_product[4]",),
    ),
    Mutant(
        "the 1/N of a minor dropped on the integer route",
        "matrices.py",
        "Fraction(j * c, order * den",
        "Fraction(j * c, den",
        ("tests/test_kernels.py::test_rational_spectra_take_the_integer_product[5]",),
    ),
    Mutant(
        "the integer route taken when any eigenvalue, not all, is rational",
        "matrices.py",
        "if all(lam.is_rational() for lam in lams)",
        "if any(lam.is_rational() for lam in lams)",
        ("tests/test_kernels.py::"
         "test_spectra_with_an_irrational_eigenvalue_take_the_field_product[6]",),
    ),
    Mutant(
        "the twisted product's polynomial taken as p(x), not (p(x) - p(0)) / x",
        "spectral.py",
        "_circulant_charpoly(ctx, t, c.dim)[1:]",
        "_circulant_charpoly(ctx, t, c.dim)",
        ("tests/test_kernels.py::test_twisted_charpoly_on_random_circulants[5]",
         "tests/test_kernels.py::test_twisted_charpoly_on_the_sun_matrix[5]"),
    ),
    # The circulant spectrum: candidates read through Psi_n and proved by
    # one inverse DFT in int64.  Each mutant is paired with the retired
    # mutant of the per-eigenvalue Psi_n test that covered the same fault.
    Mutant(  # replaces "the Psi_n comparison skipped"
        "the certificate comparison skipped",
        "matrices.py",
        "if np.abs(c).max() <= norm and np.array_equal(_inverse_dft(ctx, c, order), order * a):",
        "if np.abs(c).max() <= norm:",
        ("tests/test_kernels.py::test_psi_read_matches_the_full_unpack[12]",),
    ),
    Mutant(  # replaces "the sign of c = -P_0 flipped"
        "the candidate sign flipped",
        "matrices.py",
        "c = -products[",
        "c = products[",
        ("tests/test_kernels.py::test_sun_and_cotangent_spectra_take_no_unpack[9]",),
    ),
    Mutant(
        "the inverse DFT's exponent sign flipped",
        "matrices.py",
        "(np.arange(order)[:, None], _dft_grid(n, order)), c)",
        "(np.arange(order)[:, None], -_dft_grid(n, order) % n), c)",
        ("tests/test_kernels.py::test_sun_and_cotangent_spectra_take_no_unpack[9]",
         "tests/test_kernels.py::test_inverse_dft_rebuilds_the_row_of_a_spectrum[9]"),
    ),
    Mutant(
        "the certificate's factor N dropped",
        "matrices.py",
        "_inverse_dft(ctx, c, order), order * a)",
        "_inverse_dft(ctx, c, order), a)",
        ("tests/test_kernels.py::test_sun_and_cotangent_spectra_take_no_unpack[9]",),
    ),
    Mutant(  # replaces "the digit width of the Psi_n test without ||Psi_n||_inf"
        "the int64 guard dropped",
        "matrices.py",
        "if norm * order * height < _INT64:",
        "if True:",
        ("tests/test_kernels.py::test_dft_guard_is_exact_at_its_edge[9]",),
    ),
    Mutant(
        "the powers from phi up left unreduced",
        "matrices.py",
        "powers[:, :deg] + powers[:, deg:] @ reduction",
        "powers[:, :deg]",
        ("tests/test_kernels.py::test_sun_and_cotangent_spectra_take_no_unpack[9]",
         "tests/test_kernels.py::test_inverse_dft_rebuilds_the_row_of_a_spectrum[9]"),
    ),
    Mutant(
        "fold returns a top digit in the upper half uncarried",
        "exact.py",
        "if -1 <= value >> (width - 1) <= 0:",
        "if -1 <= value >> (width - 1) <= 1:",
        ("tests/test_kernels.py::test_a_folded_top_digit_in_the_upper_half_is_carried",),
    ),
    # Whether every unit fixes a row, tested on the generators.
    Mutant(
        "only the first generator of the unit group tested",
        "matrices.py",
        "for g, _ in ctx._norm_steps for c, v in enumerate(nums))",
        "for g, _ in ctx._norm_steps[:1] for c, v in enumerate(nums))",
        ("tests/test_kernels.py::test_galois_generators_give_the_per_unit_scan[12]",),
    ),
    # The sun entries as Galois images, and the rational multiply path.
    Mutant(
        "the Galois image by u^-1 in place of u",
        "matrices.py",
        "CycElem(ctx, ctx._galois(base.nums, u), base.den)",
        "CycElem(ctx, ctx._galois(base.nums, pow(u, -1, n)), base.den)",
        ("tests/test_kernels.py::test_sun_entries_are_galois_images_of_one_inverse_per_divisor[5]",),
    ),
    Mutant(
        "the denominator of the general factor dropped on a rational factor",
        "exact.py",
        "            nums = [b[0] * v for v in a]\n",
        "            return CycElem(self.context, [b[0] * v for v in a], o.den)\n",
        ("tests/test_kernels.py::test_rational_factor_scales_without_a_packed_product[5]",),
    ),
    Mutant(
        "an identity-only circulance check",
        "matrices.py",
        "e is t[(c - r) % order] or e == t[(c - r) % order]",
        "e is t[(c - r) % order]",
        ("tests/test_kernels.py::test_circulance_is_exact_on_entries_that_are_not_shared",),
    ),
    # eq2_4's exact comparison of every coefficient.
    Mutant(
        "eq2_4's coefficients that one side lacks left uncounted",
        "identities.py",
        "mismatches = abs(len(exact) - len(interp)) + sum(",
        "mismatches = sum(",
        ("tests/test_identities.py::test_interpolation_fails_on_a_truncated_polynomial[top]",),
    ),
    # The Jacobi eigensolver, its stacked minors, and the EEI verdict.
    Mutant(
        "the EEI judging only the pairs whose minor spectrum is there",
        "identities.py",
        "weights, strict=True):",
        "weights):",
        ("tests/test_identities.py::"
         "test_minor_spectra_identity_raises_when_a_minor_spectrum_is_missing[one]",),
    ),
    Mutant(
        "a Jacobi round's J[q, p] with its sign flipped",
        "spectral.py",
        "sq.append(-s.conjugate())",
        "sq.append(s.conjugate())",
        ("tests/test_spectral.py::test_eigenvalues_of_swap",
         "tests/test_spectral.py::test_eigensolver_repeated_eigenvalue_off_diagonal"),
    ),
    Mutant(
        "a converged member of the stack keeps rotating",
        "spectral.py",
        "            keep = ~done\n",
        "            keep = done | ~done\n",
        ("tests/test_spectral.py::test_minor_spectra_members_that_converge_in_different_sweeps",),
    ),
    Mutant(
        "the stack shares one scale",
        "spectral.py",
        "scale = np.abs(mats).max(axis=(1, 2))",
        "scale = np.abs(mats).max(axis=(1, 2)).max(keepdims=True).repeat(len(mats))",
        ("tests/test_spectral.py::test_minor_spectra_with_subnormal_entries",),
    ),
    Mutant(
        "_eei_pair's gap test with >= in place of >",
        "spectral.py",
        "conclusive = gap > GAP_THRESHOLD and",
        "conclusive = gap >= GAP_THRESHOLD and",
        ("tests/test_spectral.py::test_a_gap_equal_to_the_threshold_is_inconclusive",),
    ),
)


def failing(src: Path, tests: tuple[str, ...]) -> set[str]:
    """The ids among tests that fail or error with the package under src:
    all of them when the run takes longer than TIMEOUT."""
    # No bytecode cache: two mutants of one file can share its size and
    # modification second, which is all a cached .pyc is checked against.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    where = subprocess.run(
        [sys.executable, "-c", "import cyclosum; print(cyclosum.__file__)"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    if not Path(where).is_relative_to(src):
        raise RuntimeError(f"cyclosum imported from {where}, not from {src}")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"pytest stopped after {TIMEOUT} s", flush=True)
        return set(tests)
    return {line.split()[1] for line in proc.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))}


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        named = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        broken = failing(src, named)
        for test in sorted(broken):
            problems.append(f"unmutated: {test} fails")
        for m in MUTANTS:
            path = src / "cyclosum" / m.path
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                problems.append(f"{m.name}: the text to replace occurs {text.count(m.old)} times")
                continue
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            try:
                survived = [t for t in m.tests if t not in failing(src, m.tests)]
            finally:
                path.write_text(text, encoding="utf-8")
            status = f"survived, {', '.join(survived)} passing" if survived else "killed"
            print(f"{m.name}: {status}", flush=True)
            problems += [f"{m.name}: {t} passes" for t in survived]
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
