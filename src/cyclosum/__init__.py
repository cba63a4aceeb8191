"""Exact arithmetic over roots of unity, structured-matrix invariants, and
verification of their closed-form identities."""

from __future__ import annotations

from .combinatorics import (
    SetPartition,
    SignedPerm,
    derangements,
    full_cycles,
    partitions_min2,
    perm_sign,
)
from .exact import (
    ContextMismatchError,
    CycElem,
    CyclotomicContext,
    cp_minor_determinant,
    cyc_context,
    cyclotomic_polynomial,
    double_factorial,
    full_permanent,
    minor_determinant,
    minor_permanent,
    parse_elem,
    random_element,
)
from .identities import (
    IDENTITY_IDS,
    VerificationReport,
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
from .matrices import (
    CapExceededError,
    DerangementSums,
    ExactMatrix,
    build_bs_diagonal,
    build_cp_matrix,
    build_sun_matrix,
    charpoly_exact,
    delete_rows_cols,
    derangement_sums,
    det_exact,
    identity_matrix,
    load_matrix,
    make_matrix,
    matmul,
    matrix_from_json,
    matrix_to_json,
    permanent_naive,
    permanent_ryser,
    save_matrix,
    scalar_multiply,
)
from .spectral import (
    ConvergenceError,
    EeiResult,
    HermMatrix,
    LiuSpectrumResult,
    SpectralDecomposition,
    charpoly_lagrange,
    cp_spectrum_closed_form,
    eei_residual,
    embed_matrix,
    herm_eigen,
    liu_spectrum_check,
    random_hermitian,
)

__version__ = "0.1.0"
