"""Exact arithmetic over roots of unity, structured-matrix invariants, and
verification of their closed-form identities."""

from __future__ import annotations

from .exact import cyc_context
from .identities import verify_eq1_3
from .matrices import build_sun_matrix, delete_rows_cols, det_exact, permanent_ryser

__version__ = "0.1.0"
