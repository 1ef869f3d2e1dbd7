"""Exact rational approximations of zeta constants with certified errors.

The pipeline: build three-polynomial series rows whose zeta-coefficient
closed forms are validated against an independent partial-fraction oracle,
solve the resulting triangular system exactly over the rationals, and
certify  |alpha*zeta(2) + beta - zeta(s)|  with interval arithmetic.
"""
from __future__ import annotations

from .numerics import zeta_reference
from .polynomials import binomial_poly, explicit_poly, shifted_legendre
from .rows import TranscriptionVariant, validate_rows
from .series import (
    decompose_integral,
    eval_special_series,
    eval_truncated,
    shift_reduction_residual,
)
from .solver import build_system, certified_row_bounds, solve_zeta, theta_bound

__version__ = "0.1.0"

__all__ = [
    "TranscriptionVariant",
    "binomial_poly",
    "build_system",
    "certified_row_bounds",
    "decompose_integral",
    "eval_special_series",
    "eval_truncated",
    "explicit_poly",
    "shift_reduction_residual",
    "shifted_legendre",
    "solve_zeta",
    "theta_bound",
    "validate_rows",
    "zeta_reference",
]
