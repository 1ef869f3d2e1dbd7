"""Exact rational approximations of zeta constants with certified errors.

The pipeline: build three-polynomial series rows whose zeta-coefficient
closed forms are validated against an independent partial-fraction oracle,
solve the resulting triangular system exactly over the rationals, and
certify  |alpha*zeta(2) + beta - zeta(s)|  with interval arithmetic.
"""
from __future__ import annotations

from .numerics import (
    DIGIT_BUDGET,
    Interval,
    PrecisionBudgetError,
    Rat,
    decimal_upper_sci,
    harmonic,
    render_decimal,
    render_interval_decimal,
    zeta_reference,
)
from .polynomials import (
    PolyFamily,
    PolySpec,
    binomial_poly,
    coefficient_triple,
    eval_poly,
    explicit_poly,
    pad_to_degree,
    shifted_legendre,
)
from .rows import (
    CoefficientRow,
    RowCheck,
    RowMismatch,
    RowValidationReport,
    TranscriptionVariant,
    coefficient_row,
    row_general,
    row_zeta3,
    row_zeta4,
    s_sym,
    validate_rows,
)
from .series import (
    ZetaCombination,
    beta_rat,
    decompose_integral,
    eval_special_series,
    eval_truncated,
    partial_fraction_sum,
    shift_reduction_residual,
)
from .solver import (
    ApproxResult,
    SingularSystemError,
    TriangularSystem,
    build_system,
    certified_row_bounds,
    solve_zeta,
    theta_bound,
)

__version__ = "0.1.0"

__all__ = [
    "DIGIT_BUDGET",
    "ApproxResult",
    "CoefficientRow",
    "Interval",
    "PolyFamily",
    "PolySpec",
    "PrecisionBudgetError",
    "Rat",
    "RowCheck",
    "RowMismatch",
    "RowValidationReport",
    "SingularSystemError",
    "TranscriptionVariant",
    "TriangularSystem",
    "ZetaCombination",
    "beta_rat",
    "binomial_poly",
    "build_system",
    "certified_row_bounds",
    "coefficient_row",
    "coefficient_triple",
    "decimal_upper_sci",
    "decompose_integral",
    "eval_poly",
    "eval_special_series",
    "eval_truncated",
    "explicit_poly",
    "harmonic",
    "pad_to_degree",
    "partial_fraction_sum",
    "render_decimal",
    "render_interval_decimal",
    "row_general",
    "row_zeta3",
    "row_zeta4",
    "s_sym",
    "shift_reduction_residual",
    "shifted_legendre",
    "solve_zeta",
    "theta_bound",
    "validate_rows",
    "zeta_reference",
]
