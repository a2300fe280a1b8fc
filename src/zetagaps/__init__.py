"""Evaluation and optimization of the Montgomery-Odlyzko gap functional h(c).

The package computes h(c) for mollifier-style coefficient schemes three
independent ways (exact Beta-integral algebra, nested Gauss quadrature, and
brute-force arithmetic sums over the integers), and searches scheme space
for the smallest c with h(c) > 1, which certifies an upper bound on the
liminf of normalized gaps between consecutive zeros of the Riemann
zeta-function on the critical line.
"""

from .fracpoly import (
    DomainError,
    FracPoly,
    beta_convolve,
    convolve,
    integrate_weighted,
    make,
    sinc_coeffs,
)
from .hfunc import (
    CoeffScheme,
    DegenerateSchemeError,
    HBreakdown,
    denominator_terms,
    h_grid,
    h_value,
    numerator_terms,
)
from .presets import PRESETS, Preset, get_preset, preset_names
from .quadcheck import dimreduct_check, gauss_legendre, h_value_numeric
from .sieve import (
    SieveTable,
    build_tables,
    coeffs_ak,
    dr_mean_square_trend,
    finite_h,
    mertens_deficit,
)
from .optimizer import (
    OptimizeConfig,
    OptimizeReport,
    bracket_scan,
    nelder_mead,
    optimize_scheme,
    threshold_c,
    verify_table,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "FracPoly",
    "make",
    "beta_convolve",
    "convolve",
    "integrate_weighted",
    "sinc_coeffs",
    "CoeffScheme",
    "HBreakdown",
    "DegenerateSchemeError",
    "denominator_terms",
    "numerator_terms",
    "h_value",
    "h_grid",
    "gauss_legendre",
    "h_value_numeric",
    "dimreduct_check",
    "SieveTable",
    "build_tables",
    "coeffs_ak",
    "finite_h",
    "mertens_deficit",
    "dr_mean_square_trend",
    "OptimizeConfig",
    "OptimizeReport",
    "bracket_scan",
    "threshold_c",
    "nelder_mead",
    "optimize_scheme",
    "verify_table",
    "Preset",
    "PRESETS",
    "preset_names",
    "get_preset",
]
