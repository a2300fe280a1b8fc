"""Closed-form assembly of the gap functional h(c) for a coefficient scheme.

A scheme is the tuple (r, f1, f1t, P): a shape parameter r >= 1 and three
integer-exponent polynomials.  In the long-mollifier limit the quadratic
forms built from the scheme reduce to eleven component integrals, four in
the denominator and seven in the numerator.  The functional is

    h(c) = c - (n1 + n2 + n31 + n32 + n41 + n42 + n43)
               / (d1 + d2 + d31 + d32)

and h(c) > 1 certifies that the liminf of normalized gaps between
consecutive critical-line zeros is at most c.

Every component is one pairing <K, q> = int_0^1 K(1-u) q(u) du (fracpoly's
pair) of one of four kernels with a product q of f1, f1t and their sine
convolutions.  With a = r**2, P1 = P(y)/y, P2 = P(y)**2/y, * the convolution
on [0, u] and BC(g) = x**(a-1) * g, the kernels depend only on (r, P):

    K1 = x**(a-1)          K3 = r^4 P1 * BC(P1)
    K2 = r^2 BC(P1)        K4 = r^2 BC(P2)

K1 is integrate_weighted(a, .); CoeffScheme.kernels builds K2-K4 once per
scheme.  <p, g * q> = <p * g, q> moves every P-weight and Beta kernel of the
paper's nested integrals onto the kernel, so nothing is reflected u -> 1 - u.

Every component is normalized by the common prefactor A_r * r^2 * (log T)^(r^2)
shared by all eleven integrals, which removes the (otherwise unspecified)
constant A_r from the ratio entirely.

All functions here are pure and all inputs immutable, so concurrent
evaluation needs no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

from .fracpoly import (
    DomainError,
    FracPoly,
    beta_convolve,
    convolve,
    integrate_weighted,
    pair,
    sin_series,
    sinc_series,
    sinc_truncation_bound,
)

__all__ = [
    "DegenerateSchemeError",
    "CoeffScheme",
    "HBreakdown",
    "p1_of",
    "p2_of",
    "denominator_terms",
    "numerator_terms",
    "assemble_h",
    "h_value",
]

# Denominators smaller than this mean the scheme carries no usable mass.
DENOMINATOR_FLOOR = 1e-12


class DegenerateSchemeError(ArithmeticError):
    """The scheme's denominator quadratic form is numerically zero."""


@dataclass(frozen=True)
class CoeffScheme:
    """Coefficient scheme (r, f1, f1t, P) defining the mollified weights.

    Invariants enforced at construction: r >= 1, all three polynomials have
    integer exponents, and P has no constant term (so P(y)/y is again a
    polynomial).
    """

    r: float
    f1: FracPoly
    f1t: FracPoly
    P: FracPoly

    def __post_init__(self):
        if not (self.r >= 1.0):
            raise ValueError("r must be >= 1")
        for name in ("f1", "f1t", "P"):
            try:
                getattr(self, name).to_coeffs()
            except DomainError as exc:
                raise ValueError(f"{name} must have integer exponents") from exc
        if self.P.to_coeffs()[0] != 0.0:
            raise ValueError("P must vanish at 0 (no constant term)")

    # Built once per scheme: P1(y) = P(y)/y and the kernels K2, K3, K4.
    @cached_property
    def p1(self) -> FracPoly:
        return FracPoly(self.P.shift - 1.0, self.P.coeffs)

    @cached_property
    def kernels(self) -> tuple[FracPoly, FracPoly, FracPoly]:
        """(K2, K3, K4) = (r^2 BC(P1), r^4 P1 * BC(P1), r^2 BC(P2)); see the module docs."""
        a = self.r * self.r
        bc_p1 = beta_convolve(a, self.p1)
        k3 = convolve(self.p1, bc_p1).scale(self.r**4)
        return bc_p1.scale(self.r**2), k3, beta_convolve(a, p2_of(self)).scale(self.r**2)


@dataclass(frozen=True)
class HBreakdown:
    """The eleven normalized components of h(c) plus the assembled value."""

    c: float
    d1: float
    d2: float
    d31: float
    d32: float
    n1: float
    n2: float
    n31: float
    n32: float
    n41: float
    n42: float
    n43: float
    h: float

    @property
    def denominator(self) -> float:
        return self.d1 + self.d2 + self.d31 + self.d32

    @property
    def numerator(self) -> float:
        return self.n1 + self.n2 + self.n31 + self.n32 + self.n41 + self.n42 + self.n43

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def p1_of(scheme: CoeffScheme) -> FracPoly:
    """P1(y) = P(y) / y."""
    return scheme.p1


def p2_of(scheme: CoeffScheme) -> FracPoly:
    """P2(y) = P(y)**2 / y."""
    return scheme.p1.mul(scheme.P)


def denominator_terms(scheme: CoeffScheme) -> tuple[float, float, float, float]:
    """The four denominator components, each a pairing with a kernel (module docs):

      d1  = <K1, f1 f1>      d31 = <K3, f1t f1t>
      d2  = 2 <K2, f1 f1t>   d32 = <K4, f1t f1t>
    """
    f1, f1t = scheme.f1, scheme.f1t
    k2, k3, k4 = scheme.kernels
    f1t_sq = f1t.mul(f1t)
    return (
        integrate_weighted(scheme.r * scheme.r, f1.mul(f1)),
        2.0 * pair(k2, f1.mul(f1t)),
        pair(k3, f1t_sq),
        pair(k4, f1t_sq),
    )


def numerator_terms(
    scheme: CoeffScheme, c: float, n_sinc_terms: int = 24
) -> tuple[float, float, float, float, float, float, float]:
    """The seven numerator components (n1, n2, n31, n32, n41, n42, n43).

    With kappa = -2r/pi, S the sinc series of sin(pi c v)/v, s = v*S and the
    kernels of the module docs:

      n1  = kappa <K1, f1 (S * f1)>       n41 = kappa <K3, f1t (S * f1t)>
      n2  = kappa <K2, f1t (S * f1)>      n42 = kappa <K4, f1t (S * f1t)>
      n31 = kappa <K2, f1 (S * f1t)>      n43 = kappa <K2, f1t (s P1 * f1t)>
      n32 = kappa <K1, f1 (s P1 * f1t)>

    c must lie strictly inside (0, 1); there the default 24-term sine series
    is certified to better than 1e-18 on [0, 1].  A shorter series that
    misses this budget raises DomainError.
    """
    if not (0.0 < c < 1.0):
        raise DomainError("c must lie strictly between 0 and 1")
    bound = sinc_truncation_bound(c, n_sinc_terms)
    if not bound < 1e-18:
        raise DomainError(
            f"{n_sinc_terms} sine-series terms leave a truncation error of {bound:.1e} "
            "at this c, above the 1e-18 budget"
        )

    a = scheme.r * scheme.r
    f1, f1t = scheme.f1, scheme.f1t
    k2, k3, k4 = scheme.kernels
    sinc = sinc_series(c, n_sinc_terms)
    conv_s_f1 = convolve(sinc, f1)
    conv_s_f1t = convolve(sinc, f1t)
    conv_sp1_f1t = convolve(sin_series(c, n_sinc_terms).mul(scheme.p1), f1t)
    g = f1t.mul(conv_s_f1t)

    kappa = -2.0 * scheme.r / math.pi
    return (
        kappa * integrate_weighted(a, f1.mul(conv_s_f1)),
        kappa * pair(k2, f1t.mul(conv_s_f1)),
        kappa * pair(k2, f1.mul(conv_s_f1t)),
        kappa * integrate_weighted(a, f1.mul(conv_sp1_f1t)),
        kappa * pair(k3, g),
        kappa * pair(k4, g),
        kappa * pair(k2, f1t.mul(conv_sp1_f1t)),
    )


def assemble_h(c: float, den_terms, num_terms) -> HBreakdown:
    """HBreakdown and h(c) = c - numerator/denominator from the eleven components.

    den_terms is (d1, d2, d31, d32) and num_terms (n1, n2, n31, n32, n41,
    n42, n43).  Raises DegenerateSchemeError when the denominator sum is
    below DENOMINATOR_FLOOR in magnitude.
    """
    den = sum(den_terms)
    if abs(den) <= DENOMINATOR_FLOOR:
        raise DegenerateSchemeError(
            f"denominator {den:.3e} is below the floor {DENOMINATOR_FLOOR:.0e}"
        )
    return HBreakdown(c, *den_terms, *num_terms, h=c - sum(num_terms) / den)


def h_value(scheme: CoeffScheme, c: float) -> HBreakdown:
    """Full component breakdown and h(c) = c - numerator/denominator (see assemble_h)."""
    return assemble_h(c, denominator_terms(scheme), numerator_terms(scheme, c))
