"""Closed-form assembly of the gap functional h(c) for a coefficient scheme.

A scheme is the tuple (r, f1, f1t, P): a shape parameter r >= 1 and three
integer-exponent polynomials.  In the long-mollifier limit the quadratic
forms built from the scheme reduce to eleven component integrals, four in
the denominator and seven in the numerator, each a combination of

  * Beta-kernel convolutions  int_0^u (u - v)**(r^2 - 1) g(v) dv,
  * sine convolutions         int_0^u sin(pi c v)/v * g(u - v) dv,
  * plain weighted integrals  int_0^1 (1 - u)**(r^2 - 1) g(u) du,

all evaluated exactly by the FracPoly engine.  The functional is

    h(c) = c - (n1 + n2 + n31 + n32 + n41 + n42 + n43)
               / (d1 + d2 + d31 + d32)

and h(c) > 1 certifies that the liminf of normalized gaps between
consecutive critical-line zeros is at most c.

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

    # Built once per scheme: P1(y) = P(y)/y, P1c(u) = P1(1-u), P2c(u) = P2(1-u).
    @cached_property
    def p1(self) -> FracPoly:
        return FracPoly(self.P.shift - 1.0, self.P.coeffs)

    @cached_property
    def p1c(self) -> FracPoly:
        return self.p1.compose_one_minus()

    @cached_property
    def p2c(self) -> FracPoly:
        return p2_of(self).compose_one_minus()


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
    """The four denominator components (d1, d2, d31, d32).

    With a = r**2, P1c(u) = P1(1-u), P2c(u) = P2(1-u):

      d1  =        int_0^1 (1-u)**(a-1) f1(u)**2 du
      d2  = 2 r^2  int_0^1 P1c(u) * [int_0^u (u-v)**(a-1) f1(v) f1t(v) dv] du
      d31 =   r^4  int_0^1 P1c(u) * [int_0^u P1(u-t) F(t) dt] du
      d32 =   r^2  int_0^1 P2c(u) * F(u) du

    where F = beta_convolve(a, f1t**2).  d31 is the double-P1 region integral
    after the substitution t = u + v - 1, which turns it into two nested
    convolutions and keeps the computation exact.
    """
    r = scheme.r
    a = r * r
    f1, f1t = scheme.f1, scheme.f1t
    p1, p1c, p2c = scheme.p1, scheme.p1c, scheme.p2c

    d1 = integrate_weighted(a, f1.mul(f1))
    d2 = 2.0 * r**2 * integrate_weighted(1.0, p1c.mul(beta_convolve(a, f1.mul(f1t))))
    big_f = beta_convolve(a, f1t.mul(f1t))
    d31 = r**4 * integrate_weighted(1.0, p1c.mul(convolve(p1, big_f)))
    d32 = r**2 * integrate_weighted(1.0, p2c.mul(big_f))
    return d1, d2, d31, d32


def numerator_terms(
    scheme: CoeffScheme, c: float, n_sinc_terms: int = 24
) -> tuple[float, float, float, float, float, float, float]:
    """The seven numerator components (n1, n2, n31, n32, n41, n42, n43).

    With a = r**2, S the sinc series sin(pi c v)/v, s = v*S, and
    conv(g, q)(u) = int_0^u g(v) q(u-v) dv:

      n1  = -(2r/pi)   int_0^1 (1-u)**(a-1) f1(u) * conv(S, f1)(u) du
      n2  = -(2r^3/pi) int_0^1 P1c(u) * BC(f1t * conv(S, f1))(u) du
      n31 = -(2r^3/pi) int_0^1 P1c(u) * BC(f1 * conv(S, f1t))(u) du
      n32 = -(2r/pi)   int_0^1 (1-u)**(a-1) f1(u) * conv(s*P1, f1t)(u) du
      n41 = -(2r^5/pi) int_0^1 P1c(u) * conv(P1, G)(u) du
      n42 = -(2r^3/pi) int_0^1 P2c(u) * G(u) du
      n43 = -(2r^3/pi) int_0^1 P1c(u) * BC(f1t * conv(s*P1, f1t))(u) du

    where BC = beta_convolve(a, .) and G = BC(f1t * conv(S, f1t)).  n41 uses
    the same t = u + v - 1 substitution as d31.

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

    r = scheme.r
    a = r * r
    f1, f1t = scheme.f1, scheme.f1t
    p1, p1c, p2c = scheme.p1, scheme.p1c, scheme.p2c

    sinc = sinc_series(c, n_sinc_terms)
    sin_p1 = sin_series(c, n_sinc_terms).mul(p1)
    conv_s_f1 = convolve(sinc, f1)
    conv_s_f1t = convolve(sinc, f1t)

    pref1 = -2.0 * r / math.pi
    pref3 = -2.0 * r**3 / math.pi
    pref5 = -2.0 * r**5 / math.pi

    n1 = pref1 * integrate_weighted(a, f1.mul(conv_s_f1))
    n2 = pref3 * integrate_weighted(1.0, p1c.mul(beta_convolve(a, f1t.mul(conv_s_f1))))
    n31 = pref3 * integrate_weighted(1.0, p1c.mul(beta_convolve(a, f1.mul(conv_s_f1t))))
    n32 = pref1 * integrate_weighted(a, f1.mul(convolve(sin_p1, f1t)))
    big_g = beta_convolve(a, f1t.mul(conv_s_f1t))
    n41 = pref5 * integrate_weighted(1.0, p1c.mul(convolve(p1, big_g)))
    n42 = pref3 * integrate_weighted(1.0, p2c.mul(big_g))
    n43 = pref3 * integrate_weighted(
        1.0, p1c.mul(beta_convolve(a, f1t.mul(convolve(sin_p1, f1t))))
    )
    return n1, n2, n31, n32, n41, n42, n43


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
