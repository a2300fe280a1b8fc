"""Generalized polynomials with a real power of x, integrated exactly.

A FracPoly is x**s * sum_k c_k x**k: one real shift s >= 0 and a dense
coefficient array.  Every operation below keeps a polynomial's exponents an
integer apart (the gap functional only meets shifts k + m*r**2), and every
integral it needs reduces to one of two Euler Beta identities, applied
termwise over the exponents s + k:

    int_0^u (u - v)**(a-1) * v**b   dv = B(a, b+1)   * u**(a+b)     (beta_convolve)
    int_0^u v**p * (u - v)**q       dv = B(p+1, q+1) * u**(p+q+1)   (convolve)

so the whole evaluation pipeline stays closed-form, and one Beta ladder,
B(x, y+1) = B(x, y) y/(x+y), serves both (_beta_grid).  The pairing
<k, q> = int_0^1 k(1 - u) q(u) du is (k * q)(1), so <p, g * q> = <p * g, q>
for the convolution *, and beta_convolve(a, q) = x**(a-1) * q.  sin(pi*c*v)/v
enters as its alternating series in v**2 (sinc_coeffs), truncated after
SINE_TERMS terms; on [0, 1] the truncation error is bounded by the first
omitted term.

Instances are immutable after construction and every operation is a pure
function, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np
from numpy.polynomial.polynomial import polyval

__all__ = [
    "DomainError",
    "FracPoly",
    "beta_convolve",
    "convolve",
    "integrate_weighted",
    "sinc_coeffs",
    "sinc_truncation_bound",
    "SINE_TERMS",
]

# Terms of the sine series; the first omitted one is 3.8e-39 at c = 1.
SINE_TERMS = 24
_SINE_TAYLOR = np.array([(-1) ** j / math.factorial(2 * j + 1) for j in range(SINE_TERMS)])
_SINE_POWERS = np.arange(1.0, 2.0 * SINE_TERMS, 2.0)


class DomainError(ValueError):
    """An operation was applied outside its mathematical domain."""


@dataclass(frozen=True, eq=False)
class FracPoly:
    """x**shift * (coeffs[0] + coeffs[1]*x + ...), shift >= 0.

    Leading zeros are folded into shift and trailing ones trimmed; the zero
    element is shift 0 with no coefficients.
    """

    shift: float
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).ravel()
        nz = np.flatnonzero(c)
        shift = float(self.shift) + int(nz[0]) if nz.size else 0.0
        if shift < 0:
            raise DomainError("exponents must be nonnegative")
        c = c[nz[0] : nz[-1] + 1] if nz.size else c[:0]
        c.setflags(write=False)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls) -> "FracPoly":
        return cls(0.0, np.empty(0))

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[float]) -> "FracPoly":
        """Build an ordinary polynomial from ascending-degree coefficients."""
        return cls(0.0, np.array(list(coeffs), dtype=float))

    @property
    def exponents(self) -> np.ndarray:
        """The exponent of every stored coefficient, shift + 0, 1, 2, ..."""
        return self.shift + np.arange(self.coeffs.size, dtype=float)

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    @property
    def degree(self) -> float:
        """Largest exponent, or 0.0 for the zero element."""
        return self.shift + self.coeffs.size - 1 if self.coeffs.size else 0.0

    @property
    def terms(self) -> list[tuple[float, float]]:
        """(coefficient, exponent) of every nonzero term, exponents ascending."""
        pairs = zip(self.coeffs, self.exponents)
        return [(float(c), float(e)) for c, e in pairs if c != 0.0]

    def eval(self, x):
        """Evaluate at x >= 0; scalars map to float, arrays to arrays.  0**0 is 1."""
        xs = np.asarray(x, dtype=float)
        if np.any(xs < 0):
            raise DomainError("evaluation requires x >= 0")
        if self.is_zero:
            out = np.zeros_like(xs)
        else:
            out = np.power(xs, self.shift) * polyval(xs, self.coeffs)
        return float(out) if xs.ndim == 0 else out

    def mul(self, other: "FracPoly") -> "FracPoly":
        if self.is_zero or other.is_zero:
            return FracPoly.zero()
        return FracPoly(self.shift + other.shift, np.convolve(self.coeffs, other.coeffs))

    def to_coeffs(self) -> np.ndarray:
        """Dense ascending-degree coefficients, the inverse of from_coeffs.

        The zero element gives [0.0].  Raises DomainError unless the shift
        is an integer.
        """
        if self.is_zero:
            return np.zeros(1)
        if not self.shift.is_integer():
            raise DomainError("expected integer exponents")
        return np.concatenate([np.zeros(int(self.shift)), self.coeffs])


def _beta_grid(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euler Beta B(x_i, y_j) for x = x0 + 0, 1, ... and y = y0 + 0, 1, ..., x0, y0 > 0.

    Rows climb y by cumprods of the ratios y/(x+y) < 1, so nothing overflows where Gamma would:
    from B(x, 1) = 1/x exactly with the lower integer side on y, else from one lgamma.
    """
    if not (x.size and y.size):
        return np.zeros((x.size, y.size))
    x0, y0 = float(x[0]), float(y[0])
    if x0.is_integer() and not (y0.is_integer() and y0 <= x0):
        return _beta_grid(y, x).T
    if y0.is_integer():  # ratios 1/x, 1/(x+1), 2/(x+2), ...
        j = np.arange(y0 + y.size - 1.0)
        return (np.maximum(j, 1.0) / (x[:, None] + j)).cumprod(axis=1)[:, int(y0) - 1 :]
    head = math.exp(math.lgamma(x0) + math.lgamma(y0) - math.lgamma(x0 + y0))
    first = head * np.cumprod(np.concatenate(([1.0], x[:-1] / (x[:-1] + y0))))
    return np.cumprod(np.column_stack((first, y[:-1] / (x[:, None] + y[:-1]))), axis=1)


def beta_convolve(a: float, p: FracPoly) -> FracPoly:
    """Exact u -> int_0^u (u - v)**(a-1) p(v) dv for a > 0.

    Termwise, (c, b) maps to (c * B(a, b+1), a + b).
    """
    if a <= 0:
        raise DomainError("beta kernel exponent a must be positive")
    return FracPoly(p.shift + a, p.coeffs * _beta_grid(np.array([a]), p.exponents + 1.0)[0])


def convolve(p: FracPoly, q: FracPoly) -> FracPoly:
    """Exact finite-interval convolution u -> int_0^u p(v) q(u - v) dv.

    Each anti-diagonal of the termwise Beta matrix is one power of u.
    """
    c = np.multiply.outer(p.coeffs, q.coeffs) * _beta_grid(p.exponents + 1.0, q.exponents + 1.0)
    diag = np.add.outer(np.arange(p.coeffs.size), np.arange(q.coeffs.size))
    return FracPoly(p.shift + q.shift + 1.0, np.bincount(diag.ravel(), weights=c.ravel()))


def integrate_weighted(a: float, p: FracPoly) -> float:
    """int_0^1 (1 - u)**(a-1) p(u) du = sum_i c_i B(a, e_i + 1), a > 0: beta_convolve(a, p)(1)."""
    return float(np.sum(beta_convolve(a, p).coeffs))


def sinc_coeffs(c) -> np.ndarray:
    """s_j(c) = (-1)^j (pi c)^(2j+1) / (2j+1)! for j < SINE_TERMS, c finite and > 0.

    A scalar c gives the SINE_TERMS coefficients, a 1-d array of n values the
    (SINE_TERMS, n) matrix of their columns; each entry is the same as at a scalar c.
    sin(pi c v)/v = sum_j s_j(c) v**(2j) + tail; on [0, 1] the terms alternate and
    decrease once 2j+2 > pi*c, so the tail is below sinc_truncation_bound(c, SINE_TERMS).
    """
    cs = np.asarray(c, dtype=float)
    ok = np.isfinite(cs) & (cs > 0)
    if not ok.all():
        raise DomainError(f"c must be finite and positive, got {float(cs[~ok].flat[0])!r}")
    return _sinc_rows(cs).T


def _sinc_rows(cs: np.ndarray) -> np.ndarray:
    """sinc_coeffs unchecked, coefficients on the last axis: (SINE_TERMS,) or (n, SINE_TERMS)."""
    return _SINE_TAYLOR * np.power.outer(math.pi * cs, _SINE_POWERS)


def sinc_truncation_bound(c: float, n_terms: int) -> float:
    """Magnitude of the first omitted series term, (pi c)^(2n+1) / (2n+1)!, c finite and > 0."""
    if not 0 < c < math.inf:
        raise DomainError(f"c must be finite and positive, got {c!r}")
    if not (isinstance(n_terms, Integral) and not isinstance(n_terms, bool) and n_terms >= 0):
        raise DomainError(f"n_terms must be a nonnegative integer, got {n_terms!r}")
    k = 2 * n_terms + 1
    return math.exp(k * math.log(math.pi * c) - math.lgamma(k + 1))
