"""Generalized polynomials with nonnegative real exponents, integrated exactly.

A FracPoly is a finite sum  sum_i c_i * x**e_i  with real coefficients and
real exponents e_i >= 0.  Every integral needed by the gap functional reduces
to one of two Euler Beta identities, applied termwise:

    int_0^u (u - v)**(a-1) * v**b   dv = B(a, b+1)   * u**(a+b)     (beta_convolve)
    int_0^u v**p * (u - v)**q       dv = B(p+1, q+1) * u**(p+q+1)   (convolve)
    int_0^1 (1 - u)**(a-1) * u**e   du = B(a, e+1)                  (integrate_weighted)

so the whole evaluation pipeline stays closed-form.  The sine kernels
sin(pi*c*v)/v and sin(pi*c*v) enter as truncated alternating power series,
which keeps them inside the same representation; on [0, 1] the truncation
error is bounded by the first omitted term.

Instances are immutable after construction and every operation is a pure
function, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.special import gammaln

__all__ = [
    "DomainError",
    "FracPoly",
    "make",
    "beta_convolve",
    "convolve",
    "integrate_weighted",
    "sinc_series",
    "sin_series",
    "sinc_truncation_bound",
]

# Exponents closer than this are treated as the same power of x.  In this
# application every exponent is either an integer or an integer plus r**2,
# built by exact arithmetic, so the tolerance only absorbs float noise.
MERGE_TOL = 1e-9


class DomainError(ValueError):
    """An operation was applied outside its mathematical domain."""


def _normalized(coeffs, exponents) -> tuple[np.ndarray, np.ndarray]:
    """Sort by exponent, merge near-equal exponents, drop zero coefficients."""
    c = np.asarray(coeffs, dtype=float).ravel()
    e = np.asarray(exponents, dtype=float).ravel()
    if c.size != e.size:
        raise ValueError("coefficient and exponent arrays must align")
    if c.size == 0:
        return np.empty(0), np.empty(0)
    if np.any(e < 0):
        raise DomainError("exponents must be nonnegative")
    order = np.argsort(e, kind="stable")
    c, e = c[order], e[order]
    starts = np.flatnonzero(np.concatenate(([True], np.diff(e) >= MERGE_TOL)))
    c = np.add.reduceat(c, starts)
    e = e[starts]
    keep = c != 0.0
    return np.ascontiguousarray(c[keep]), np.ascontiguousarray(e[keep])


@dataclass(frozen=True, eq=False)
class FracPoly:
    """Normalized term list: coeffs[i] * x**exponents[i], exponents ascending."""

    coeffs: np.ndarray
    exponents: np.ndarray

    def __post_init__(self):
        self.coeffs.setflags(write=False)
        self.exponents.setflags(write=False)

    @classmethod
    def zero(cls) -> "FracPoly":
        return cls(np.empty(0), np.empty(0))

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[float]) -> "FracPoly":
        """Build an ordinary polynomial from ascending-degree coefficients."""
        c = np.asarray(list(coeffs), dtype=float)
        return cls(*_normalized(c, np.arange(c.size, dtype=float)))

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    @property
    def degree(self) -> float:
        """Largest exponent, or 0.0 for the zero element."""
        return float(self.exponents[-1]) if self.coeffs.size else 0.0

    @property
    def terms(self) -> list[tuple[float, float]]:
        return [(float(c), float(e)) for c, e in zip(self.coeffs, self.exponents)]

    def eval(self, x):
        """Evaluate at x >= 0; scalars map to float, arrays to arrays.  0**0 is 1."""
        xs = np.asarray(x, dtype=float)
        if np.any(xs < 0):
            raise DomainError("evaluation requires x >= 0")
        if self.coeffs.size == 0:
            out = np.zeros_like(xs)
        else:
            out = np.power(xs[..., None], self.exponents) @ self.coeffs
        if xs.ndim == 0:
            return float(out)
        return out

    def add(self, other: "FracPoly") -> "FracPoly":
        return FracPoly(
            *_normalized(
                np.concatenate([self.coeffs, other.coeffs]),
                np.concatenate([self.exponents, other.exponents]),
            )
        )

    def scale(self, s: float) -> "FracPoly":
        return FracPoly(*_normalized(self.coeffs * float(s), self.exponents))

    def mul(self, other: "FracPoly") -> "FracPoly":
        if self.coeffs.size == 0 or other.coeffs.size == 0:
            return FracPoly.zero()
        c = np.multiply.outer(self.coeffs, other.coeffs).ravel()
        e = np.add.outer(self.exponents, other.exponents).ravel()
        return FracPoly(*_normalized(c, e))

    def compose_one_minus(self) -> "FracPoly":
        """Return x -> self(1 - x), expanded by the binomial theorem.

        Only defined for integer exponents; fractional binomials would not
        terminate.
        """
        dense = self.to_coeffs()
        out = np.zeros(dense.size)
        for n, coeff in enumerate(dense):
            for k in range(n + 1):
                out[k] += coeff * math.comb(n, k) * (-1) ** k
        return FracPoly.from_coeffs(out)

    def to_coeffs(self) -> np.ndarray:
        """Dense ascending-degree coefficients, the inverse of from_coeffs.

        The zero element gives [0.0].  Raises DomainError unless every
        exponent is an integer to within MERGE_TOL.
        """
        if self.coeffs.size == 0:
            return np.zeros(1)
        degs = np.rint(self.exponents)
        if np.any(np.abs(self.exponents - degs) > MERGE_TOL):
            raise DomainError("expected integer exponents")
        return np.bincount(degs.astype(int), weights=self.coeffs)

    def __repr__(self):
        if self.coeffs.size == 0:
            return "FracPoly(0)"
        body = " + ".join(f"{c:g}*x^{e:g}" for c, e in self.terms)
        return f"FracPoly({body})"


def make(terms: Iterable[tuple[float, float]]) -> FracPoly:
    """Build a FracPoly from (coefficient, exponent) pairs and normalize it."""
    pairs = list(terms)
    if not pairs:
        return FracPoly.zero()
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected a sequence of (coefficient, exponent) pairs")
    return FracPoly(*_normalized(arr[:, 0], arr[:, 1]))


def _beta(a: float, b) -> np.ndarray:
    """Euler Beta B(a, b) via log-Gamma, vectorized in b.

    a == 1 or b == 1 short-circuit to the exact reciprocals so that plain
    integrals come out termwise exact.
    """
    b = np.asarray(b, dtype=float)
    if a == 1.0:
        return 1.0 / b
    out = np.exp(gammaln(a) + gammaln(b) - gammaln(a + b))
    ones = b == 1.0
    if np.any(ones):
        out = np.where(ones, 1.0 / a, out)
    return out


def beta_convolve(a: float, p: FracPoly) -> FracPoly:
    """Exact u -> int_0^u (u - v)**(a-1) p(v) dv for a > 0.

    Termwise, (c, b) maps to (c * B(a, b+1), a + b).
    """
    if a <= 0:
        raise DomainError("beta kernel exponent a must be positive")
    if p.coeffs.size == 0:
        return p
    return FracPoly(
        *_normalized(p.coeffs * _beta(a, p.exponents + 1.0), p.exponents + a)
    )


def convolve(p: FracPoly, q: FracPoly) -> FracPoly:
    """Exact finite-interval convolution u -> int_0^u p(v) q(u - v) dv."""
    if p.coeffs.size == 0 or q.coeffs.size == 0:
        return FracPoly.zero()
    bp, bq = p.exponents, q.exponents
    c = np.multiply.outer(p.coeffs, q.coeffs)
    logb = (
        gammaln(bp + 1.0)[:, None]
        + gammaln(bq + 1.0)[None, :]
        - gammaln(bp[:, None] + bq[None, :] + 2.0)
    )
    e = np.add.outer(bp, bq) + 1.0
    return FracPoly(*_normalized((c * np.exp(logb)).ravel(), e.ravel()))


def integrate_weighted(a: float, p: FracPoly) -> float:
    """int_0^1 (1 - u)**(a-1) p(u) du = sum_i c_i * B(a, e_i + 1), a > 0.

    a == 1 is the plain integral, computed termwise as c_i / (e_i + 1).
    """
    if a <= 0:
        raise DomainError("weight exponent a must be positive")
    if p.coeffs.size == 0:
        return 0.0
    if a == 1.0:
        return float(np.sum(p.coeffs / (p.exponents + 1.0)))
    return float(np.sum(p.coeffs * _beta(a, p.exponents + 1.0)))


def sinc_series(c: float, n_terms: int = 24) -> FracPoly:
    """Truncated series of sin(pi*c*v)/v: sum_j (-1)^j (pi c)^(2j+1) v^(2j) / (2j+1)!.

    The series alternates with decreasing terms on [0, 1] once 2j+2 > pi*c,
    so the truncation error there is bounded by the first omitted term; see
    sinc_truncation_bound.
    """
    if n_terms < 1:
        raise DomainError("n_terms must be at least 1")
    if c <= 0:
        raise DomainError("c must be positive")
    x = math.pi * c
    coeffs = np.empty(n_terms)
    term = x
    for j in range(n_terms):
        coeffs[j] = term
        term *= -(x * x) / ((2 * j + 2) * (2 * j + 3))
    return FracPoly(coeffs, np.arange(0, 2 * n_terms, 2, dtype=float))


def sin_series(c: float, n_terms: int = 24) -> FracPoly:
    """Truncated series of sin(pi*c*v); equals v times sinc_series(c, n_terms)."""
    base = sinc_series(c, n_terms)
    return FracPoly(base.coeffs.copy(), base.exponents + 1.0)


def sinc_truncation_bound(c: float, n_terms: int) -> float:
    """Magnitude of the first omitted series term, (pi c)^(2n+1) / (2n+1)!."""
    x = math.pi * c
    k = 2 * n_terms + 1
    return math.exp(k * math.log(x) - math.lgamma(k + 1))
