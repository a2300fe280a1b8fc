"""Generalized polynomials with a real power of x, integrated exactly.

A FracPoly is x**s * sum_k c_k x**k: one real shift s >= 0 and a dense
coefficient array.  Every operation below keeps a polynomial's exponents an
integer apart (the gap functional only meets shifts k + m*r**2), and every
integral it needs reduces to one of three Euler Beta identities, applied
termwise over the exponents s + k:

    int_0^u (u - v)**(a-1) * v**b   dv = B(a, b+1)   * u**(a+b)     (beta_convolve)
    int_0^u v**p * (u - v)**q       dv = B(p+1, q+1) * u**(p+q+1)   (convolve)
    int_0^1 (1 - u)**p * u**q       du = B(p+1, q+1)                (moments)

so the whole evaluation pipeline stays closed-form.  The pairing <k, q> =
int_0^1 k(1 - u) q(u) du is (k * q)(1), so <p, g * q> = <p * g, q> for the
convolution *, beta_convolve(a, q) = x**(a-1) * q, and
<k, q> = moments(k, q.exponents) @ q.coeffs.  The sine kernel sin(pi*c*v)/v
enters as its alternating power series, truncated after SINE_TERMS terms;
on [0, 1] the truncation error is bounded by the first omitted term.

Instances are immutable after construction and every operation is a pure
function, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.special import gammaln

__all__ = [
    "DomainError",
    "FracPoly",
    "make",
    "beta_convolve",
    "convolve",
    "integrate_weighted",
    "moments",
    "sinc_series",
    "sinc_truncation_bound",
    "SINE_TERMS",
]

# make() accepts exponents whose differences are within this of integers.
# In this application every polynomial is one power of x (0, r**2, ...)
# times an ordinary polynomial, so the tolerance only absorbs input noise.
MERGE_TOL = 1e-9

# Terms of the sine series; the first omitted one is 3.8e-39 at c = 1.
SINE_TERMS = 24


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

    def scale(self, s: float) -> "FracPoly":
        return FracPoly(self.shift, self.coeffs * float(s))

    def mul(self, other: "FracPoly") -> "FracPoly":
        if self.is_zero or other.is_zero:
            return FracPoly.zero()
        return FracPoly(self.shift + other.shift, np.convolve(self.coeffs, other.coeffs))

    def compose_one_minus(self) -> "FracPoly":
        """Return x -> self(1 - x), expanded by the binomial theorem.

        Only defined for integer exponents; fractional binomials would not
        terminate.  h never reflects (see moments); tests use this as a reference.
        """
        dense = self.to_coeffs()
        out = np.zeros(dense.size)
        for n, coeff in enumerate(dense):
            for k in range(n + 1):
                out[k] += coeff * math.comb(n, k) * (-1) ** k
        return FracPoly.from_coeffs(out)

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


def make(terms: Iterable[tuple[float, float]]) -> FracPoly:
    """Build a FracPoly from (coefficient, exponent) pairs, summing repeats.

    Raises DomainError for a negative exponent, or for exponents that do not
    differ by integers (to within MERGE_TOL).
    """
    pairs = list(terms)
    if not pairs:
        return FracPoly.zero()
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected a sequence of (coefficient, exponent) pairs")
    coeffs, exps = arr[:, 0], arr[:, 1]
    shift = exps.min()
    if shift < 0:
        raise DomainError("exponents must be nonnegative")
    offsets = np.rint(exps - shift)
    if np.any(np.abs(exps - shift - offsets) > MERGE_TOL):
        raise DomainError("exponents must differ from each other by integers")
    return FracPoly(shift, np.bincount(offsets.astype(int), weights=coeffs))


def _beta(a: float, b) -> np.ndarray:
    """Euler Beta B(a, b) via log-Gamma, vectorized in b.

    a == 1 or b == 1 short-circuit to the exact reciprocals so that plain
    integrals come out termwise exact.
    """
    b = np.asarray(b, dtype=float)
    if a == 1.0:
        return 1.0 / b
    return np.where(b == 1.0, 1.0 / a, np.exp(gammaln(a) + gammaln(b) - gammaln(a + b)))


def beta_convolve(a: float, p: FracPoly) -> FracPoly:
    """Exact u -> int_0^u (u - v)**(a-1) p(v) dv for a > 0.

    Termwise, (c, b) maps to (c * B(a, b+1), a + b).
    """
    if a <= 0:
        raise DomainError("beta kernel exponent a must be positive")
    return FracPoly(p.shift + a, p.coeffs * _beta(a, p.exponents + 1.0))


def _beta_matrix(bp: np.ndarray, bq: np.ndarray) -> np.ndarray:
    """B(bp_i + 1, bq_j + 1) for all i, j, via log-Gamma (Gamma overflows past 171)."""
    lg_sum = gammaln(bp[:, None] + bq[None, :] + 2.0)
    return np.exp(gammaln(bp + 1.0)[:, None] + gammaln(bq + 1.0)[None, :] - lg_sum)


def convolve(p: FracPoly, q: FracPoly) -> FracPoly:
    """Exact finite-interval convolution u -> int_0^u p(v) q(u - v) dv.

    Each anti-diagonal of the termwise Beta matrix is one power of u.
    """
    c = np.multiply.outer(p.coeffs, q.coeffs) * _beta_matrix(p.exponents, q.exponents)
    diag = np.add.outer(np.arange(p.coeffs.size), np.arange(q.coeffs.size))
    return FracPoly(p.shift + q.shift + 1.0, np.bincount(diag.ravel(), weights=c.ravel()))


def moments(k: FracPoly, exponents) -> np.ndarray:
    """<k, x**e> = int_0^1 k(1 - u) u**e du = sum_i k_i B(e_i + 1, e + 1) for each e.

    <k, q> = moments(k, q.exponents) @ q.coeffs, without building k * q.
    """
    return k.coeffs @ _beta_matrix(k.exponents, np.asarray(exponents, dtype=float))


def integrate_weighted(a: float, p: FracPoly) -> float:
    """int_0^1 (1 - u)**(a-1) p(u) du = sum_i c_i * B(a, e_i + 1), a > 0.

    a == 1 is the plain integral, computed termwise as c_i / (e_i + 1).
    """
    if a <= 0:
        raise DomainError("weight exponent a must be positive")
    if a == 1.0:
        return float(np.sum(p.coeffs / (p.exponents + 1.0)))
    return float(np.sum(p.coeffs * _beta(a, p.exponents + 1.0)))


def sinc_series(c: float, n_terms: int = SINE_TERMS) -> FracPoly:
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
    coeffs = np.zeros(2 * n_terms - 1)
    term = x
    for j in range(n_terms):
        coeffs[2 * j] = term
        term *= -(x * x) / ((2 * j + 2) * (2 * j + 3))
    return FracPoly(0.0, coeffs)


def sinc_truncation_bound(c: float, n_terms: int) -> float:
    """Magnitude of the first omitted series term, (pi c)^(2n+1) / (2n+1)!."""
    x = math.pi * c
    k = 2 * n_terms + 1
    return math.exp(k * math.log(x) - math.lgamma(k + 1))
