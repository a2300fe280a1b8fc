"""Independent numeric oracle for the component integrals of h(c).

Everything in hfunc is closed-form Beta algebra; this module re-evaluates
the same eleven components by nested Gauss quadrature over their original
1- to 4-dimensional regions, with the polynomials and the sine kernel
evaluated pointwise.  Agreement between the two routes validates both.

The singular Beta kernels (u - v)**(a-1) are the only non-smooth factors.
All kernel integrals reduce to the unit-interval weight functional
int_0^1 (1-t)**(a-1) phi(t) dt, which Gauss-Jacobi nodes integrate with the
weight built in, so polynomial integrands are exact and entire ones
converge spectrally.

Inner integrals over v in [0, u] are rescaled to v = u*t, which multiplies
the value by u**a; the outer Gauss-Jacobi rules absorb that monomial factor
the same way.  All evaluations are pure and embarrassingly parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .fracpoly import DomainError, FracPoly
from .hfunc import CoeffScheme, HBreakdown, assemble_h

__all__ = [
    "QuadRule",
    "gauss_legendre",
    "beta_kernel_rule",
    "h_value_numeric",
    "dimreduct_check",
    "DEFAULT_ORDER",
]

DEFAULT_ORDER = 48


@dataclass(frozen=True)
class QuadRule:
    """Gauss-Legendre nodes and weights on (-1, 1)."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def gauss_legendre(order: int) -> QuadRule:
    """Standard rule on [-1, 1] (scipy's roots_legendre, symmetric about 0)."""
    if not (2 <= order <= 128):
        raise ValueError("order must lie in [2, 128]")
    nodes, weights = roots_legendre(order)
    return QuadRule(nodes, weights, order)


def _unit_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre mapped to [0, 1]."""
    rule = gauss_legendre(order)
    return (rule.nodes + 1.0) / 2.0, rule.weights / 2.0


def beta_kernel_rule(a: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights (t_i, w_i) with int_0^1 (1-t)**(a-1) phi(t) dt ~ sum w_i phi(t_i)."""
    if a <= 0:
        raise ValueError("a must be positive")
    x, w = roots_jacobi(order, a - 1.0, 0.0)
    return (x + 1.0) / 2.0, w / 2.0**a


def _monomial_rule(gamma: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for int_0^1 x**gamma phi(x) dx with gamma > -1."""
    x, w = roots_jacobi(order, 0.0, gamma)
    return (x + 1.0) / 2.0, w / 2.0 ** (gamma + 1.0)


def h_value_numeric(
    scheme: CoeffScheme, c: float, order: int = DEFAULT_ORDER
) -> HBreakdown:
    """Recompute the full h(c) breakdown by tensor-product nested quadrature.

    Each component is integrated over its original region: the double-P1
    components map v = 1 - u + s*u onto the unit square, every inner Beta
    kernel becomes a unit-interval weight rule at scale u (or s*u), and the
    innermost sine integrals use plain Gauss-Legendre after z = v*zeta.  The
    sine kernel is evaluated with np.sin, not the series, so the route is
    independent of hfunc's term algebra.
    """
    if order < 16:
        raise ValueError("order must be at least 16")
    if not (0.0 < c < 1.0):
        raise DomainError("c must lie strictly between 0 and 1")

    r = scheme.r
    a = r * r
    f1, f1t, big_p = scheme.f1, scheme.f1t, scheme.P
    pi_c = math.pi * c

    def p1v(y):
        return big_p.eval(y) / y

    def p2v(y):
        py = big_p.eval(y)
        return py * py / y

    zeta, w_zeta = _unit_rule(order)  # smooth inner sine direction
    tb, wb = beta_kernel_rule(a, order)  # (1-t)**(a-1) weight
    ua, wua = _monomial_rule(a, order)  # u**a weight
    ub, wub = _monomial_rule(a + 1.0, order)  # u**(a+1) weight
    sa, wsa = _monomial_rule(a, order)  # s**a weight

    def sinc_conv(g: FracPoly, v: np.ndarray) -> np.ndarray:
        # int_0^v sin(pi c z)/z * g(v - z) dz  with z = v*zeta
        vz = v[..., None] * zeta
        return (np.sin(pi_c * vz) / zeta * g.eval(v[..., None] * (1.0 - zeta))) @ w_zeta

    def sinp_conv(g: FracPoly, v: np.ndarray) -> np.ndarray:
        # int_0^v sin(pi c w) P1(w) g(v - w) dw  with w = v*zeta
        vz = v[..., None] * zeta
        inner = (np.sin(pi_c * vz) * p1v(vz) * g.eval(v[..., None] * (1.0 - zeta))) @ w_zeta
        return v * inner

    def one_level(values: np.ndarray) -> float:
        return float(wb @ values)

    def two_level(outer: Callable, inner: Callable) -> float:
        # int_0^1 outer(u) u**a [ int_0^u (u-v)**(a-1) inner(v) dv / u**a ] du
        grid = ua[:, None] * tb[None, :]
        return float(np.sum(wua[:, None] * outer(ua)[:, None] * wb[None, :] * inner(grid)))

    def three_level(inner: Callable) -> float:
        # double-P1 region: v = 1 - u + s*u, inner kernel at scale s*u
        total = 0.0
        for uj, wj in zip(ub, wub):
            grid = uj * sa[:, None] * tb[None, :]
            mid = (wb[None, :] * inner(grid)).sum(axis=1)
            total += wj * p1v(1.0 - uj) * float(np.sum(wsa * p1v(uj * (1.0 - sa)) * mid))
        return total

    pref1 = -2.0 * r / math.pi
    pref3 = -2.0 * r**3 / math.pi
    pref5 = -2.0 * r**5 / math.pi

    d1 = one_level(f1.eval(tb) ** 2)
    d2 = 2.0 * r**2 * two_level(
        lambda u: p1v(1.0 - u), lambda g: f1.eval(g) * f1t.eval(g)
    )
    d31 = r**4 * three_level(lambda g: f1t.eval(g) ** 2)
    d32 = r**2 * two_level(lambda u: p2v(1.0 - u), lambda g: f1t.eval(g) ** 2)

    n1 = pref1 * one_level(f1.eval(tb) * sinc_conv(f1, tb))
    n2 = pref3 * two_level(
        lambda u: p1v(1.0 - u), lambda g: f1t.eval(g) * sinc_conv(f1, g)
    )
    n31 = pref3 * two_level(
        lambda u: p1v(1.0 - u), lambda g: f1.eval(g) * sinc_conv(f1t, g)
    )
    n32 = pref1 * one_level(f1.eval(tb) * sinp_conv(f1t, tb))
    n41 = pref5 * three_level(lambda g: f1t.eval(g) * sinc_conv(f1t, g))
    n42 = pref3 * two_level(
        lambda u: p2v(1.0 - u), lambda g: f1t.eval(g) * sinc_conv(f1t, g)
    )
    n43 = pref3 * two_level(
        lambda u: p1v(1.0 - u), lambda g: f1t.eval(g) * sinp_conv(f1t, g)
    )

    return assemble_h(c, (d1, d2, d31, d32), (n1, n2, n31, n32, n41, n42, n43))


def dimreduct_check(
    m: int,
    a: Sequence[int],
    f: FracPoly,
    d_limit: float,
    order: int = 32,
) -> tuple[float, float]:
    """Numerically verify the nested-integral reduction identity.

    For integers a_1..a_m and a function f of the running product, the
    (m+1)-fold nested integral

      int_1^D log(x1)**(a1-1)/x1 dx1 ... int_1^{D/(x1..xm)} f(x1..xm*x)/x dx

    collapses to the single integral

      prod (a_i - 1)! / (sum a_i)! * int_1^D f(x) log(x)**(sum a_i) / x dx.

    f is supplied as a FracPoly applied to log x.  Both sides are computed
    in log variables by nested Gauss-Legendre and returned as (lhs, rhs).
    """
    a = list(a)
    if m < 1 or len(a) != m:
        raise ValueError("m must be >= 1 and match len(a)")
    if any(int(ai) != ai or ai < 1 for ai in a):
        raise ValueError("entries of a must be positive integers")
    if d_limit <= 1.0:
        raise ValueError("the upper limit must exceed 1")

    big_l = math.log(d_limit)
    z, wz = _unit_rule(order)

    acc = np.zeros(())
    rem = np.full((), big_l)
    weight = np.ones(())
    for ai in a:
        s = rem[..., None] * z
        weight = weight[..., None] * rem[..., None] * wz * s ** (ai - 1)
        acc = acc[..., None] + s
        rem = rem[..., None] - s
    t = rem[..., None] * z
    weight = weight[..., None] * rem[..., None] * wz
    lhs = float(np.sum(weight * f.eval(acc[..., None] + t)))

    total = int(sum(a))
    pref = math.prod(math.factorial(ai - 1) for ai in a) / math.factorial(total)
    s1 = big_l * z
    rhs = pref * float(np.sum(big_l * wz * f.eval(s1) * s1**total))
    return lhs, rhs
