"""Independent numeric oracle for the component integrals of h(c).

Everything in hfunc is closed-form Beta algebra; this module re-evaluates
the same eleven components by nested Gauss quadrature, with the polynomials
and sin(pi c z) evaluated pointwise.  Agreement between the two routes
validates both.

h_value_numeric sums rows (kernel, scale, f, inner), each worth
scale * <K, f * inner> with <K, q> = int_0^1 K(1-u) q(u) du.  inner is g
for the denominator, else one of three sine convolutions:

    inner(x) = int_0^x sin(pi c z)/z * h(z) * g(x - z) dz,    (h, g) = (1, f1), (1, f1t), (P, f1t).

Only the sine depends on c, so the work splits in two.  A compile, once per
(scheme, order) and kept for the last pair (_compiled), builds the kernel
rules, the four denominator components, the c-free sample weights of each
convolution at the kernel nodes that read it and, for each of the seven
numerator rows, one vector L = kappa (w f)(nodes).  A call at c then takes
the sine at the sample points, five weighted sums and seven dot products.

With a = r**2, P1 = P(y)/y and BC(g)(y) = int_0^y (y-v)**(a-1) g(v) dv
= y**a int_0^1 (1-t)**(a-1) g(yt) dt the Beta-kernel convolution, the kernels
are K1(y) = y**(a-1), K2 = r^2 BC(P1), K3 = r^4 P1 * BC(P1) on the paper's
double-P1 region, which equals r^4 BC(P1 * P1) as convolution commutes and
associates, and K4 = r^2 BC(P1 P).  So K2-K4 are y**a times the polynomials

    Pi_2(y) = a   int_0^1 (1-t)**(a-1) P1(yt) dt,
    Pi_3(y) = a^2 int_0^1 (1-t)**(a-1) (P1 * P1)(yt) dt,
    Pi_4(y) = a   int_0^1 (1-t)**(a-1) (P1 P)(yt) dt,

and each kernel is one one-dimensional Gauss-Jacobi rule (x, w) of `order`
nodes, <K, phi> ~ w @ phi(x): K1 on the weight (1-t)**(a-1), and K2-K4 on one
rule for (1-x)**a = y**a whose weights carry Pi_K(1-x).  The compile sums each
Pi_K by the t rule at the order**2 points y_i t_j, and (P1 * P1)(w) =
w int_0^1 P1(ws) P1(w(1-s)) ds by Gauss-Legendre with max(2, deg P) nodes,
exact as the integrand has degree 2 deg P1 in s.  Jacobi weights absorb the
singular factors (1-t)**(a-1) and y**a, so polynomial integrands are exact and
entire ones converge spectrally.  The convolutions are entire too: each is
summed at the nodes that read it by Gauss-Legendre in z = x*zeta,
sum_k H_k sin(pi c z_k) with H_k = w_zeta/zeta h(z_k) g(x - z_k), in five
(node array, convolution) pairs t (1, f1), t (P, f1t), x (1, f1), x (1, f1t)
and x (P, f1t).

Every rule comes from numpy: Gauss-Legendre from leggauss, built once per order
per process and kept read-only (gauss_legendre hands out copies), each
Gauss-Jacobi rule by Golub-Welsch (the eigenvalues of the Jacobi matrix), so
the oracle loads no scipy.
"""

from __future__ import annotations

import math
from functools import lru_cache
from numbers import Integral
from typing import Sequence

import numpy as np

from .fracpoly import DomainError, FracPoly
from .hfunc import CoeffScheme, HBreakdown, assemble_h

__all__ = [
    "gauss_legendre",
    "beta_kernel_rule",
    "h_value_numeric",
    "dimreduct_check",
    "DEFAULT_ORDER",
]

DEFAULT_ORDER = 48


def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights of the standard rule on [-1, 1] (numpy's leggauss, symmetric about 0),
    as arrays the caller owns."""
    _check_order(order)
    nodes, weights = _legendre(int(order))
    return nodes.copy(), weights.copy()


def _check_order(order, lowest: int = 2) -> None:
    """Raise ValueError naming order unless it is an int (not a bool) in [lowest, 128]."""
    if isinstance(order, bool) or not isinstance(order, Integral) or not lowest <= order <= 128:
        raise ValueError(f"order must be an integer in [{lowest}, 128], got {order!r}")


@lru_cache(maxsize=127)  # one entry per valid order, 2..128
def _legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """leggauss(order), built once per order per process; both arrays are read-only."""
    rule = np.polynomial.legendre.leggauss(order)
    for array in rule:
        array.flags.writeable = False
    return rule


def _unit_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre mapped to [0, 1]."""
    _check_order(order)
    nodes, weights = _legendre(int(order))
    return (nodes + 1.0) / 2.0, weights / 2.0


def _jacobi_rule(alpha: float, beta: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for int_0^1 (1-x)**alpha x**beta phi(x) dx with finite alpha, beta > -1.

    Golub-Welsch: with the monic Jacobi recurrence x p_n = p_(n+1) + a_n p_n + b_n p_(n-1)
    on [-1, 1], the nodes are the eigenvalues of the symmetric tridiagonal matrix with
    diagonal a_n and off-diagonal sqrt(b_n), mapped to [0, 1], and the weights are
    B(alpha+1, beta+1) times the squared first components of the eigenvectors; on a
    one-sided rule (alpha or beta 0, as for every rule here) that is 1/(alpha + beta + 1).
    a_0 and b_1 are written cancelled, so alpha + beta in {0, -1} stays finite.  A
    recurrence that overflows (alpha + beta above about 1.3e154) is a ValueError naming
    alpha and beta.
    """
    if not (alpha > -1.0 and beta > -1.0):
        raise ValueError(f"alpha and beta must exceed -1, got {alpha!r}, {beta!r}")
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError(f"alpha and beta must be finite, got {alpha!r}, {beta!r}")
    ab = alpha + beta
    n = np.arange(1.0, order)
    s = 2.0 * n + ab
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            a_n = np.append(
                (beta - alpha) / (ab + 2.0), (beta - alpha) * (beta + alpha) / (s * (s + 2.0))
            )
            n, s = n[1:], s[1:]  # b_n from n = 2 on
            b_n = np.append(
                4.0 * (1.0 + alpha) * (1.0 + beta) / ((2.0 + ab) ** 2 * (3.0 + ab)),
                4.0 * n * (n + alpha) * (n + beta) * (n + ab) / (s * s * (s * s - 1.0)),
            )
        finite = np.isfinite(a_n).all() and np.isfinite(b_n).all()
    except OverflowError:  # (2 + ab)**2 as a Python float
        finite = False
    if not finite:
        raise ValueError(f"the Gauss-Jacobi rule at alpha={alpha!r}, beta={beta!r} is not finite")
    x, v = np.linalg.eigh(np.diag(a_n) + np.diag(np.sqrt(b_n), -1))  # eigh reads the lower half
    if alpha == 0.0 or beta == 0.0:  # exact, where the lgamma difference would cancel
        beta_fn = 1.0 / (ab + 1.0)
    else:
        lg = math.lgamma
        beta_fn = math.exp(lg(alpha + 1.0) + lg(beta + 1.0) - lg(ab + 2.0))
    return (x + 1.0) / 2.0, beta_fn * v[0] ** 2


def beta_kernel_rule(a: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights (t_i, w_i) with int_0^1 (1-t)**(a-1) phi(t) dt ~ sum w_i phi(t_i)."""
    if not (a > 0 and math.isfinite(a)):
        raise ValueError(f"a must be positive and finite, got {a!r}")
    _check_order(order)
    return _jacobi_rule(a - 1.0, 0.0, order)


def _kernel_rules(scheme: CoeffScheme, order: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(x, w) with <K, phi> ~ w @ phi(x) for K1..K4 (module docs); K2-K4 share x."""
    a, p = scheme.r * scheme.r, scheme.P.eval
    t, wt = beta_kernel_rule(a, order)  # (1-t)**(a-1): K1 and every inner Beta kernel
    x, wx = beta_kernel_rule(a + 1.0, order)  # (1-x)**a: the y**a of K2-K4, y = 1 - x
    yt = np.outer(1.0 - x, t)
    s, ws = _unit_rule(min(max(2, int(scheme.P.degree)), 128))  # exact on P1(ws) P1(w(1-s))
    yts, yt_rest = yt[..., None] * s, yt[..., None] * (1.0 - s)
    p_yt = p(yt)
    p1 = p_yt / yt
    p1p1 = yt * ((p(yts) / yts * p(yt_rest) / yt_rest) @ ws)  # (P1 * P1)(yt)
    outer = (a * p1, a * a * p1p1, a * p1 * p_yt)  # Pi_K(y) = K(y) / y**a, K2-K4 (P2 = P1 P)
    return [(t, wt)] + [(x, wx * (pi @ wt)) for pi in outer]


@lru_cache(maxsize=1)  # one (scheme, order) at a time: an entry holds about 130 KB at order 48
def _compiled(scheme: CoeffScheme, order: int) -> tuple:
    """The c-free part of h_value_numeric (module docs): the four denominator components,
    the z (2, order, order) of the sines at K1's nodes t and K2-K4's nodes x, the sample
    weights H (5, order, order) of the pairs t (1, f1), t (P, f1t), x (1, f1), x (1, f1t)
    and x (P, f1t), and L (7, order), each numerator row's kappa (w f)(nodes)."""
    f1, f1t = scheme.f1, scheme.f1t
    (t, w1), (x, w2), (_, w3), (_, w4) = _kernel_rules(scheme, order)
    zeta, w_zeta = _unit_rule(order)
    nodes = np.array([t, x])[..., None]
    z, rest = nodes * zeta, nodes * (1.0 - zeta)
    f1_rest, f1t_rest = (w_zeta / zeta) * f1.eval(rest), (w_zeta / zeta) * f1t.eval(rest)
    pf1t_rest = scheme.P.eval(z) * f1t_rest
    weights = np.array([f1_rest[0], pf1t_rest[0], f1_rest[1], f1t_rest[1], pf1t_rest[1]])
    f1_t, f1_x, f1t_x = f1.eval(t), f1.eval(x), f1t.eval(x)  # each factor once per node array
    den = (
        float(w1 @ (f1_t * f1_t)),
        2.0 * float(w2 @ (f1_x * f1t_x)),
        float(w3 @ (f1t_x * f1t_x)),
        float(w4 @ (f1t_x * f1t_x)),
    )
    rows = np.array(
        [w1 * f1_t, w2 * f1t_x, w2 * f1_x, w1 * f1_t, w3 * f1t_x, w4 * f1t_x, w2 * f1t_x]
    )
    return den, weights, z, -2.0 * scheme.r / math.pi * rows


# The pair (module docs) each of n1, n2, n31, n32, n41, n42, n43 reads, and the node array
# each pair is sampled on: 0 t (1, f1), 1 t (P, f1t), 2 x (1, f1), 3 x (1, f1t), 4 x (P, f1t)
_PAIR_OF_ROW = np.array([0, 2, 3, 1, 3, 3, 4])
_NODES_OF_PAIR = np.array([0, 0, 1, 1, 1])


def h_value_numeric(scheme: CoeffScheme, c: float, order: int = DEFAULT_ORDER) -> HBreakdown:
    """Recompute the full h(c) breakdown by Gauss quadrature (module docs).

    order, an integer in [16, 128], is the node count of every kernel rule (K1's
    doubles as K2-K4's inner t rule) and of each sine convolution's rule.  The sine
    kernel is evaluated with np.sin, not the series, so the route is
    independent of hfunc's term algebra.  Everything but the sine samples is
    compiled once per (scheme, order) and reused while that pair repeats.
    """
    _check_order(order, 16)
    if not (0.0 < c < 1.0):
        raise DomainError("c must lie strictly between 0 and 1")
    den, weights, z, rows = _compiled(scheme, int(order))
    samples = np.einsum("pik,pik->pi", weights, np.sin(math.pi * c * z)[_NODES_OF_PAIR])
    num = np.einsum("ij,ij->i", rows, samples[_PAIR_OF_ROW])
    return assemble_h(c, den, num.tolist())


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
    if not d_limit > 1.0:
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
