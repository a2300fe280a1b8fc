"""Closed-form assembly of the gap functional h(c) for a coefficient scheme.

A scheme is the tuple (r, f1, f1t, P): a shape parameter r >= 1 and three
integer-exponent polynomials.  In the long-mollifier limit the quadratic
forms built from the scheme reduce to eleven component integrals, four in
the denominator and seven in the numerator.  The functional is

    h(c) = c - (n1 + n2 + n31 + n32 + n41 + n42 + n43)
               / (d1 + d2 + d31 + d32)

and h(c) > 1 certifies that the liminf of normalized gaps between
consecutive critical-line zeros is at most c.  In floats the one rule is
h(c) - 1 > HBreakdown.budget, the rounding budget of h (HBreakdown.passed).

Every component is one pairing <K, q> = int_0^1 K(1-u) q(u) du of one of
four kernels with a product q of f1, f1t and their sine convolutions.  With
a = r**2, P1 = P(y)/y, P2 = P1 P, * the convolution on [0, u] and
BC(g) = x**(a-1) * g, the kernels depend only on (r, P):

    K1 = x**(a-1)          K3 = r^4 BC(P1 * P1)
    K2 = r^2 BC(P1)        K4 = r^2 BC(P2)

P1, P2 and P1 * P1 (by y**i * y**j = B(i+1, j+1) y**(i+j+1)) are integer
polynomials, and <BC(y**k), x**n> = B(k+1, n+1) B(a, k+n+2).  So with the one
row beta_j = B(a, j+1), every kernel moment is closed-form,

    <K1, x**n> = beta_n,    <BC(Q), x**n> = sum_k Q_k B(n+1, k+1) beta_(n+k+1),

and r enters only through beta and the scales a and a**2; every other Beta
has integer arguments, one grid for all schemes of a width (_unit_betas).

<p, g * q> = <p * g, q> moves every P-weight and Beta kernel of the paper's
nested integrals onto the kernel, so nothing is reflected u -> 1 - u.  A
scheme compiles once, into the kernel moments <K, x**m> (CoeffScheme.kernels),
the four denominator components (CoeffScheme.den_terms) and, as c enters only
through sin(pi c v)/v = sum_j s_j(c) v**(2j), the c-free sine moments of the
numerator (CoeffScheme.moments).  h_grid evaluates h on a whole array of c in
one call, each value the same float that h_value gives at that c.

Every component is normalized by the common prefactor A_r * r^2 * (log T)^(r^2)
shared by all eleven integrals, which removes the (otherwise unspecified)
constant A_r from the ratio entirely.

All functions here are pure and all inputs immutable, so concurrent
evaluation needs no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from numbers import Real

import numpy as np

from .fracpoly import SINE_TERMS, DomainError, FracPoly, _beta_grid, _sinc_rows

# perfbench traces these as attributes of this module
from .fracpoly import beta_convolve, convolve, integrate_weighted  # noqa: F401 (traced, not called)

__all__ = [
    "DegenerateSchemeError",
    "CoeffScheme",
    "HBreakdown",
    "denominator_terms",
    "numerator_terms",
    "assemble_h",
    "h_value",
    "h_grid",
]

# Denominators smaller than this mean the scheme carries no usable mass.
DENOMINATOR_FLOOR = 1e-12


class DegenerateSchemeError(ArithmeticError):
    """The scheme's denominator quadratic form is numerically zero."""


def _is(kind, value) -> bool:
    """value is a kind (a numbers ABC) and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class CoeffScheme:
    """Coefficient scheme (r, f1, f1t, P) defining the mollified weights.

    Invariants enforced at construction: r is a real number, not a bool, with
    r >= 1 and r**4 finite (r below about 1.16e77), kept as given if an int or
    a float and stored as float(r) otherwise, all three polynomials have
    integer exponents, and P has no constant term (so P(y)/y is again a
    polynomial).
    """

    r: float
    f1: FracPoly
    f1t: FracPoly
    P: FracPoly
    dense: np.ndarray = field(init=False, repr=False, compare=False)  # rows f1, f1t, P, 1, padded

    def __post_init__(self):
        if not _is(Real, self.r):
            raise ValueError(f"r must be a real number, got r={self.r!r}")
        if not isinstance(self.r, (int, float)):  # a numpy float32 r would compute in float32
            object.__setattr__(self, "r", float(self.r))
        if not (1.0 <= self.r and math.isfinite(self.r * self.r * (self.r * self.r))):
            raise ValueError(f"r must be >= 1 with a finite kernel scale r**4, got r={self.r!r}")
        rows = []
        for name in ("f1", "f1t", "P"):
            try:
                rows.append(getattr(self, name).to_coeffs())
            except DomainError as exc:
                raise ValueError(f"{name} must have integer exponents") from exc
        width = max(row.size for row in rows)
        rows = [np.concatenate([row, np.zeros(width - row.size)]) for row in rows + [np.ones(1)]]
        object.__setattr__(self, "dense", np.array(rows))
        if self.dense[2, 0] != 0.0:
            raise ValueError("P must vanish at 0 (no constant term)")

    @cached_property
    def kernels(self) -> np.ndarray:
        """Rows mu_K(n) = <K, x**n> of K1..K4, n up to the top numerator degree: beta_n, then
        scale * sum_k Q[k] B(n+1, k+1) beta_(n+k+1) for Q = P1, P1 * P1 and P2 (module docs)."""
        a, p = self.r * self.r, self.dense[2]
        w, unit = p.size, _unit_betas(p.size)
        m, k = len(unit), np.arange(2 * w)
        p1 = np.append(p[1:], 0.0)  # P1, padded: at width 1 it would be empty
        beta = _beta_grid(np.array([a]), np.arange(1.0, m + 2 * w + 1))[0]
        # quietly: an overflow reaches den_terms as inf or NaN, and DegenerateSchemeError names it
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.zeros((3, 2 * w))
            q[0, :w] = p1
            p1p1 = np.outer(p1, p1) * unit[:w, :w]  # y**i * y**j = B(i+1, j+1) y**(i+j+1)
            q[1] = np.bincount(np.add.outer(k[:w], k[1 : w + 1]).ravel(), p1p1.ravel(), 2 * w)
            q[2, :-1] = np.convolve(p1, p)
            mu = q @ (unit[:m, : 2 * w] * beta[np.add.outer(np.arange(m), k) + 1]).T
            return np.vstack([beta[:m], mu * np.array([a, a * a, a])[:, None]])

    @cached_property
    def den_terms(self) -> tuple[float, float, float, float]:
        """denominator_terms (free of c), or DegenerateSchemeError if one is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            terms = denominator_terms(self)
        if bad := [f"{name}={v!r}" for name, v in zip(_TERMS, terms) if not math.isfinite(v)]:
            raise DegenerateSchemeError(f"denominator components not finite: {', '.join(bad)}")
        return terms

    @cached_property
    def moments(self) -> np.ndarray:
        """M[i, j] = <K_i, f_i ((x**(2j) h_i) * g_i)> for the rows n1..n43 of numerator_terms."""
        d, mu = self.dense, self.kernels[_K[_NUM]]
        return _pairings(mu, d[_F[_NUM]], d[_H[_NUM]], d[_G[_NUM]])

    @cached_property
    def forms(self) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric (A, B) with D = x A x and sum_i M[i, j] = x B[j] x for x the dense f1 | f1t,
        built on first use from (r, P) and the width alone: _summed_blocks of the rows' scaled
        Hankel blocks of kernel moments (A) or _coefficient_pairings (B).  h_value never does."""
        w = self.dense.shape[1]
        hankel = self.kernels[_K[_DEN, None, None], np.add.outer(np.arange(w), np.arange(w))]
        pairings = _coefficient_pairings(self.kernels[_K[_NUM]], self.dense[_H[_NUM]])
        return (
            _summed_blocks(hankel * _SCALE[_DEN, None, None], _F[_DEN], _G[_DEN]),
            _summed_blocks(pairings, _F[_NUM], _G[_NUM]),
        )


# The eleven components in HBreakdown order: the kernel K1..K4, the dense rows
# (f1, f1t, P, 1) = (0, 1, 2, 3) of f, h and g, and a scale.  d_i = scale <K, f g>
# (denominator_terms, h unused) and n_i = kappa <K, f ((S h) * g)> (numerator_terms).
_TERMS = {  # name: (K, f, h, g, scale)
    "d1": (0, 0, 3, 0, 1), "d2": (1, 0, 3, 1, 2), "d31": (2, 1, 3, 1, 1), "d32": (3, 1, 3, 1, 1),
    "n1": (0, 0, 3, 0, 1), "n2": (1, 1, 3, 0, 1), "n31": (1, 0, 3, 1, 1), "n32": (0, 0, 2, 1, 1),
    "n41": (2, 1, 3, 1, 1), "n42": (3, 1, 3, 1, 1), "n43": (1, 1, 2, 1, 1),
}
_K, _F, _H, _G, _SCALE = np.array(list(_TERMS.values())).T
_DEN, _NUM = slice(4), slice(4, None)


def _pairings(mu: np.ndarray, f: np.ndarray, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """T[i, j] = <K_i, f_i ((x**(2j) h_i) * g_i)> for kernel moments mu[i] = mu_K_i:
    sum_klm h_ik g_il f_im B(2j+k+1, l+1) mu_i(2j+k+l+m+1), as x**p * x**l = B(p+1, l+1)
    x**(p+l+1)."""
    nu = np.array([np.correlate(m, fi, "valid") for m, fi in zip(mu, f)])
    degree, betas = _sine_table(h.shape[1])
    return np.einsum("ijkl,ik,il->ij", nu[:, degree] * betas, h, g)


def _coefficient_pairings(mu: np.ndarray, h: np.ndarray) -> np.ndarray:
    """X[i, j, m, l] = <K_i, x**m ((x**(2j) h_i) * x**l)>, _pairings with f and g the monomials
    x**m and x**l: sum_k h_ik B(2j+k+1, l+1) mu_i(2j+k+l+m+1), over a window view of mu.  Where
    h_i is the constant 1 that sum is its k = 0 term, mu_i(2j+l+m+1) B(2j+1, l+1), the same float
    wherever mu is finite."""
    w = h.shape[1]
    _, betas = _sine_table(w)
    # window[i, j, k, l, m] = mu_i(2j+k+l+m+1), a view that numpy bounds-checks against mu's buffer
    i, n = mu.strides
    window = np.ndarray((len(mu), SINE_TERMS, w, w, w), float, mu, n, (i, 2 * n, n, n, n))
    x = window[:, :, 0] * betas[:, None, 0]
    rest = np.flatnonzero((h != np.eye(1, w)).any(axis=1))
    x[rest] = np.einsum("ijklm,jkl,ik->ijml", window[rest], betas, h[rest])
    return x


def _summed_blocks(x: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_i 0.5 (Y_i + Y_i^T), Y_i the 2 x 2 block matrix with x[i] in block (f[i], g[i]) and zero
    blocks elsewhere, over the last two axes of x.  Added onto zeros block by block in row order,
    each float as in that whole sum: 0.5 (x + x^T) into a diagonal block, else 0.5 x into (f, g)
    and 0.5 x^T into (g, f)."""
    xt = np.ascontiguousarray(x.swapaxes(-1, -2))  # contiguous, as every block of y
    y = np.zeros((2, 2, *x.shape[1:]))  # y[p, q] is block (p, q)
    for xi, xti, fi, gi in zip(x, xt, f.tolist(), g.tolist()):
        if fi == gi:
            y[fi, fi] += 0.5 * (xi + xti)
        else:
            y[fi, gi] += 0.5 * xi
            y[gi, fi] += 0.5 * xti
    return np.moveaxis(y, (0, 1), (-4, -2)).reshape(*x.shape[1:-2], 2 * x.shape[-1], -1)


@cache
def _unit_betas(width: int) -> np.ndarray:
    """B(i+1, j+1) for i, j < 2 SINE_TERMS + 3 width - 3, the kernel moments a scheme of this
    width needs: every integer Beta it reads (kernels, _sine_table); read-only, shared."""
    n = np.arange(1.0, 2 * SINE_TERMS + 3 * width - 2)
    grid = _beta_grid(n, n)
    grid.setflags(write=False)
    return grid


@cache
def _sine_table(width: int) -> tuple[np.ndarray, np.ndarray]:
    """(2j+k+l+1, B(2j+k+1, l+1)) for j < SINE_TERMS and k, l < width; shared by every scheme."""
    j, k, l = np.ogrid[:SINE_TERMS, :width, :width]
    return 2 * j + k + l + 1, _unit_betas(width)[2 * j + k, l]


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

    def components(self) -> list[float]:
        """d1..n43 in _TERMS order: the four denominator components, then the seven numerator."""
        return [getattr(self, name) for name in _TERMS]

    @property
    def denominator(self) -> float:
        return sum(self.components()[_DEN])

    @property
    def numerator(self) -> float:
        return sum(self.components()[_NUM])

    @property
    def budget(self) -> float:
        """Rounding budget of h from its components (_rounding_budget)."""
        terms = self.components()
        return _rounding_budget(terms[_DEN], terms[_NUM])

    @property
    def passed(self) -> bool:
        """Whether h - 1 certifies c by _certifies, the one rule behind every PASS."""
        return _certifies(self.h - 1.0, self.budget)

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def denominator_terms(scheme: CoeffScheme) -> tuple[float, float, float, float]:
    """The four denominator components, each scale <K, f g> by a d-row of _TERMS (module docs):

      d1  = <K1, f1 f1>      d31 = <K3, f1t f1t>
      d2  = 2 <K2, f1 f1t>   d32 = <K4, f1t f1t>
    """
    d = scheme.dense
    mu = scheme.kernels[:, : 2 * d.shape[1] - 1]
    rows = list(_TERMS.values())[_DEN]
    return tuple(s * float(mu[k] @ np.convolve(d[f], d[g])) for k, f, _, g, s in rows)


def numerator_terms(scheme: CoeffScheme, c: float | np.ndarray):
    """The seven numerator components (n1, n2, n31, n32, n41, n42, n43) as a tuple.

    For a 1-d array of n values of c, the (7, n) array whose column k holds the
    components at c[k], bit for bit the same floats as at the scalar c[k].

    With kappa = -2r/pi, S the sine series of sin(pi c v)/v, s = v*S and the
    kernels of the module docs:

      n1  = kappa <K1, f1 (S * f1)>       n41 = kappa <K3, f1t (S * f1t)>
      n2  = kappa <K2, f1t (S * f1)>      n42 = kappa <K4, f1t (S * f1t)>
      n31 = kappa <K2, f1 (S * f1t)>      n43 = kappa <K2, f1t (s P1 * f1t)>
      n32 = kappa <K1, f1 (s P1 * f1t)>

    each kappa * sum_j s_j(c) M_j (scheme.moments, sinc_coeffs).  c must lie strictly inside
    (0, 1), where the SINE_TERMS-term series is certified to 1e-18 on [0, 1].
    """
    cs = np.asarray(c, dtype=float)
    ok = (0.0 < cs) & (cs < 1.0)
    if not ok.all():
        raise DomainError(f"c must lie strictly between 0 and 1, got {float(cs[~ok].flat[0])!r}")
    kappa = -2.0 * scheme.r / math.pi
    s = _sinc_rows(cs.reshape(-1))[:, :, None]  # sinc_coeffs as a contiguous column per c
    # one matrix-vector product per c, as at a scalar c: in one matrix product over all
    # columns (BLAS gemm, or einsum's loops) a column's rounding can depend on their number
    terms = (kappa * (scheme.moments @ s))[:, :, 0].T
    return terms if cs.ndim else tuple(terms[:, 0].tolist())


def assemble_h(c: float, den_terms, num_terms) -> HBreakdown:
    """HBreakdown and h(c) = c - numerator/denominator from the eleven components.

    den_terms is (d1, d2, d31, d32) and num_terms (n1, n2, n31, n32, n41,
    n42, n43).  Raises DegenerateSchemeError when the denominator sum is
    below DENOMINATOR_FLOOR in magnitude.
    """
    return HBreakdown(c, *den_terms, *num_terms, h=_ratio(c, den_terms, num_terms))


def _ratio(c, den_terms, num_terms):
    """c - sum(num_terms) / sum(den_terms), elementwise for an array c and rows num_terms."""
    den = sum(den_terms)
    if not abs(den) > DENOMINATOR_FLOOR:  # NaN fails too
        raise DegenerateSchemeError(
            f"denominator {den:.3e} is below the floor {DENOMINATOR_FLOOR:.0e}"
        )
    return c - sum(num_terms) / den


def _rounding_budget(den_terms, num_terms) -> float:
    """64 eps (sum |n_i| + |N/D| sum |d_i|) / |D|, the allowance for float rounding in
    h = c - N/D assembled from these components: a certificate needs h - 1 above it."""
    den = sum(den_terms)
    spread = sum(map(abs, num_terms)) + abs(sum(num_terms) / den) * sum(map(abs, den_terms))
    return float(64.0 * np.finfo(float).eps * spread / abs(den))


def _certifies(margin: float, budget: float) -> bool:
    """The certificate rule: a margin h - 1 certifies c only above the rounding budget of h.
    threshold_c's result, optimize's c_lo and verify-table's rows (RowCheck) all pass by it."""
    return margin > budget


def h_value(scheme: CoeffScheme, c: float) -> HBreakdown:
    """Full component breakdown and h(c) = c - numerator/denominator (see assemble_h)."""
    return assemble_h(c, scheme.den_terms, numerator_terms(scheme, float(c)))


def h_grid(scheme: CoeffScheme, cs) -> np.ndarray:
    """h at every c of the 1-d array cs, each entry equal to h_value(scheme, c).h."""
    cs = np.asarray(cs, dtype=float)
    if cs.ndim != 1:
        raise ValueError("cs must be a 1-d array of c values")
    return _ratio(cs, scheme.den_terms, numerator_terms(scheme, cs))
