"""Search over coefficient schemes for the smallest certified threshold c*.

h(c) - 1 changes sign once on the working range, so a bound is certified by
locating a sign change on a grid (bracket_scan) and solving h(c) = 1 inside it
by a bracketed Newton iteration (threshold_c), which returns a c whose h - 1
exceeds the rounding budget of h (HBreakdown.budget).  That one rule,
HBreakdown.passed, decides every certificate: threshold_c's, the scan's lower
end c_lo when the scan finds no sign change (optimize_scheme), and each
published row of verify_table (RowCheck.passed).
At fixed (r, P), D = x A x and N(c) = x B(c) x are quadratic forms in
x = (f1 | f1t), the ratio-of-quadratic-forms setup of Montgomery-Odlyzko, so
the best threshold over f1, f1t is the root of c - lambda_min(B(c), A) = 1,
with the eigenvector as coefficients (_eigen_root on hfunc._forms(r, p): at
most NEWTON_STEPS Newton steps, stopping once a step is exactly 0).  A simplex
search over r and the coefficients of P that no gauge of h fixes lowers that
root (optimize_scheme); its end is the run's one new scheme (_best_threshold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from numbers import Integral, Real

import numpy as np

from .fracpoly import _SINE_POWERS, SINE_TERMS, DomainError, FracPoly, _sinc_rows, sinc_coeffs
from .hfunc import (
    CoeffScheme,
    DegenerateSchemeError,
    HBreakdown,
    _certifies,
    _forms,
    _is,
    _ratio,
    _rounding_budget,
    h_grid,
    h_value,
)
from .presets import PRESETS

__all__ = [
    "OptimizeConfig",
    "OptimizeReport",
    "RowCheck",
    "TableReport",
    "bracket_scan",
    "grid_points",
    "threshold_c",
    "nelder_mead",
    "optimize_scheme",
    "verify_table",
]

R_MIN, R_MAX = 1.0, 1.5
# The simplex search stops once its diameter (max norm) drops below this.
DIAMETER_TOL = 1e-7
# Newton steps on c - lambda_min(c) = 1 from the start's threshold at most; a step of 0 ends them.
NEWTON_STEPS = 5
# Newton or bisection steps of threshold_c at most; 64 halvings exhaust any bracket in (0, 1).
CERTIFY_STEPS = 64
# Eigenvalues of the unit-diagonal denominator form at or below this are null directions.
NULL_TOL = 1e-12

# Most points a scan grid may have: h_grid's sine rows for this many c take 19 MB.
_MAX_GRID_POINTS = 10**5


@dataclass(frozen=True)
class OptimizeConfig:
    """Knobs for the threshold certification and the search over r and P.

    degrees fixes the parameterization (deg f1, deg f1t, deg P); c_grid is
    the (lo, hi, step) scan window, whose first sign change threshold_c
    certifies at its default tol; max_iters and simplex_scale steer the
    Nelder-Mead search over r and P's coefficients below its top one, from
    x**2 up when deg f1 > deg f1t (optimize_scheme), so (3, 1, 2) searches
    r alone.
    """

    degrees: tuple[int, int, int] = (3, 1, 2)
    c_grid: tuple[float, float, float] = (0.50, 0.53, 0.001)
    max_iters: int = 400
    simplex_scale: float = 0.05

    def __post_init__(self):
        if not (isinstance(self.c_grid, (tuple, list)) and len(self.c_grid) == 3
                and all(_is(Real, v) for v in self.c_grid)):
            raise ValueError(f"c_grid must be three numbers (lo, hi, step), got {self.c_grid!r}")
        _grid_steps(*self.c_grid)
        if not (_is(Real, self.simplex_scale) and 0 < abs(self.simplex_scale) < math.inf):
            raise ValueError("simplex_scale must be nonzero and finite")
        if not (_is(Integral, self.max_iters) and self.max_iters >= 0):
            raise ValueError(f"max_iters must be a nonnegative integer, got {self.max_iters!r}")
        if not (isinstance(self.degrees, (tuple, list)) and len(self.degrees) == 3
                and all(_is(Integral, d) for d in self.degrees)):
            raise ValueError(f"degrees must be three integers, got {self.degrees!r}")
        if min(self.degrees) < 0 or self.degrees[2] < 1:
            raise ValueError("degrees need deg f1, deg f1t >= 0 and deg P >= 1")


@dataclass(frozen=True)
class OptimizeReport:
    best_scheme: CoeffScheme
    c_star: float
    margin: float  # h(c_star) - 1 of the final scheme, as certified
    trace: list[tuple[int, float]] = field(default_factory=list)


def grid_points(c_lo, c_hi, step) -> list[float]:
    """The scan grid c_lo, c_lo + step, ..., ending at c_hi itself: at most _MAX_GRID_POINTS."""
    return [min(c_lo + i * step, c_hi) for i in range(_grid_steps(c_lo, c_hi, step) + 1)]


def _grid_steps(c_lo, c_hi, step) -> int:
    """Steps of the scan grid, or ValueError unless 0 < c_lo < c_hi < 1 and step is positive
    and finite, or naming step and the count of points when there would be more than
    _MAX_GRID_POINTS."""
    if not (0.0 < c_lo < c_hi < 1.0):
        raise ValueError("need 0 < c_lo < c_hi < 1")
    if not 0 < step < math.inf:
        raise ValueError("step must be positive and finite")
    steps = (c_hi - c_lo) / step - 1e-9  # inf at a subnormal step
    if not steps <= _MAX_GRID_POINTS - 1:
        count = f"{steps + 1.0:.3g} grid points"
        raise ValueError(f"step {step!r} gives {count}, over the limit of {_MAX_GRID_POINTS}")
    return math.ceil(steps)


def bracket_scan(scheme, c_lo, c_hi, step):
    """First adjacent pair of grid_points where h - 1 changes sign, or None (one h_grid call)."""
    grid = grid_points(c_lo, c_hi, step)
    v = h_grid(scheme, grid) - 1.0
    changes = np.flatnonzero(v[:-1] * v[1:] < 0.0)
    return (grid[changes[0]], grid[changes[0] + 1]) if changes.size else None


def threshold_c(scheme, bracket, tol=1e-6) -> float:
    """A float c in `bracket` just above the root of h(c) = 1, where h(c) - 1 > its budget.

    Newton's method on the compiled sums (h' = 1 - kappa sum_j s_j' m_j / D, s_j' = (2j+1) s_j / c,
    m = scheme.moments summed over its rows, D = sum(scheme.den_terms)) starts at the midpoint;
    each sign of h - 1 narrows the bracket, and a step that would leave it bisects instead.
    Once |h - 1| is within the rounding budget (HBreakdown.budget), a last step aims at
    h = 1 + 2 budget and the bracket becomes (that c - 4 budget / h', that c); bisection that
    narrows it to tol first stops there.  So the result, the upper end, sits at most tol (or
    2 budget / h') above the root.  Two h_value calls check that the breakdown there passes
    (HBreakdown.passed: h - 1 > budget) and h < 1 at the lower end, else ValueError, as when
    h - 1 does not rise through 0 across the bracket.
    """
    return _threshold(scheme, bracket, tol)[0]


def _threshold(scheme, bracket, tol=1e-6) -> tuple[float, HBreakdown]:
    """threshold_c's c and the HBreakdown at c that certifies it."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    lo, hi = bracket
    if not lo < hi:
        raise ValueError("bracket must be ordered (lo, hi)")
    if not 0.0 < lo < hi < 1.0:
        raise DomainError(f"the bracket must lie strictly between 0 and 1, got {bracket!r}")
    den_terms = scheme.den_terms
    moments = -2.0 * scheme.r / math.pi * scheme.moments
    slope_moments = _SINE_POWERS * moments.sum(axis=0)
    c = 0.5 * (lo + hi)
    for _ in range(CERTIFY_STEPS):
        s = _sinc_rows(c)
        n = (moments @ s).tolist()
        v = _ratio(c, den_terms, n) - 1.0  # DegenerateSchemeError before any division by D
        slope = 1.0 - slope_moments @ s / (c * sum(den_terms))
        budget = _rounding_budget(den_terms, n)
        if abs(v) <= budget and slope > 0.0:
            hi = min(c + (2.0 * budget - v) / slope, hi)
            lo = max(hi - 4.0 * budget / slope, lo)
            break
        lo, hi = (c, hi) if v < 0.0 else (lo, c)
        newton = c - v / slope if slope > 0.0 else math.nan  # NaN: bisect
        if lo < newton < hi:
            c = newton
        elif hi - lo > tol:
            c = 0.5 * (lo + hi)
        else:
            break
    certified = h_value(scheme, hi)
    if not (certified.passed and h_value(scheme, lo).h < 1.0):
        raise ValueError("h - 1 must change sign from - to + across the bracket")
    return float(hi), certified


def nelder_mead(objective, start_vector, config: OptimizeConfig | None = None):
    """Minimize `objective` by the standard simplex method.

    Reflection/expansion/contraction/shrink coefficients are (1, 2, 0.5,
    0.5).  Terminates when the simplex diameter (in max norm) drops below
    DIAMETER_TOL, or after config.max_iters iterations.  Ties in the vertex
    ordering are broken by insertion order.  Returns
    (best_vector, best_value, trace) with trace entries (iteration, best).
    """
    cfg = config if config is not None else OptimizeConfig()
    x0 = np.asarray(start_vector, dtype=float).copy()
    if x0.size == 0:
        raise ValueError("start vector is empty")
    f0 = float(objective(x0))
    if not math.isfinite(f0):
        raise ValueError("objective is not finite at the start vector")

    n = x0.size
    simplex = [x0] + [x0 + cfg.simplex_scale * (abs(x0[i]) or 1.0) * np.eye(n)[i] for i in range(n)]
    values = [f0] + [float(objective(x)) for x in simplex[1:]]

    best_x, best_f = x0.copy(), f0
    trace = [(0, best_f)]
    for it in range(1, cfg.max_iters + 1):
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]

        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_r = float(objective(reflected))

        if f_r < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_e = float(objective(expanded))
            simplex[-1], values[-1] = (expanded, f_e) if f_e < f_r else (reflected, f_r)
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            contracted = centroid + 0.5 * ((reflected if f_r < values[-1] else worst) - centroid)
            f_c = float(objective(contracted))
            if f_c < min(f_r, values[-1]):
                simplex[-1], values[-1] = contracted, f_c
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = float(objective(simplex[i]))

        cur_best = min(values)
        if cur_best < best_f:
            i_best = values.index(cur_best)
            best_x, best_f = simplex[i_best].copy(), cur_best
        trace.append((it, best_f))
        if np.max(np.abs(np.array(simplex[1:]) - simplex[0])) < DIAMETER_TOL:
            break

    return best_x, best_f, trace


def _denominator_basis(a: np.ndarray) -> np.ndarray:
    """Z with Z^T A Z = I over A's directions with eigenvalue > NULL_TOL at unit diagonal."""
    d = np.diag(a)
    s = 1.0 / np.sqrt(np.where(d > 0.0, d, np.inf))
    lam, v = np.linalg.eigh(a * np.outer(s, s))
    live = lam > NULL_TOL
    if not live.any():
        raise DegenerateSchemeError("the denominator form is zero")
    return s[:, None] * v[:, live] / np.sqrt(lam[live])


def _eigen_root(r: float, p: np.ndarray, degrees, c: float) -> tuple[float, float, np.ndarray]:
    """(root, r, x) for r clipped to [R_MIN, R_MAX]: the least threshold over f1, f1t of the given
    degrees at (r, P), P's coefficients p, reached at their coefficients x = (f1 | f1t) = Z v.  At
    most NEWTON_STEPS Newton steps from c, stopping once a step is exactly 0, solve
    c - lambda_min(c) = 1, with lambda'(c) = v B'(c) v (Hellmann-Feynman) for the A-normalised
    eigenvector v and s_j'(c) = (2j + 1) s_j(c) / c."""
    d1, d2, _ = degrees
    r = float(np.clip(r, R_MIN, R_MAX))
    w = max(d1 + 1, d2 + 1, p.size)  # the width of a scheme of these degrees and P
    a, b = _forms(r, np.pad(p, (0, w - p.size)))
    kept = _kept(d1, d2, w)
    z = _denominator_basis(a[kept])
    b = z.T @ (-2.0 * r / math.pi * b[:, kept[0], kept[1]]) @ z
    series = b.reshape(SINE_TERMS, -1)  # B(c) = s(c) @ series, one matrix-vector product
    for _ in range(NEWTON_STEPS):
        s = sinc_coeffs(c)
        lam, vecs = np.linalg.eigh((s @ series).reshape(b.shape[1:]))
        v = vecs[:, 0]
        step = (c - lam[0] - 1.0) / (1.0 - (_SINE_POWERS * s / c) @ (b @ v @ v))
        c -= step
        if step == 0.0:  # a fixed point: every further step would repeat this one
            break
    return c, r, z @ v


def _best_threshold(r: float, p: np.ndarray, degrees, c: float) -> tuple[float, CoeffScheme]:
    """(root, scheme) of _eigen_root, the scheme's f1 and f1t its coefficients x and P from p."""
    root, r, x = _eigen_root(r, p, degrees, c)
    return root, CoeffScheme(r, *map(FracPoly.from_coeffs, [*np.split(x, [degrees[0] + 1]), p]))


@cache
def _kept(d1: int, d2: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """np.ix_ of the entries of x = (f1 | f1t) at width w that degrees d1 and d2 use."""
    keep = np.r_[: d1 + 1, w : w + d2 + 1]
    keep.setflags(write=False)
    return np.ix_(keep, keep)


def _certify(scheme, config: OptimizeConfig) -> tuple[float, float]:
    """(c, h(c) - 1) of the breakdown that certifies c: threshold_c in the first sign change
    of config.c_grid's scan, else c_lo if its breakdown passes, else DomainError."""
    bracket = bracket_scan(scheme, *config.c_grid)
    if bracket is not None:
        c, certified = _threshold(scheme, bracket)
        return c, certified.h - 1.0
    c_lo = float(config.c_grid[0])
    at_lo = h_value(scheme, c_lo)
    if not at_lo.passed:
        raise DomainError(
            f"h(c) - 1 has no sign change on the scan grid, and h(c_lo) - 1 = "
            f"{at_lo.h - 1.0:.3e} is not above its rounding budget {at_lo.budget:.3e}"
        )
    return c_lo, at_lo.h - 1.0


def optimize_scheme(config: OptimizeConfig, start: CoeffScheme) -> OptimizeReport:
    """Minimize _best_threshold's root over r and P, then certify its scheme.

    Two gauges of h fix P's coefficients that the eigenvector already covers:
    P -> sP with f1t -> f1t/s, so P's top coefficient is 1, and P -> P + e x with
    f1 -> f1 + e (1 - x) f1t, so P's x coefficient is 0 when deg f1 > deg f1t.
    Nelder-Mead moves r and P's remaining coefficients from the start's.  The result
    is certified like the start, and the start is kept if it certifies lower.
    """
    c_start, margin_start = _certify(start, config)
    d1, d2, d_p = config.degrees
    p = start.P.to_coeffs()
    if p.size > d_p + 1:
        raise ValueError("start scheme exceeds the configured degrees")
    p = np.pad(p, (0, d_p + 1 - p.size))
    free = slice(2 if d1 > d2 else 1, d_p)  # P's searched coefficients

    def best(f, v):  # f at r = v[0] and P's free coefficients v[1:], top coefficient 1
        p_v = np.zeros(d_p + 1)
        p_v[free], p_v[-1] = v[1:], 1.0
        return f(v[0], p_v, config.degrees, c_start)

    v0 = np.r_[start.r, p[free] / (p[-1] or 1.0)]
    v, _, trace = nelder_mead(lambda v: best(_eigen_root, v)[0], v0, config)
    scheme = best(_best_threshold, v)[1]
    c_star, margin = _certify(scheme, config)
    if c_start <= c_star:
        scheme, c_star, margin = start, c_start, margin_start
    return OptimizeReport(scheme, c_star, margin, trace=trace)


@dataclass(frozen=True)
class RowCheck:
    name: str
    c: float
    r: float
    margin: float  # h(c) - 1 of the scheme as published
    budget: float  # HBreakdown.budget at c

    @property
    def passed(self) -> bool:
        """HBreakdown.passed's rule (hfunc._certifies): the margin exceeds the budget."""
        return _certifies(self.margin, self.budget)


@dataclass(frozen=True)
class TableReport:
    rows: list[RowCheck]

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)


def verify_table() -> TableReport:
    """Evaluate every built-in reference scheme at its listed threshold."""
    rows = []
    for preset in PRESETS:
        hb = h_value(preset.scheme, preset.c)
        rows.append(RowCheck(preset.name, preset.c, preset.scheme.r, hb.h - 1.0, hb.budget))
    return TableReport(rows)
