"""Search over coefficient schemes for the smallest certified threshold c*.

h(c) - 1 changes sign once on the working range, so certifying a bound is a
two-part job: locate a sign change on a grid (bracket_scan), sharpen it by
bisection (threshold_c), and in between improve the scheme itself by
maximizing h at a probe value of c just below the current threshold with a
derivative-free simplex search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fracpoly import DomainError, FracPoly
from .hfunc import CoeffScheme, DegenerateSchemeError, h_value
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


@dataclass(frozen=True)
class OptimizeConfig:
    """Knobs for the alternating threshold/coefficient search.

    degrees fixes the parameterization (deg f1, deg f1t, deg P); c_grid is
    the (lo, hi, step) scan window for the initial bracket.
    """

    degrees: tuple[int, int, int] = (3, 1, 2)
    c_grid: tuple[float, float, float] = (0.50, 0.53, 0.001)
    bisection_tol: float = 1e-6
    max_iters: int = 400
    simplex_scale: float = 0.05

    def __post_init__(self):
        lo, hi, step = self.c_grid
        if not (0.0 < lo < hi < 1.0):
            raise ValueError("c_grid must satisfy 0 < lo < hi < 1")
        if step <= 0:
            raise ValueError("c_grid step must be positive")
        if self.bisection_tol <= 0:
            raise ValueError("bisection_tol must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")


@dataclass(frozen=True)
class OptimizeReport:
    best_scheme: CoeffScheme
    c_star: float
    margin: float  # h(c_star) - 1, freshly re-evaluated on the final scheme
    trace: list[tuple[int, float]] = field(default_factory=list)


def grid_points(c_lo, c_hi, step) -> list[float]:
    """The scan grid c_lo, c_lo + step, ... up to c_hi inclusive."""
    if not (0.0 < c_lo < c_hi < 1.0):
        raise ValueError("need 0 < c_lo < c_hi < 1")
    if step <= 0:
        raise ValueError("step must be positive")
    n_steps = int((c_hi - c_lo) / step + 1e-9)
    return [min(c_lo + i * step, c_hi) for i in range(n_steps + 1)]


def bracket_scan(scheme, c_lo, c_hi, step):
    """First adjacent pair of grid_points where h - 1 changes sign, or None."""
    grid = grid_points(c_lo, c_hi, step)
    prev_c = grid[0]
    prev_v = h_value(scheme, prev_c).h - 1.0
    for cur_c in grid[1:]:
        cur_v = h_value(scheme, cur_c).h - 1.0
        if prev_v * cur_v < 0.0:
            return prev_c, cur_c
        prev_c, prev_v = cur_c, cur_v
    return None


def threshold_c(scheme, bracket, tol=1e-6):
    """Bisect h(c) = 1 inside `bracket` to width tol; return the h > 1 endpoint."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, hi = bracket
    if not lo < hi:
        raise ValueError("bracket must be ordered (lo, hi)")
    v_lo = h_value(scheme, lo).h - 1.0
    v_hi = h_value(scheme, hi).h - 1.0
    if v_lo * v_hi >= 0.0:
        raise ValueError("h - 1 must change sign across the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        v_mid = h_value(scheme, mid).h - 1.0
        if v_mid == 0.0:
            # exact crossing: certify the upper side
            return mid
        if v_lo * v_mid < 0.0:
            hi, v_hi = mid, v_mid
        else:
            lo, v_lo = mid, v_mid
    return lo if v_lo > 0.0 else hi


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
    f0 = float(objective(x0))
    if not math.isfinite(f0):
        raise ValueError("objective is not finite at the start vector")

    n = x0.size
    simplex = [x0]
    values = [f0]
    for i in range(n):
        step = cfg.simplex_scale * (abs(x0[i]) if x0[i] != 0.0 else 1.0)
        xi = x0.copy()
        xi[i] += step
        simplex.append(xi)
        values.append(float(objective(xi)))

    best_x, best_f = x0.copy(), f0
    trace = [(0, best_f)]

    def diameter() -> float:
        return max(
            float(np.max(np.abs(p - simplex[0]))) for p in simplex[1:]
        ) if n else 0.0

    for it in range(1, cfg.max_iters + 1):
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if values[0] < best_f:
            best_x, best_f = simplex[0].copy(), values[0]

        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_r = float(objective(reflected))

        if f_r < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_e = float(objective(expanded))
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            if f_r < values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid - 0.5 * (centroid - worst)
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
        if diameter() < DIAMETER_TOL:
            break

    return best_x, best_f, trace


def _pack_scheme(scheme: CoeffScheme, degrees) -> np.ndarray:
    """Flatten a scheme into the search vector [f1 | f1t | P(x^1..) | r]."""
    parts = []
    for p, deg in zip((scheme.f1, scheme.f1t, scheme.P), degrees):
        dense = p.to_coeffs()
        if dense.size > deg + 1:
            raise ValueError("start scheme exceeds the configured degrees")
        parts.append(np.pad(dense, (0, deg + 1 - dense.size)))
    return np.concatenate([parts[0], parts[1], parts[2][1:], [scheme.r]])


def _unpack_scheme(vec: np.ndarray, degrees) -> CoeffScheme:
    d1, d2, d3 = degrees
    n1, n2 = d1 + 1, d2 + 1
    f1 = FracPoly.from_coeffs(vec[:n1])
    f1t = FracPoly.from_coeffs(vec[n1 : n1 + n2])
    p = FracPoly.from_coeffs(np.concatenate([[0.0], vec[n1 + n2 : n1 + n2 + d3]]))
    r = float(np.clip(vec[-1], R_MIN, R_MAX))
    return CoeffScheme(r=r, f1=f1, f1t=f1t, P=p)


def _certify(scheme, config: OptimizeConfig, hi: float) -> float:
    """Smallest grid-certified c with h > 1 at or below `hi`, sharpened by bisection."""
    lo, _, step = config.c_grid
    bracket = bracket_scan(scheme, lo, hi, step)
    if bracket is None:
        if h_value(scheme, lo).h > 1.0:
            return lo
        raise DomainError("h(c) - 1 has no sign change on the scan grid")
    return threshold_c(scheme, bracket, config.bisection_tol)


def optimize_scheme(config: OptimizeConfig, start: CoeffScheme) -> OptimizeReport:
    """Alternate coefficient improvement at a probe c with re-bisection of c*.

    Each round maximizes h at probe = c* - offset over the polynomial
    coefficients and r (Nelder-Mead on the packed vector); a successful
    round (h(probe) > 1) re-certifies a smaller c*, a failed one halves the
    offset.  Deterministic for a fixed config.
    """
    lo, hi, step = config.c_grid
    scheme = start
    c_star = _certify(scheme, config, hi)

    trace: list[tuple[int, float]] = []
    offset = step
    vec = _pack_scheme(scheme, config.degrees)

    for _ in range(8):
        if offset < config.bisection_tol:
            break
        probe = c_star - offset
        if probe <= lo:
            offset /= 2.0
            continue

        def objective(v):
            try:
                return -h_value(_unpack_scheme(v, config.degrees), probe).h
            except DegenerateSchemeError:
                return math.inf

        vec_new, neg_h, nm_trace = nelder_mead(objective, vec, config)
        base = trace[-1][0] + 1 if trace else 0
        trace.extend((base + i, v) for i, v in nm_trace)

        if -neg_h > 1.0:
            vec = vec_new
            scheme = _unpack_scheme(vec, config.degrees)
            c_star = _certify(scheme, config, probe)
        else:
            offset /= 2.0

    margin = h_value(scheme, c_star).h - 1.0
    return OptimizeReport(best_scheme=scheme, c_star=c_star, margin=margin, trace=trace)


@dataclass(frozen=True)
class RowCheck:
    name: str
    c: float
    r: float
    margin: float  # h(c) - 1 of the scheme as published

    @property
    def passed(self) -> bool:
        return self.margin > 0.0


@dataclass(frozen=True)
class TableReport:
    rows: list[RowCheck]

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)


def verify_table() -> TableReport:
    """Evaluate every built-in reference scheme at its listed threshold."""
    return TableReport(
        rows=[
            RowCheck(
                name=preset.name,
                c=preset.c,
                r=preset.scheme.r,
                margin=h_value(preset.scheme, preset.c).h - 1.0,
            )
            for preset in PRESETS
        ]
    )
