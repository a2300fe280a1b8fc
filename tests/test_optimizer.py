import math

import numpy as np
import pytest

from zetagaps.fracpoly import _SINE_POWERS, DomainError, FracPoly, sinc_coeffs
import zetagaps.hfunc
import zetagaps.optimizer
from zetagaps.hfunc import CoeffScheme, DegenerateSchemeError, h_grid, h_value
from zetagaps.presets import PRESETS
from zetagaps.optimizer import (
    CERTIFY_STEPS,
    NEWTON_STEPS,
    R_MAX,
    R_MIN,
    OptimizeConfig,
    RowCheck,
    TableReport,
    bracket_scan,
    grid_points,
    nelder_mead,
    optimize_scheme,
    threshold_c,
    verify_table,
    _best_threshold,
    _certify,
    _denominator_basis,
    _eigen_root,
    _unit_polys,
)

from conftest import certify_batch, reference_forms


def _count_calls(monkeypatch, module, name):
    """Record every argument tuple of module.name in the returned list."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def _scheme(r, f1, f1t, p):
    return CoeffScheme(
        r=r, f1=FracPoly.from_coeffs(f1), f1t=FracPoly.from_coeffs(f1t), P=FracPoly.from_coeffs(p)
    )


# ---------------------------------------------------------------- grid_points


def test_grid_points_end_at_c_hi():
    assert grid_points(0.5, 0.5154, 0.001)[-2:] == [0.515, 0.5154]
    # a span that is a multiple of step gets no duplicate end point
    for lo, hi, step, n in ((0.50, 0.53, 0.001, 31), (0.45, 0.60, 0.002, 76)):
        grid = grid_points(lo, hi, step)
        assert len(grid) == n and grid[-1] == hi
        assert all(b - a > 0.5 * step for a, b in zip(grid, grid[1:]))


# ---------------------------------------------------------------- bracket_scan


def test_bracket_scan_row1(row1):
    bracket = bracket_scan(row1.scheme, 0.50, 0.53, 0.001)
    assert bracket is not None
    lo, hi = bracket
    assert lo < hi <= 0.516
    assert h_value(row1.scheme, lo).h < 1.0 < h_value(row1.scheme, hi).h
    # the crossing this brackets sits at or below the listed threshold
    assert lo <= 0.515398


def test_bracket_scan_absent_when_h_stays_above_one(row1):
    assert bracket_scan(row1.scheme, 0.52, 0.53, 0.002) is None


def test_bracket_scan_propagates_degenerate_error():
    zero = CoeffScheme(
        r=1.18, f1=FracPoly.zero(), f1t=FracPoly.zero(), P=FracPoly.from_coeffs([0, 0, 1.0])
    )
    with pytest.raises(DegenerateSchemeError):
        bracket_scan(zero, 0.50, 0.53, 0.01)
    with pytest.raises(DegenerateSchemeError):
        h_grid(zero, grid_points(0.50, 0.53, 0.01))
    with pytest.raises(DegenerateSchemeError):
        threshold_c(zero, (0.50, 0.53), 1e-6)


def _bracket_scan_by_points(scheme, c_lo, c_hi, step):
    """Reference: walk the grid one h_value at a time, stopping at the first sign change."""
    grid = grid_points(c_lo, c_hi, step)
    prev_c, prev_v = grid[0], h_value(scheme, grid[0]).h - 1.0
    for cur_c in grid[1:]:
        cur_v = h_value(scheme, cur_c).h - 1.0
        if prev_v * cur_v < 0.0:
            return prev_c, cur_c
        prev_c, prev_v = cur_c, cur_v
    return None


@pytest.mark.parametrize(
    "window",
    [
        (0.45, 0.60, 0.002),
        (0.50, 0.53, 0.001),
        (0.5, 0.5154, 0.001),
        (0.515, 0.516, 0.001),
        (0.52, 0.53, 0.002),
        (0.40, 0.45, 0.01),
    ],
)
def test_bracket_scan_matches_pointwise_walk(rows, window):
    # the last two windows have no sign change; (0.515, 0.516) has it in its only pair
    for preset in rows:
        expect = _bracket_scan_by_points(preset.scheme, *window)
        assert bracket_scan(preset.scheme, *window) == expect


def test_denominator_compiled_once_per_scheme(row3, monkeypatch):
    calls = []
    denominator_terms = zetagaps.hfunc.denominator_terms
    monkeypatch.setattr(
        zetagaps.hfunc, "denominator_terms", lambda s: calls.append(s) or denominator_terms(s)
    )
    scheme = CoeffScheme(row3.scheme.r, row3.scheme.f1, row3.scheme.f1t, row3.scheme.P)
    bracket = bracket_scan(scheme, 0.45, 0.60, 0.002)
    threshold_c(scheme, bracket, 1e-6)
    assert calls == [scheme]


def test_bracket_scan_validation(row1):
    with pytest.raises(ValueError):
        bracket_scan(row1.scheme, 0.53, 0.50, 0.001)
    with pytest.raises(ValueError):
        bracket_scan(row1.scheme, 0.50, 0.53, -0.001)
    for step in (float("nan"), float("inf")):  # inf would give the grid [c_lo + 0 * inf]
        with pytest.raises(ValueError, match="step"):
            bracket_scan(row1.scheme, 0.50, 0.53, step)


def test_grid_points_are_bounded(row1):
    # a tiny step asked for 0.03 / 1e-300 = 3e298 points, and a subnormal one for inf
    too_many = r"step 1e-300 gives 3e\+298 grid points, over the limit of 100000"
    with pytest.raises(ValueError, match=too_many):
        grid_points(0.50, 0.53, 1e-300)
    with pytest.raises(ValueError, match=too_many):
        bracket_scan(row1.scheme, 0.50, 0.53, 1e-300)
    with pytest.raises(ValueError, match="step 5e-324 gives inf grid points"):
        grid_points(0.50, 0.53, 5e-324)
    with pytest.raises(ValueError, match=too_many):
        OptimizeConfig(c_grid=(0.50, 0.53, 1e-300))
    # 100,001 points is one too many; 90,001 pass
    with pytest.raises(ValueError, match=r"gives 1e\+05 grid points"):
        grid_points(0.1, 0.2, 1e-6)
    assert len(grid_points(0.1, 0.19, 1e-6)) == 90_001


# ---------------------------------------------------------------- threshold_c


def test_threshold_row3_certifies_bound(row3):
    bracket = bracket_scan(row3.scheme, 0.50, 0.53, 0.001)
    c_star = threshold_c(row3.scheme, bracket, 1e-6)
    assert bracket[0] <= c_star <= bracket[1]
    assert h_value(row3.scheme, c_star).h > 1.0
    assert c_star <= 0.515396 + 5e-6


def test_threshold_row1_certifies_bound(row1):
    bracket = bracket_scan(row1.scheme, 0.50, 0.53, 0.001)
    c_star = threshold_c(row1.scheme, bracket, 1e-6)
    assert h_value(row1.scheme, c_star).h > 1.0
    assert c_star <= 0.515398 + 5e-6


def test_threshold_halving_tol_moves_little(row1):
    bracket = bracket_scan(row1.scheme, 0.50, 0.53, 0.001)
    tol = 1e-5
    coarse = threshold_c(row1.scheme, bracket, tol)
    fine = threshold_c(row1.scheme, bracket, tol / 2.0)
    assert abs(coarse - fine) <= tol


def test_threshold_rejects_invalid_bracket(row1, monkeypatch):
    h_calls = _count_calls(monkeypatch, zetagaps.optimizer, "h_value")
    steps = _count_calls(monkeypatch, zetagaps.optimizer, "_sinc_rows")
    with pytest.raises(ValueError):
        threshold_c(row1.scheme, (0.52, 0.53), 1e-6)  # h > 1 at both ends
    # bisection walks down to the lower end, never below it, and then stops
    assert len(steps) <= CERTIFY_STEPS and len(h_calls) <= 2
    assert all(0.52 <= c <= 0.53 for c, in steps)
    with pytest.raises(ValueError, match="tol"):
        threshold_c(row1.scheme, (0.515, 0.516), float("nan"))
    with pytest.raises(ValueError, match="tol"):
        threshold_c(row1.scheme, (0.515, 0.516), 0.0)
    with pytest.raises(ValueError):
        threshold_c(row1.scheme, (0.516, 0.515), 1e-6)
    with pytest.raises(DomainError):
        threshold_c(row1.scheme, (0.515, 1.2), 1e-6)


def test_threshold_certificate_beats_rounding_budget(monkeypatch):
    # the presets and the 21 perturbed schemes of the certify benchmark's first batch
    h_calls = _count_calls(monkeypatch, zetagaps.optimizer, "h_value")
    for scheme in certify_batch():
        bracket = bracket_scan(scheme, 0.45, 0.60, 0.002)
        h_calls.clear()
        c = threshold_c(scheme, bracket, 1e-6)
        assert len(h_calls) <= 2
        assert type(c) is float and bracket[0] < c < bracket[1]
        hb = h_value(scheme, c)
        assert 0.0 < hb.budget < 1e-12
        assert hb.h - 1.0 > hb.budget
        lo, hi = h_grid(scheme, [c - 1e-7, c + 1e-7])
        slope = (hi - lo) / 2e-7
        assert h_value(scheme, c - 4.0 * hb.budget / slope).h < 1.0


def test_certify_without_bracket_reuses_the_scan(row1, ramp_scheme, monkeypatch):
    # no sign change on the grid: one scan, then one h_value at c_lo, whose breakdown decides
    h_calls = _count_calls(monkeypatch, zetagaps.optimizer, "h_value")
    scans = _count_calls(monkeypatch, zetagaps.optimizer, "bracket_scan")
    # h > 1 on the whole grid: c_lo itself certifies, at the scan's own h - 1 there
    margin = h_grid(row1.scheme, [0.52])[0] - 1.0
    assert _certify(row1.scheme, OptimizeConfig(c_grid=(0.52, 0.53, 0.002))) == (0.52, margin)
    # h < 1 on the whole grid
    with pytest.raises(DomainError, match="no sign change on the scan grid"):
        _certify(ramp_scheme, OptimizeConfig())
    assert h_calls == [(row1.scheme, 0.52), (ramp_scheme, 0.5)]
    assert len(scans) == 2


def test_certify_c_lo_only_above_the_rounding_budget(row1):
    # h - 1 > 0 on the whole grid, but at c_lo it is within the rounding budget of h: the
    # c_lo fallback certifies by threshold_c's rule, so this grid certifies nothing
    c_lo = 0.5153970643207866
    at_lo = h_value(row1.scheme, c_lo)
    assert 0.0 < at_lo.h - 1.0 <= at_lo.budget
    assert bracket_scan(row1.scheme, c_lo, 0.53, 0.001) is None
    with pytest.raises(DomainError, match=r"h\(c_lo\) - 1 = .* is not above its rounding budget"):
        _certify(row1.scheme, OptimizeConfig(c_grid=(c_lo, 0.53, 0.001)))


# ---------------------------------------------------------------- nelder_mead


def test_nelder_mead_convex_quadratic():
    rng = np.random.default_rng(31)
    start = rng.uniform(-1.0, 1.0, size=3)
    cfg = OptimizeConfig(max_iters=400)
    best_x, best_f, trace = nelder_mead(lambda v: float(v @ v), start, cfg)
    assert best_f < 1e-10
    assert trace[0][0] == 0
    assert trace[-1][1] == best_f


def test_nelder_mead_zero_iterations_returns_start():
    start = np.array([0.3, -0.4])
    cfg = OptimizeConfig(max_iters=0)
    best_x, best_f, trace = nelder_mead(lambda v: float(v @ v), start, cfg)
    assert np.array_equal(best_x, start)
    assert best_f == float(start @ start)
    assert trace == [(0, best_f)]


def test_nelder_mead_never_worse_than_start():
    def rastrigin(v):
        return float(10 * v.size + np.sum(v * v - 10 * np.cos(2 * np.pi * v)))

    start = np.array([1.2, -0.7, 2.3])
    cfg = OptimizeConfig(max_iters=50)
    _, best_f, _ = nelder_mead(rastrigin, start, cfg)
    assert best_f <= rastrigin(start)


def test_nelder_mead_monotone_on_h(row1):
    # f1 (4 coefficients) | f1t (2) | P's x and x**2 coefficients (2) | r
    s = row1.scheme
    start_vec = np.concatenate([s.f1.to_coeffs(), s.f1t.to_coeffs(), [0.0, 1.0], [s.r]])
    c = row1.c

    def objective(v):
        return -h_value(_scheme(np.clip(v[8], 1.0, 1.5), v[:4], v[4:6], [0.0, *v[6:8]]), c).h

    start_h = -objective(start_vec)
    cfg = OptimizeConfig(max_iters=120)
    _, neg_h, _ = nelder_mead(objective, start_vec, cfg)
    assert -neg_h >= start_h


def test_nelder_mead_shrinks_toward_best_vertex():
    # from 0, the reflection -0.05 ties the worst vertex 0.05 and the contraction 0.025
    # sits on a peak of sin**2, so the first iteration shrinks: 0.025 is evaluated again
    calls = []

    def bumpy(v):
        calls.append(float(v[0]))
        return float(v[0] ** 2 + 10.0 * np.sin(20.0 * np.pi * v[0]) ** 2)

    best_x, best_f, trace = nelder_mead(bumpy, [0.0], OptimizeConfig(max_iters=400))
    assert calls[:7] == [0.0, 0.05, -0.05, 0.025, 0.025, -0.025, 0.0125]
    assert best_x.tolist() == [0.0] and best_f == 0.0
    assert all(f == 0.0 for _, f in trace)


def test_nelder_mead_rejects_nonfinite_start():
    with pytest.raises(ValueError):
        nelder_mead(lambda v: float("nan"), np.zeros(2), OptimizeConfig(max_iters=5))
    with pytest.raises(ValueError, match="empty"):
        nelder_mead(lambda v: 0.0, [], OptimizeConfig(max_iters=5))


# ---------------------------------------------------------------- the eigen threshold


def _degrees(scheme):
    return tuple(p.to_coeffs().size - 1 for p in (scheme.f1, scheme.f1t, scheme.P))


def test_best_threshold_beats_each_preset_at_its_root(rows):
    # at fixed (r, P, c) the eigenvector maximizes h over f1, f1t of the preset's degrees
    for preset in rows:
        s = preset.scheme
        root, best = _best_threshold(s.r, s.P, _degrees(s), preset.c)
        assert root < preset.c
        assert h_value(best, root).h == pytest.approx(1.0, abs=1e-12)
        assert h_value(best, root).h > h_value(s, root).h
        assert (best.r, best.P) == (s.r, s.P)


@pytest.mark.parametrize("scale", [-2.0, 0.5, 3.0])
def test_gauge_p_times_s_with_f1t_over_s(rows, scale):
    for preset in rows:
        s = preset.scheme
        p_s = FracPoly.from_coeffs(scale * s.P.to_coeffs())
        gauged = CoeffScheme(s.r, s.f1, FracPoly.from_coeffs(s.f1t.to_coeffs() / scale), p_s)
        assert h_value(gauged, preset.c).h == pytest.approx(h_value(s, preset.c).h, abs=1e-14)
        root = _best_threshold(s.r, s.P, _degrees(s), preset.c)[0]
        assert _best_threshold(s.r, p_s, _degrees(s), preset.c)[0] == pytest.approx(root, abs=1e-12)


@pytest.mark.parametrize("degrees", [(3, 1, 2), (5, 3, 2), (6, 2, 3)])
def test_best_threshold_ignores_p_x_coefficient(row1, degrees):
    # P -> P + e x is f1 -> f1 + e (1 - x) f1t, which f1 absorbs when deg f1 > deg f1t
    p = np.zeros(degrees[2] + 1)
    p[-1] = 1.0
    root = _best_threshold(row1.scheme.r, FracPoly.from_coeffs(p), degrees, row1.c)[0]
    for eps in (-1.0, 0.5, 2.0):
        p[1] = eps
        moved = _best_threshold(row1.scheme.r, FracPoly.from_coeffs(p), degrees, row1.c)[0]
        assert moved == pytest.approx(root, abs=1e-12)


def test_best_threshold_clamps_r(row1):
    for r, clamped in ((9.0, 1.5), (0.5, 1.0)):
        assert _best_threshold(r, row1.scheme.P, (3, 1, 2), row1.c)[1].r == clamped


def _full_newton_threshold(r, P, degrees, c):
    # _eigen_root written out without its shortcuts: the reference forms' rows summed, all
    # NEWTON_STEPS steps, each rebuilding B(c) by tensordot, with f1, f1t and keep built afresh
    d1, d2, _ = degrees
    r = float(np.clip(r, R_MIN, R_MAX))
    ones = (FracPoly.from_coeffs(np.ones(d + 1)) for d in (d1, d2))
    a, b = (rows.sum(axis=0) for rows in reference_forms(CoeffScheme(r, *ones, P)))
    w = a.shape[0] // 2
    keep = np.r_[: d1 + 1, w : w + d2 + 1]
    z = _denominator_basis(a[np.ix_(keep, keep)])
    b = z.T @ (-2.0 * r / math.pi * b[:, keep[:, None], keep]) @ z
    for _ in range(NEWTON_STEPS):
        s = sinc_coeffs(c)
        lam, vecs = np.linalg.eigh(np.tensordot(s, b, 1))
        v = vecs[:, 0]
        c -= (c - lam[0] - 1.0) / (1.0 - (_SINE_POWERS * s / c) @ (b @ v @ v))
    return c, r, z @ v


def _hex(*floats):
    return [x.hex() for x in np.hstack(floats).tolist()]


def _report_hex(report):
    s = report.best_scheme
    coeffs = (p.to_coeffs() for p in (s.f1, s.f1t, s.P))
    trace = [f for _, f in report.trace]
    return _hex(report.c_star, report.margin, s.r, *coeffs, trace), [i for i, _ in report.trace]


_P_WIDE = ([0.0, 0.0, 1e6, 0.0, 1.0], [0.0, 0.0, -1e3, 1e3, 1.0], [0.0, 0.0, -0.5, -0.5, 1.0])
_EIGEN_CASES = {
    **{p.name: (p.scheme.r, p.scheme.P, _degrees(p.scheme)) for p in PRESETS},
    **{f"{d}-P{i}": (1.18, FracPoly.from_coeffs(p), d)
       for d in ((5, 3, 4), (7, 4, 5)) for i, p in enumerate(_P_WIDE)},
    **{f"r={r}": (r, PRESETS[0].scheme.P, (3, 1, 2)) for r in (9.0, 0.5)},  # clipped r
}


@pytest.mark.parametrize("c", [0.05, 0.5154, 0.95])
@pytest.mark.parametrize("r, P, degrees", _EIGEN_CASES.values(), ids=_EIGEN_CASES)
def test_best_threshold_is_bitwise_the_full_newton_loop(r, P, degrees, c):
    # the summed forms, stopping at a step of exactly 0 and the one product per step change no
    # bit of the root, r or the eigenvector, from every start; the scheme holds that vector
    got = _eigen_root(r, P, degrees, c)
    assert _hex(*got) == _hex(*_full_newton_threshold(r, P, degrees, c))
    root, scheme = _best_threshold(r, P, degrees, c)
    coeffs = (p.to_coeffs() for p in (scheme.f1, scheme.f1t))
    assert _hex(root, scheme.r, *coeffs) == _hex(*got)


@pytest.mark.parametrize("degrees", [(3, 1, 2), (5, 3, 4)], ids=["3-1-2", "5-3-4"])
def test_optimize_scheme_is_bitwise_the_full_newton_search(row1, degrees, monkeypatch):
    # the whole search with _full_newton_threshold as its objective, and for its final
    # scheme: the same c*, margin, scheme and trace, bit for bit
    config = OptimizeConfig(degrees=degrees)
    got = _report_hex(optimize_scheme(config, row1.scheme))
    monkeypatch.setattr(zetagaps.optimizer, "_eigen_root", _full_newton_threshold)
    assert got == _report_hex(optimize_scheme(config, row1.scheme))


def test_best_threshold_stops_at_the_fixed_point(row1, monkeypatch):
    # one eigen-solve for the denominator basis, then one per Newton step: an optimize run
    # from row1 stops early often enough to stay below 1 + NEWTON_STEPS solves a call; and
    # of the schemes it builds, one per objective call holds the unit f1, f1t, and one more
    # the eigenvector of the search's end
    solves, built = [], []
    eigh, root, scheme = np.linalg.eigh, zetagaps.optimizer._eigen_root, CoeffScheme

    def counting_eigh(m):
        solves[-1] += 1
        return eigh(m)

    def counting_root(*args):
        solves.append(0)
        return root(*args)

    monkeypatch.setattr(zetagaps.optimizer.np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(zetagaps.optimizer, "_eigen_root", counting_root)
    monkeypatch.setattr(zetagaps.optimizer, "CoeffScheme", lambda *a: built.append(a) or scheme(*a))
    optimize_scheme(OptimizeConfig(), row1.scheme)
    assert solves and max(solves) <= 1 + NEWTON_STEPS
    assert sum(solves) < (1 + NEWTON_STEPS) * len(solves)
    eigenvector = [args for args in built if args[1] is not _unit_polys(3, 1)[0]]
    assert len(built) == len(solves) + 1 and len(eigenvector) == 1


def test_objective_reads_its_polynomials_once(row1, monkeypatch):
    # the search's objective builds one scheme, whose construction calls to_coeffs on its
    # f1, f1t and P, and no eigenvector scheme
    calls, to_coeffs = [], FracPoly.to_coeffs
    monkeypatch.setattr(FracPoly, "to_coeffs", lambda p: calls.append(p) or to_coeffs(p))
    _eigen_root(1.18 + 1e-9, row1.scheme.P, (3, 1, 2), row1.c)
    assert len(calls) == 3


def test_denominator_basis_drops_null_directions():
    with pytest.raises(DegenerateSchemeError):
        _denominator_basis(np.zeros((3, 3)))
    # P = x makes the denominator form singular at degrees (3, 1)
    a = _scheme(1.18, np.ones(4), np.ones(2), [0.0, 1.0]).forms[0]
    keep = np.r_[:4, 4:6]
    z = _denominator_basis(a[np.ix_(keep, keep)])
    assert z.shape == (6, 4)
    assert np.allclose(z.T @ a[np.ix_(keep, keep)] @ z, np.eye(4), atol=1e-10)


# ---------------------------------------------------------------- optimize_scheme


def test_optimize_from_row1_meets_bound(row1):
    cfg = OptimizeConfig(degrees=(3, 1, 2), max_iters=150)
    report = optimize_scheme(cfg, row1.scheme)
    assert report.c_star <= 0.5154 + 1e-4
    assert report.margin > 0.0
    # the margin is a fresh evaluation of the final scheme at c_star
    assert report.margin == pytest.approx(
        h_value(report.best_scheme, report.c_star).h - 1.0, abs=1e-15
    )


def test_optimize_margin_is_the_certifying_evaluation(row1, monkeypatch):
    # h is evaluated at c* once, by threshold_c's certificate, whose h - 1 is the margin:
    # the start and the result each make two h_value calls, (hi, lo) of their bracket
    h_calls = _count_calls(monkeypatch, zetagaps.optimizer, "h_value")
    report = optimize_scheme(OptimizeConfig(max_iters=20), row1.scheme)
    assert len(h_calls) == 4
    assert h_calls[0][1] > h_calls[1][1] and h_calls[2][1] > h_calls[3][1]
    assert report.c_star in (h_calls[0][1], h_calls[2][1])
    assert report.margin == h_value(report.best_scheme, report.c_star).h - 1.0


def test_optimize_deterministic(row1):
    cfg = OptimizeConfig(degrees=(3, 1, 2), max_iters=60)
    rep1 = optimize_scheme(cfg, row1.scheme)
    rep2 = optimize_scheme(cfg, row1.scheme)
    assert rep1.c_star == rep2.c_star
    assert rep1.margin == rep2.margin
    assert rep1.trace == rep2.trace


def test_optimize_searches_r_and_p_only(row1, monkeypatch):
    # the simplex sees r and P's coefficients between x**2 (x when deg f1 <= deg f1t)
    # and the top one, never f1 or f1t
    import zetagaps.optimizer as optimizer

    sizes = []

    def spy(objective, start_vector, config=None):
        sizes.append(len(start_vector))
        return nelder_mead(objective, start_vector, config)

    monkeypatch.setattr(optimizer, "nelder_mead", spy)
    for degrees in ((3, 1, 2), (6, 2, 3), (1, 1, 2)):
        optimize_scheme(OptimizeConfig(degrees=degrees, max_iters=3), row1.scheme)
    assert sizes == [1, 2, 2]


def test_optimize_default_config_beats_row1(row1):
    report = optimize_scheme(OptimizeConfig(), row1.scheme)
    assert report.c_star <= 0.515397
    assert report.margin > 0.0
    # certified at the eigen root 0.5153961497, not at a bisection point above it
    assert report.c_star <= 0.5153962
    assert report.margin > h_value(report.best_scheme, report.c_star).budget
    # at (3, 1, 2) both gauges fix P, so the search moves r alone and P stays x**2
    assert report.best_scheme is not row1.scheme
    assert report.best_scheme.P.to_coeffs().tolist() == [0.0, 0.0, 1.0]


def test_optimize_recovers_from_perturbed_start(row1):
    perturbation_seed = 42
    cfg = OptimizeConfig(degrees=(3, 1, 2), max_iters=150)
    baseline = optimize_scheme(cfg, row1.scheme)

    rng = np.random.default_rng(perturbation_seed)
    s = row1.scheme
    jitter = 1.0 + rng.uniform(-0.01, 0.01, size=8)  # f1 (4), f1t (2), P's x and x**2 (2)
    start = _scheme(
        s.r, s.f1.to_coeffs() * jitter[:4], s.f1t.to_coeffs() * jitter[4:6], [0.0, 0.0, jitter[7]]
    )
    perturbed = optimize_scheme(cfg, start)
    assert abs(perturbed.c_star - baseline.c_star) <= 1e-4


def test_optimize_rejects_start_above_configured_degrees(row1):
    # row1's P = x**2 has no place among deg P = 1's coefficients
    with pytest.raises(ValueError, match="start scheme exceeds the configured degrees"):
        optimize_scheme(OptimizeConfig(degrees=(3, 1, 1)), row1.scheme)


def test_optimize_degenerate_start_raises():
    zero = CoeffScheme(
        r=1.18, f1=FracPoly.zero(), f1t=FracPoly.zero(), P=FracPoly.from_coeffs([0, 0, 1.0])
    )
    with pytest.raises(DegenerateSchemeError):
        optimize_scheme(OptimizeConfig(max_iters=10), zero)


def test_optimize_config_validation():
    with pytest.raises(ValueError):
        OptimizeConfig(c_grid=(0.6, 0.5, 0.001))
    with pytest.raises(ValueError):
        OptimizeConfig(c_grid=(0.5, 0.6, -0.1))
    with pytest.raises(ValueError):
        OptimizeConfig(degrees=(3, 1, 0))
    nan = float("nan")
    for bad in (
        dict(c_grid=(0.5, 0.6, nan)),
        dict(c_grid=(0.5, 0.6, float("inf"))),
        dict(simplex_scale=0.0),
        dict(simplex_scale=nan),
        dict(simplex_scale=float("inf")),
    ):
        with pytest.raises(ValueError):
            OptimizeConfig(**bad)
    # each of these once failed late or not at all: numpy's or range's TypeError, or an
    # IndexError
    for bad, field in (
        (dict(degrees=(3.5, 1, 2)), "degrees"),
        (dict(degrees=(3, 1)), "degrees"),
        (dict(degrees=(True, 1, 2)), "degrees"),
        (dict(degrees=3), "degrees"),
        (dict(max_iters=2.7), "max_iters"),
        (dict(max_iters=True), "max_iters"),
        (dict(max_iters=-1), "max_iters"),
        # c_grid is checked before it is unpacked, and a bool is not a number
        (dict(c_grid=(0.5, 0.6)), "c_grid"),
        (dict(c_grid=(0.5, 0.6, 0.01, 0.1)), "c_grid"),
        (dict(c_grid=0.5), "c_grid"),
        (dict(c_grid="abc"), "c_grid"),
        (dict(c_grid=(0.5, 0.6, True)), "c_grid"),
        (dict(c_grid=(0.5, "0.6", 0.01)), "c_grid"),
        (dict(simplex_scale=True), "simplex_scale"),
    ):
        with pytest.raises(ValueError, match=field):
            OptimizeConfig(**bad)
    assert OptimizeConfig(c_grid=[np.float64(0.5), 0.6, 1e-3], simplex_scale=-0.1).c_grid[0] == 0.5
    assert OptimizeConfig(degrees=(np.int64(3), 1, 2), max_iters=np.int64(0)).max_iters == 0


# ---------------------------------------------------------------- verify_table


def test_verify_table_rows_pass():
    report = verify_table()
    assert report.all_passed
    assert [row.name for row in report.rows] == [
        "table1-row1",
        "table1-row2",
        "table1-row3",
    ]
    for row, preset in zip(report.rows, PRESETS):
        assert row.margin > 0.0  # published coefficients carry h > 1 directly
        assert row.budget == h_value(preset.scheme, preset.c).budget
        assert 0.0 < row.budget < 1e-12 < row.margin


def test_row_check_passes_by_the_certificate_rule():
    # a margin within the rounding budget of h certifies nothing, as in threshold_c
    for margin, passed in ((3e-14, True), (2e-14, False), (1e-15, False), (-1e-15, False)):
        row = RowCheck("row", 0.5, 1.18, margin=margin, budget=2e-14)
        assert row.passed is passed
        assert TableReport([row]).all_passed is passed


def test_verify_table_thresholds_non_increasing():
    report = verify_table()
    cs = [row.c for row in report.rows]
    assert cs == sorted(cs, reverse=True)
