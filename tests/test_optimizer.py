import numpy as np
import pytest

from zetagaps.fracpoly import FracPoly
from zetagaps.hfunc import CoeffScheme, DegenerateSchemeError, h_value
from zetagaps.optimizer import (
    OptimizeConfig,
    bracket_scan,
    nelder_mead,
    optimize_scheme,
    threshold_c,
    verify_table,
    _pack_scheme,
    _unpack_scheme,
)


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


def test_bracket_scan_validation(row1):
    with pytest.raises(ValueError):
        bracket_scan(row1.scheme, 0.53, 0.50, 0.001)
    with pytest.raises(ValueError):
        bracket_scan(row1.scheme, 0.50, 0.53, -0.001)


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


def test_threshold_rejects_invalid_bracket(row1):
    with pytest.raises(ValueError):
        threshold_c(row1.scheme, (0.52, 0.53), 1e-6)  # h > 1 at both ends


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
    degrees = (3, 1, 2)
    start_vec = _pack_scheme(row1.scheme, degrees)
    c = row1.c

    def objective(v):
        try:
            return -h_value(_unpack_scheme(v, degrees), c).h
        except DegenerateSchemeError:
            return float("inf")

    start_h = -objective(start_vec)
    cfg = OptimizeConfig(degrees=degrees, max_iters=120)
    _, neg_h, _ = nelder_mead(objective, start_vec, cfg)
    assert -neg_h >= start_h


def test_nelder_mead_rejects_nonfinite_start():
    with pytest.raises(ValueError):
        nelder_mead(lambda v: float("nan"), np.zeros(2), OptimizeConfig(max_iters=5))


# ---------------------------------------------------------------- pack / unpack


def test_pack_unpack_roundtrip(row2):
    degrees = (3, 1, 3)
    vec = _pack_scheme(row2.scheme, degrees)
    scheme = _unpack_scheme(vec, degrees)
    assert scheme.r == row2.scheme.r
    assert scheme.f1.terms == row2.scheme.f1.terms
    assert scheme.f1t.terms == row2.scheme.f1t.terms
    assert scheme.P.terms == row2.scheme.P.terms


def test_unpack_clamps_r():
    vec = np.array([1.0, 0.0, 9.0])  # f1 deg 0, f1t deg 0, no P, r = 9
    scheme = _unpack_scheme(vec, (0, 0, 0))
    assert scheme.r == 1.5


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


def test_optimize_deterministic(row1):
    cfg = OptimizeConfig(degrees=(3, 1, 2), max_iters=60)
    rep1 = optimize_scheme(cfg, row1.scheme)
    rep2 = optimize_scheme(cfg, row1.scheme)
    assert rep1.c_star == rep2.c_star
    assert rep1.margin == rep2.margin
    assert rep1.trace == rep2.trace


def test_optimize_recovers_from_perturbed_start(row1):
    perturbation_seed = 42
    cfg = OptimizeConfig(degrees=(3, 1, 2), max_iters=150)
    baseline = optimize_scheme(cfg, row1.scheme)

    rng = np.random.default_rng(perturbation_seed)
    vec = _pack_scheme(row1.scheme, cfg.degrees)
    vec[:-1] *= 1.0 + rng.uniform(-0.01, 0.01, size=vec.size - 1)
    perturbed = optimize_scheme(cfg, _unpack_scheme(vec, cfg.degrees))
    assert abs(perturbed.c_star - baseline.c_star) <= 1e-4


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
        OptimizeConfig(bisection_tol=0.0)


# ---------------------------------------------------------------- verify_table


def test_verify_table_rows_pass():
    report = verify_table()
    assert report.all_passed
    assert [row.name for row in report.rows] == [
        "table1-row1",
        "table1-row2",
        "table1-row3",
    ]
    for row in report.rows:
        assert row.margin > 0.0  # published coefficients carry h > 1 directly


def test_verify_table_thresholds_non_increasing():
    report = verify_table()
    cs = [row.c for row in report.rows]
    assert cs == sorted(cs, reverse=True)
