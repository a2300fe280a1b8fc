"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS/FAIL line directly to the terminal (bypassing
capture) with the measured quantity and its wall time.
"""

import math
import time

import numpy as np
import pytest

from zetagaps import (
    CoeffScheme,
    FracPoly,
    OptimizeConfig,
    beta_convolve,
    bracket_scan,
    build_tables,
    dimreduct_check,
    finite_h,
    h_value,
    h_value_numeric,
    mertens_deficit,
    optimize_scheme,
    threshold_c,
    verify_table,
)
from zetagaps.hfunc import denominator_terms, numerator_terms
from zetagaps.fracpoly import convolve, integrate_weighted

from conftest import HB_FIELDS, compose_one_minus


def announce(capsys, index, ok, detail, elapsed):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {index}: {status} - {detail} ({elapsed:.2f} s)")


def test_criterion_1_reference_rows_reproduce(capsys, rows):
    """Each published row yields h > 1 at its listed c, in under 1 s per row."""
    t0 = time.time()
    per_row = []
    for preset in rows:
        t_row = time.time()
        margin = h_value(preset.scheme, preset.c).h - 1.0
        per_row.append((preset.name, margin, time.time() - t_row))
    report = verify_table()
    elapsed = time.time() - t0
    ok = (
        report.all_passed
        and all(m > 0 for _, m, _ in per_row)
        and all(dt < 1.0 for _, _, dt in per_row)
    )
    paths = ", ".join(
        f"{row.name} margin={row.margin:+.2e} (direct)"
        for row in report.rows
    )
    announce(capsys, 1, ok, paths, elapsed)
    assert ok


def test_criterion_2_threshold_bound(capsys, row3):
    """Bisection on the lowest-threshold row certifies c <= 0.515396 + 5e-6."""
    t0 = time.time()
    report = verify_table()
    scheme = row3.scheme  # the published coefficients, as verify_table checks them
    assert report.rows[2].margin > 0
    bracket = bracket_scan(scheme, 0.50, 0.53, 0.001)
    c_star = threshold_c(scheme, bracket, 1e-6)
    h_at = h_value(scheme, c_star).h
    elapsed = time.time() - t0
    ok = c_star <= 0.515396 + 5e-6 and h_at > 1.0 and elapsed < 10.0
    announce(capsys, 2, ok, f"c* = {c_star:.8f} with h(c*) = {h_at:.10f}", elapsed)
    assert ok


def test_criterion_3_optimizer_reaches_bound(capsys, row1):
    """optimize_scheme from the degrees-(3,1,2) row reaches c* <= 0.5154 + 1e-4."""
    t0 = time.time()
    cfg = OptimizeConfig(degrees=(3, 1, 2), max_iters=300)
    report = optimize_scheme(cfg, row1.scheme)
    elapsed = time.time() - t0
    ok = report.c_star <= 0.5154 + 1e-4 and report.margin > 0 and elapsed < 300.0
    announce(
        capsys, 3, ok,
        f"c* = {report.c_star:.8f}, margin = {report.margin:+.2e}, "
        f"{len(report.trace) - 1} iterations",  # the trace starts with the start's row
        elapsed,
    )
    assert ok


def test_criterion_4_exact_vs_quadrature(capsys, rows):
    """All 11 components agree between the exact and quadrature routes to 1e-7."""
    t0 = time.time()
    worst = 0.0
    for preset in rows:
        exact = h_value(preset.scheme, preset.c)
        numeric = h_value_numeric(preset.scheme, preset.c, order=48)
        for f in HB_FIELDS:
            rel = abs(getattr(exact, f) - getattr(numeric, f)) / abs(getattr(numeric, f))
            worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst <= 1e-7 and elapsed < 30.0
    announce(capsys, 4, ok, f"worst relative component deviation {worst:.2e}", elapsed)
    assert ok


def test_criterion_5_reduction_identity(capsys):
    """20 randomized nested-integral reduction instances agree to 1e-9."""
    t0 = time.time()
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 4))
        a = [int(rng.integers(1, 4)) for _ in range(m)]
        poly = FracPoly.from_coeffs([float(rng.uniform(-2, 2)) for _ in range(5)])
        d_limit = float(rng.uniform(1.2, math.e**4))
        lhs, rhs = dimreduct_check(m, a, poly, d_limit)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-12))
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 60.0
    announce(capsys, 5, ok, f"worst relative identity error {worst:.2e}", elapsed)
    assert ok


def test_criterion_6_prime_log_sum(capsys):
    """The prime log-sum deficit stays in (-3, 0) and stabilizes."""
    t0 = time.time()
    deficits = {y: mertens_deficit(y) for y in (10**3, 10**4, 10**5, 10**6)}
    elapsed = time.time() - t0
    ok = (
        all(-3.0 < d < 0.0 for d in deficits.values())
        and abs(deficits[10**6] - deficits[10**4]) < 0.5
        and elapsed < 10.0
    )
    announce(
        capsys, 6, ok,
        "deficits " + ", ".join(f"{y:.0e}: {d:+.3f}" for y, d in deficits.items()),
        elapsed,
    )
    assert ok


def test_criterion_7_sieve_vs_asymptotics(capsys, ramp_scheme):
    """Finite arithmetic ratio within 25% (normalized by the limit ratio) at T = 1e6.

    "The finite ratio" is h_finite itself (the `sieve` module and `finite_h`
    call it that), so the asserted quantity is |h_finite - h_limit| / |h_limit|,
    the same relative deviation `test_finite_h_tracks_limit` bounds and
    `demos/03_arithmetic_oracle.py` prints.  Measured: 0.2981 at T = 1e4,
    0.2430 at T = 1e6, and still shrinking (0.2216 at 1e7, 0.2033 at 1e8).

    The deviation relative to the limit numerator, |h_finite - h_limit| /
    |h_limit - c| = 0.5887 at T = 1e6, is printed but not asserted.  The
    finite numerator reaches 0.411 of the limit one, the product of two
    measured factors: the kernel argument theta = log K / log T = 0.62 gives
    N(c theta) / N(c) = 0.645, and the prime sum, which converges at the rate
    set by Mertens' constant (sum_{p <= x} log p / p = log x - 1.33...),
    supplies 0.638 of N(c theta).  That quantity falls only about 0.05 a
    decade (0.5366 at 1e7, 0.4924 at 1e8), so a 25% bound on it would test
    T, not the oracle.
    """
    t0 = time.time()
    c = 0.6
    h_lim = h_value(ramp_scheme, c).h
    h_fin = {t_param: finite_h(ramp_scheme, c, t_param)[0] for t_param in (1e4, 1e6)}
    dev = {t_param: abs(h - h_lim) / abs(h_lim) for t_param, h in h_fin.items()}
    numerator_dev = abs(h_fin[1e6] - h_lim) / abs(h_lim - c)
    elapsed = time.time() - t0
    trend_ok = dev[1e6] <= dev[1e4]
    ratio_ok = dev[1e6] <= 0.25
    ok = trend_ok and ratio_ok and elapsed < 30.0
    announce(
        capsys, 7, ok,
        f"|dh|/|h| {dev[1e6]:.4f} at T=1e6 (bound 0.25), "
        f"{dev[1e4]:.4f} at T=1e4, trend {'ok' if trend_ok else 'violated'}; "
        f"reported only: |dh|/|h-c| {numerator_dev:.4f} at T=1e6",
        elapsed,
    )
    assert trend_ok, f"deviation failed to shrink: {dev}"
    assert ratio_ok, (
        f"|h_finite - h_limit| / |h_limit| = {dev[1e6]:.4f} exceeds 0.25 at "
        "T=1e6 (measured 0.2430 on a correct oracle)"
    )
    assert elapsed < 30.0, f"criterion 7 took {elapsed:.1f} s, over its 30 s limit"


def test_criterion_8_property_bundle(capsys, rows):
    """Scaling invariance, exact zero collapse, weight-interchange symmetry,
    Beta-convolution quadrature checks, multiplicativity spot checks."""
    from scipy.integrate import quad

    t0 = time.time()
    checks = []

    # joint rescaling of (f1, f1t) leaves h unchanged to 1e-10
    worst = 0.0
    for preset in rows:
        base = h_value(preset.scheme, preset.c).h
        for s in (2.0, -0.5):
            scaled = CoeffScheme(
                r=preset.scheme.r,
                f1=FracPoly(preset.scheme.f1.shift, preset.scheme.f1.coeffs * s),
                f1t=FracPoly(preset.scheme.f1t.shift, preset.scheme.f1t.coeffs * s),
                P=preset.scheme.P,
            )
            worst = max(worst, abs(h_value(scaled, preset.c).h - base))
    checks.append(("scaling", worst <= 1e-10))

    # P = 0 collapses the P-carrying components to exact zeros
    zero_ok = True
    for preset in rows:
        collapsed = CoeffScheme(
            r=preset.scheme.r, f1=preset.scheme.f1, f1t=preset.scheme.f1t, P=FracPoly.zero()
        )
        d = denominator_terms(collapsed)
        n = numerator_terms(collapsed, preset.c)
        zero_ok = zero_ok and d[1:] == (0.0, 0.0, 0.0) and n[1:] == (0.0,) * 6
    checks.append(("zero-collapse", zero_ok))

    # the double-P1 component is symmetric under interchanging its two weights
    sym_worst = 0.0
    for preset in rows:
        scheme = preset.scheme
        a = scheme.r**2
        p1 = FracPoly(scheme.P.shift - 1.0, scheme.P.coeffs)  # P(y)/y
        big_f = beta_convolve(a, scheme.f1t.mul(scheme.f1t))
        alt = scheme.r**4 * integrate_weighted(
            1.0, big_f.mul(compose_one_minus(convolve(p1, p1)))
        )
        d31 = denominator_terms(scheme)[2]
        sym_worst = max(sym_worst, abs(d31 - alt) / abs(alt))
    checks.append(("d31-symmetry", sym_worst <= 1e-10))

    # randomized Beta convolutions against adaptive quadrature
    rng = np.random.default_rng(13)
    bc_worst = 0.0
    for _ in range(10):
        a = float(rng.uniform(0.5, 3.0))
        poly = FracPoly.from_coeffs([float(rng.uniform(-3, 3)) for _ in range(7)])
        conv = beta_convolve(a, poly)
        for u in (0.1, 0.5, 1.0):
            ref, _ = quad(
                lambda v: poly.eval(v), 0.0, u, weight="alg", wvar=(0.0, a - 1.0),
                epsabs=1e-14, epsrel=1e-13,
            )
            bc_worst = max(bc_worst, abs(conv.eval(u) - ref) / max(abs(ref), 1e-12))
    checks.append(("beta-convolve", bc_worst <= 1e-10))

    # multiplicativity spot checks for lambda and d_r
    tables = build_tables(1.18, 10**5)
    rng = np.random.default_rng(19)
    mult_ok = True
    count = 0
    while count < 1000:
        m = int(rng.integers(2, 1000))
        n = int(rng.integers(2, tables.limit // m))
        if math.gcd(m, n) != 1:
            continue
        mult_ok = mult_ok and tables.liouville[m * n] == tables.liouville[m] * tables.liouville[n]
        mult_ok = mult_ok and abs(
            tables.dr[m * n] - tables.dr[m] * tables.dr[n]
        ) <= 1e-12 * abs(tables.dr[m * n])
        count += 1
    checks.append(("multiplicativity", mult_ok))

    elapsed = time.time() - t0
    ok = all(passed for _, passed in checks) and elapsed < 60.0
    detail = ", ".join(f"{name} {'ok' if passed else 'FAILED'}" for name, passed in checks)
    announce(capsys, 8, ok, detail, elapsed)
    assert ok
