import ast
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import Chebyshev
from numpy.polynomial.chebyshev import chebpts1, chebvander

from zetagaps import quadcheck
from zetagaps.fracpoly import DomainError, FracPoly
from zetagaps.hfunc import CoeffScheme, assemble_h, h_value
from zetagaps.quadcheck import (
    _jacobi_rule,
    _kernel_rules,
    _unit_rule,
    beta_kernel_rule,
    dimreduct_check,
    gauss_legendre,
    h_value_numeric,
)

from conftest import HB_FIELDS, certify_batch


# ---------------------------------------------------------------- Gauss-Legendre


def test_order_two_classical_values():
    nodes, weights = gauss_legendre(2)
    assert nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert weights == pytest.approx([1.0, 1.0], abs=1e-15)


def test_weights_sum_to_two():
    for order in (2, 5, 16, 48, 64, 127, 128):
        nodes, weights = gauss_legendre(order)
        assert abs(float(np.sum(weights)) - 2.0) < 1e-13
        assert np.all(weights > 0)
        assert np.all((nodes > -1) & (nodes < 1))


def test_nodes_exactly_symmetric():
    for order in (7, 48):
        nodes, weights = gauss_legendre(order)
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])


def test_degree_of_exactness():
    # int_0^1 x^7 dx = 1/8 with an order-4 rule (exact through degree 7)
    nodes, weights = gauss_legendre(4)
    x = (nodes + 1.0) / 2.0
    w = weights / 2.0
    assert float(w @ x**7) == pytest.approx(1.0 / 8.0, rel=1e-15)


def test_order_bounds():
    for order in (0, 1, 129, 48.5, True):
        with pytest.raises(ValueError, match="order"):
            gauss_legendre(order)
        with pytest.raises(ValueError, match="order"):
            beta_kernel_rule(1.2, order)
    with pytest.raises(ValueError, match="order"):
        beta_kernel_rule(1.2, 500)


def test_beta_kernel_rule_integrates_cubic():
    # int_0^1 (1-t)^(a-1) t^3 dt = B(a, 4)
    from scipy.special import beta as scipy_beta

    a = 1.3924
    t, w = beta_kernel_rule(a, 48)
    assert float(w @ t**3) == pytest.approx(scipy_beta(a, 4.0), rel=1e-14)


def test_beta_kernel_rule_rejects_nan():
    with pytest.raises(ValueError, match="a must be positive"):
        beta_kernel_rule(math.nan, 8)


def test_beta_kernel_rule_rejects_infinite_and_overflowing_a():
    # under Tier-1's RuntimeWarning-as-error filter: a ValueError naming the value, no warning
    with pytest.raises(ValueError, match="a must be positive and finite, got inf"):
        beta_kernel_rule(math.inf, 8)
    for order in (2, 8):  # order 2 overflows only in the first off-diagonal entry
        with pytest.raises(ValueError, match=r"alpha=1e\+308, beta=0.0 is not finite"):
            beta_kernel_rule(1e308, order)


# ---------------------------------------------------------------- Gauss-Jacobi

# (alpha, beta) of the rules: (a-1, 0) for K1 and every inner Beta kernel, (a, 0) for
# K2-K4, (0, a) for the outer u of the test-local product rule below and (0, a+1) for that
# of the double-P1 rule, at a = r**2 for r = 1 (alpha + beta = 0 in K1), the presets'
# r = 1.18 and the r = 1.3 below
JACOBI_CASES = [
    (alpha, beta)
    for a in (1.0, 1.3924, 1.69)
    for alpha, beta in ((a - 1.0, 0.0), (a, 0.0), (0.0, a), (0.0, a + 1.0))
]


@pytest.mark.parametrize("order", (2, 16, 48, 128))
def test_jacobi_rule_matches_scipy(order):
    # scipy only as the external reference; its endpoint weights are off by up to
    # 2.3e-14 * sum(w) against 30 digits (next test), so weights compare to 5e-14
    from scipy.special import roots_jacobi

    for alpha, beta in JACOBI_CASES:
        with np.errstate(all="raise"):
            x, w = _jacobi_rule(alpha, beta, order)
        xr, wr = roots_jacobi(order, alpha, beta)
        wr = wr / 2.0 ** (alpha + beta + 1.0)
        assert np.max(np.abs(x - (xr + 1.0) / 2.0)) <= 1e-14, (alpha, beta)
        assert np.max(np.abs(w - wr)) <= 5e-14 * wr.sum(), (alpha, beta)


def test_jacobi_rule_matches_30_digits():
    # K1 at the presets' a = 1.3924, order 128, where scipy's weights are furthest off:
    # Newton on P_n from t = 2x - 1, then the [0, 1] weight C_n / ((1 - t^2) P_n'(t)^2)
    import mpmath as mp

    n, alpha, beta = 128, 0.3924, 0.0
    x, w = _jacobi_rule(alpha, beta, n)
    with mp.workdps(30):
        al, be = mp.mpf(alpha), mp.mpf(beta)
        cn = mp.gamma(n + al + 1) * mp.gamma(n + be + 1)
        cn /= mp.gamma(n + al + be + 1) * mp.factorial(n)

        def dp(t):
            return (n + al + be + 1) / 2 * mp.jacobi(n - 1, al + 1, be + 1, t)

        xt, wt = [], []
        for xi in x:
            t = mp.mpf(2.0 * xi - 1.0)
            for _ in range(3):
                t -= mp.jacobi(n, al, be, t) / dp(t)
            xt.append(float((t + 1) / 2))
            wt.append(float(cn / ((1 - t * t) * dp(t) ** 2)))
    assert np.max(np.abs(x - xt)) <= 1e-15
    assert np.max(np.abs(w - wt)) <= 2e-15 * sum(wt)


def test_jacobi_rule_exact_on_monomials():
    # int_0^1 (1-x)**alpha x**(k+beta) dx = B(k+beta+1, alpha+1) for k <= 2*order - 1
    from scipy.special import beta as scipy_beta

    for order in (2, 16, 48):
        for alpha, beta in JACOBI_CASES:
            x, w = _jacobi_rule(alpha, beta, order)
            for k in range(min(2 * order - 1, 40) + 1):
                assert float(w @ x**k) == pytest.approx(
                    scipy_beta(k + beta + 1.0, alpha + 1.0), rel=1e-13
                ), (order, alpha, beta, k)


def test_one_sided_jacobi_rule_sums_to_its_exact_beta():
    # (alpha + beta + 1) sum(w) = 1 for a one-sided rule, where a difference of lgammas
    # would cancel, to 1.6e-9 at 1e6 and 2.3e-7 at 1e8
    for alpha, beta in ((0.0, 1e6), (0.0, 1e8), (1e6, 0.0), (1e8, 0.0)):
        _, w = _jacobi_rule(alpha, beta, 16)
        assert abs((alpha + beta + 1.0) * w.sum() - 1.0) <= 1e-14, (alpha, beta)


def test_jacobi_rule_chebyshev_closed_form():
    # alpha = beta = -1/2 (alpha + beta = -1): x_j = (1 + cos((2j-1) pi / 2n)) / 2, w_j = pi/n
    for order in (2, 7, 48, 128):
        with np.errstate(all="raise"):
            x, w = _jacobi_rule(-0.5, -0.5, order)
        j = np.arange(order, 0, -1)
        assert np.max(np.abs(x - (1.0 + np.cos((2 * j - 1) * np.pi / (2 * order))) / 2.0)) <= 1e-15
        assert np.max(np.abs(w - np.pi / order)) <= 1e-14 * np.pi


def test_jacobi_rule_rejects_non_integrable_weights():
    for alpha, beta in ((-1.0, 0.0), (0.0, -1.5), (math.nan, 0.0)):
        with pytest.raises(ValueError, match="exceed -1"):
            _jacobi_rule(alpha, beta, 16)


def test_jacobi_rule_rejects_infinite_weights_and_overflowing_rules():
    for alpha, beta in ((math.inf, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match=r"must be finite, got (inf, 0.0|0.0, inf)"):
            _jacobi_rule(alpha, beta, 16)
    # the recurrence squares 2n + alpha + beta, which overflows above about 1.3e154
    with pytest.raises(ValueError, match=r"alpha=0.0, beta=1e\+160 is not finite"):
        _jacobi_rule(0.0, 1e160, 16)


# ---------------------------------------------------------------- K2-K4 on one rule

# P = x, x + x^2, 0.3x - 0.5x^2 + x^3 and x^4, as ascending coefficients
P_SHAPES = ([0, 1], [0, 1, 1], [0, 0.3, -0.5, 1], [0, 0, 0, 0, 1])


def _moment_schemes(rows):
    # the presets, then row1's f1 and f1t with each P of P_SHAPES at r = 1 and 1.3
    schemes = [p.scheme for p in rows]
    return schemes + [
        CoeffScheme(r=r, f1=rows[0].scheme.f1, f1t=rows[0].scheme.f1t, P=FracPoly.from_coeffs(q))
        for r in (1.0, 1.3)
        for q in P_SHAPES
    ]


def _product_rule(scheme, order):
    # K2-K4 as flattened order^2 product rules on x = u*t: u^a outer Gauss-Jacobi nodes
    # carrying r^2 P1(1-u), r^4 (P1 * P1)(1-u) (an order-node Gauss-Legendre sum) and
    # r^2 P1(1-u) P(1-u), times (1-t)^(a-1) inner ones
    a, p = scheme.r * scheme.r, scheme.P.eval
    t, wt = beta_kernel_rule(a, order)
    u, wu = _jacobi_rule(0.0, a, order)
    s, ws = _unit_rule(order)
    y = 1.0 - u
    ys, y_rest = np.outer(y, s), np.outer(y, 1.0 - s)
    p_y = p(y)
    p1, p1p1 = p_y / y, y * ((p(ys) / ys * p(y_rest) / y_rest) @ ws)
    x = np.outer(u, t).ravel()
    outer = (a * wu * p1, a * a * wu * p1p1, a * wu * p1 * p_y)
    return [(x, np.outer(w, wt).ravel()) for w in outer]


def test_k2_to_k4_match_the_product_rule(rows):
    # K(y) = y^a Pi_K(y) with Pi_K a polynomial, so one order-node rule on y^a has the
    # moments of the order^2 product rule on x = u*t, to rounding
    for scheme in _moment_schemes(rows):
        _, *kernels = _kernel_rules(scheme.r, scheme.P, 24)
        for k, ((x, w), (xr, wr)) in enumerate(zip(kernels, _product_rule(scheme, 24)), 2):
            for m in range(21):
                assert float(w @ x**m) == pytest.approx(float(wr @ xr**m), rel=1e-14, abs=0.0), (
                    scheme, k, m
                )


def _double_p1_rule(scheme, order):
    # K3 = r^4 P1 * BC(P1) taken literally on the double-P1 region: an order^3 tensor of
    # u^(a+1) outer, u^a middle and (1-t)^(a-1) inner Gauss-Jacobi nodes
    a, p = scheme.r * scheme.r, scheme.P.eval
    t, wt = beta_kernel_rule(a, order)
    u, wu = _jacobi_rule(0.0, a, order)
    u3, wu3 = _jacobi_rule(0.0, a + 1.0, order)
    us = np.outer(u3, 1.0 - u)
    w3 = (wu3 * p(1.0 - u3) / (1.0 - u3))[:, None] * wu * p(us) / us
    x3 = np.multiply.outer(np.outer(u3, u), t).ravel()
    return x3, a * a * np.multiply.outer(w3, wt).ravel()


def test_k3_shares_k2_nodes_and_matches_the_double_p1_rule(rows):
    # convolution commutes and associates, so r^4 P1 * BC(P1) = r^4 BC(P1 * P1): the
    # order-node rule on K2's nodes has the moments of the literal order^3 one
    for scheme in _moment_schemes(rows):
        (_, _), (x2, _), (x, w), (x4, _) = _kernel_rules(scheme.r, scheme.P, 24)
        assert x.size == 24 and x2 is x and x4 is x
        xr, wr = _double_p1_rule(scheme, 24)
        for m in range(21):
            assert float(w @ x**m) == pytest.approx(
                float(wr @ xr**m), rel=1e-14, abs=0.0
            ), (scheme, m)


# ---------------------------------------------------------------- h agreement


def _reference_cases(rows):
    # (name, scheme, c): the presets at c near both ends of (0, 1) and at their own c, row1's
    # polynomials at r = 1 (r^2 an integer) and r = 1.3, and P of degree 1 to 4 with row3's
    # f1 and f1t at r = 1, 1.18 and 1.5
    cases = [(p.name, p.scheme, c) for p in rows for c in (0.01, p.c, 0.99)]
    base = rows[0]
    for r in (1.0, 1.3):
        scheme = CoeffScheme(r=r, f1=base.scheme.f1, f1t=base.scheme.f1t, P=base.scheme.P)
        cases.append((f"{base.name} r={r}", scheme, base.c))
    row3 = rows[2]
    for big_p in P_SHAPES:
        for r in (1.0, 1.18, 1.5):
            scheme = CoeffScheme(
                r=r, f1=row3.scheme.f1, f1t=row3.scheme.f1t, P=FracPoly.from_coeffs(big_p)
            )
            cases.append((f"{row3.name} r={r} P={big_p}", scheme, row3.c))
    return cases


def test_components_match_exact_on_reference_rows(rows):
    # to perfbench's cross-check tolerance
    for name, scheme, c in _reference_cases(rows):
        exact = h_value(scheme, c)
        numeric = h_value_numeric(scheme, c, order=48)
        for f in HB_FIELDS:
            assert getattr(exact, f) == pytest.approx(
                getattr(numeric, f), rel=1e-13, abs=0.0
            ), f"{name} c={c}: {f}"
        assert exact.h == pytest.approx(numeric.h, abs=1e-9)


def test_components_match_exact_at_every_order(rows):
    # worst measured 8.7e-15 (order 128), 4.4e-15 at order 48; the order^2 product rule read
    # through a Chebyshev interpolant measured 5.1e-14 at order 128: bound 2e-14, with no
    # absolute floor (approx's default 1e-12 would pass any error on n43, about 3e-5)
    cases = _reference_cases(rows)
    assert len(cases) == 23
    for order in (16, 32, 48, 64, 128):
        for name, scheme, c in cases:
            exact, numeric = h_value(scheme, c), h_value_numeric(scheme, c, order)
            for f in HB_FIELDS:
                assert getattr(exact, f) == pytest.approx(
                    getattr(numeric, f), rel=2e-14, abs=0.0
                ), f"{name} c={c} order={order}: {f}"


def _sine_grid(c, order, gs):
    """The set-up the reference's sine convolutions share: at the order + 1 Chebyshev points x
    of [0, 1], mapped as Chebyshev.interpolate maps them, z = x*zeta, sin(pi c z)/zeta,
    {g: g(x*(1 - zeta))} for g in gs, the Chebyshev-Vandermonde matrix of the points and
    w_zeta.  (zeta, w_zeta) is Gauss-Legendre on [0, 1]; z = x*zeta turns sin(pi c z)/z dz
    into sin(pi c x zeta)/zeta dzeta."""
    zeta, w_zeta = _unit_rule(order)
    cheb = chebpts1(order + 1)
    x = (0.5 + 0.5 * cheb)[:, None]
    z = x * zeta
    rest = x * (1.0 - zeta)
    sine = np.sin(math.pi * c * z) / zeta
    return z, sine, {g: g.eval(rest) for g in gs}, chebvander(cheb, order), w_zeta


def _sine_convolution(grid, h, g):
    """Degree-order interpolant on [0, 1] of x -> int_0^x sin(pi c z)/z h(z) g(x - z) dz,
    h None for 1, on the set-up grid of _sine_grid: numpy's Chebyshev.interpolate, with
    this convolution's own product against the Vandermonde matrix."""
    z, sine, g_rest, vander, w_zeta = grid
    y = sine if h is None else sine * h.eval(z)
    coef = np.dot(vander.T, (y * g_rest[g]) @ w_zeta)
    coef[0] /= vander.shape[0]
    coef[1:] /= 0.5 * vander.shape[0]
    return Chebyshev(coef, domain=[0.0, 1.0])


def _one_convolution_per_row(scheme, c, order):
    """h_value_numeric with a sine convolution built for each numerator row on its own,
    each an interpolant evaluated at its kernel's nodes (Clenshaw, by numpy's chebval)."""
    f1, f1t, big_p = scheme.f1, scheme.f1t, scheme.P
    one = FracPoly.from_coeffs([1.0])
    kappa = -2.0 * scheme.r / math.pi
    k1, k2, k3, k4 = _kernel_rules(scheme.r, scheme.P, order)
    grid = _sine_grid(c, order, (f1, f1t))
    table = (  # kernel, scale, f, h, g; h None for a denominator row
        (k1, 1.0, f1, None, f1), (k2, 2.0, f1, None, f1t),
        (k3, 1.0, f1t, None, f1t), (k4, 1.0, f1t, None, f1t),
        (k1, kappa, f1, one, f1), (k2, kappa, f1t, one, f1), (k2, kappa, f1, one, f1t),
        (k1, kappa, f1, big_p, f1t), (k3, kappa, f1t, one, f1t), (k4, kappa, f1t, one, f1t),
        (k2, kappa, f1t, big_p, f1t),
    )
    values = []
    for (x, w), scale, f, h, g in table:
        inner = g.eval(x) if h is None else _sine_convolution(grid, h, g)(x)
        values.append(scale * float(w @ (f.eval(x) * inner)))
    return assemble_h(c, values[:4], values[4:])


def test_three_sine_convolutions_per_call(row3):
    # the compile holds the sample weights of the numerator's three distinct convolutions
    # (h, g) = (1, f1), (1, f1t), (P, f1t) in five pairs, each at the kernel nodes that
    # read it; a call's samples are the reference's integrals there, summed in another order
    s, c, order = row3.scheme, row3.c, 32
    h_value_numeric(s, c, order)
    _, weights, z, _ = quadcheck._compiled(s, order)
    assert weights.shape == (5, order, order) and z.shape == (2, order, order)
    samples = (weights * np.sin(math.pi * c * z)[[0, 0, 1, 1, 1]]).sum(axis=2)
    (t, _), (x, _), _, _ = _kernel_rules(s.r, s.P, order)
    zeta, w_zeta = _unit_rule(order)
    pairs = ((t, None, s.f1), (t, s.P, s.f1t), (x, None, s.f1), (x, None, s.f1t), (x, s.P, s.f1t))
    for row, (nodes, h, g) in zip(samples, pairs):
        z_ref = np.outer(nodes, zeta)
        inner = np.sin(math.pi * c * z_ref) / zeta
        if h is not None:
            inner *= h.eval(z_ref)
        reference = (inner * g.eval(np.outer(nodes, 1.0 - zeta))) @ w_zeta
        assert np.max(np.abs(row - reference)) <= 1e-15 * np.max(np.abs(reference))


@pytest.mark.parametrize("c, order", [(0.5154, 48), (0.3, 32), (0.97, 64)])
def test_compiled_rows_match_one_convolution_per_row(c, order):
    # the compile pairs each row's kernel with a convolution's samples through one vector,
    # the reference reads each interpolant at the nodes: the same sums in another order
    # (3.5e-15 relative measured at most over these cases)
    for scheme in certify_batch():
        compiled = h_value_numeric(scheme, c, order).as_dict()
        per_row = _one_convolution_per_row(scheme, c, order).as_dict()
        for name in HB_FIELDS + ["h"]:
            assert compiled[name] == pytest.approx(per_row[name], rel=1e-13, abs=0.0), (
                scheme, name
            )


def test_each_factor_once_per_node_array(row3, monkeypatch):
    # a compile evaluates f1 and f1t once on each of the two node arrays they are needed
    # on, P three times for the outer weights Pi_K and once on the convolutions' z, and
    # f1, f1t once at x - z on both node arrays (9); a second c evaluates none of them
    evals = []
    real_eval = FracPoly.eval
    monkeypatch.setattr(FracPoly, "eval", lambda p, x: evals.append(p) or real_eval(p, x))
    quadcheck._compiled.cache_clear()
    h_value_numeric(row3.scheme, row3.c, order=48)
    assert len(evals) == 9
    h_value_numeric(row3.scheme, row3.c - 0.001, order=48)
    assert len(evals) == 9


def test_second_c_reuses_the_compiled_rules(row1, monkeypatch):
    # c enters only through the sine samples: a second c on the same (scheme, order)
    # evaluates no polynomial and builds no Gauss-Jacobi rule, and a warm call returns
    # the same floats as a cold one
    assert quadcheck._compiled.cache_info().maxsize == 1
    s, c = row1.scheme, row1.c
    quadcheck._compiled.cache_clear()
    cold = h_value_numeric(s, c, 48).as_dict()
    h_value_numeric(s, 0.3, 48)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-scheme work redone at a second c")

    monkeypatch.setattr(FracPoly, "eval", forbidden)
    monkeypatch.setattr(quadcheck, "_jacobi_rule", forbidden)
    warm = h_value_numeric(s, c, 48).as_dict()
    assert [v.hex() for v in warm.values()] == [v.hex() for v in cold.values()]
    with pytest.raises(AssertionError, match="per-scheme work"):
        h_value_numeric(s, c, 32)  # another order compiles again


def test_cold_compile_holds_no_vandermonde_matrix(row3):
    # a Chebyshev-Vandermonde matrix of 2,304 order^2 product-rule nodes by 49 degrees
    # would be 903 KB; the one-dimensional rules sample the sines at 2 x 48 nodes (peak
    # measured at 437 KB, 1,269 KB with the matrix): bound 700 KB
    quadcheck._legendre(48)  # built once per process, not per compile
    quadcheck._compiled.cache_clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        quadcheck._compiled(row3.scheme, 48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 700 * 1024, f"{(peak - start) / 1024:.0f} KB"


def test_legendre_rule_built_once_per_order(row1, monkeypatch):
    # and the exact inner rule of P1 * P1, at deg P = 2 nodes for row1, once per process
    built = []
    real_leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(
        np.polynomial.legendre, "leggauss", lambda n: built.append(n) or real_leggauss(n)
    )
    quadcheck._legendre.cache_clear()
    quadcheck._compiled.cache_clear()
    for _ in range(2):
        for order in (32, 48):
            h_value_numeric(row1.scheme, row1.c, order)
    assert sorted(built) == [2, 32, 48]
    assert quadcheck._legendre.cache_info().maxsize == 127  # one entry per valid order
    nodes, weights = quadcheck._legendre(48)
    for array in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_gauss_legendre_returns_arrays_the_caller_owns():
    nodes, weights = gauss_legendre(48)
    expected = [a.copy() for a in (nodes, weights)]
    nodes[:] = 0.0
    weights *= 2.0
    assert all(np.array_equal(a, b) for a, b in zip(gauss_legendre(48), expected))
    assert all(np.array_equal(a, b) for a, b in zip(quadcheck._legendre(48), expected))


def test_doubling_order_changes_little(row1, row3):
    for preset in (row1, row3):
        h32 = h_value_numeric(preset.scheme, preset.c, order=32)
        h64 = h_value_numeric(preset.scheme, preset.c, order=64)
        for f in HB_FIELDS:
            v32, v64 = getattr(h32, f), getattr(h64, f)
            assert abs(v32 - v64) <= 1e-9 * abs(v64), f"{preset.name}: {f}"


def test_zero_p_components_match_exactly(row1):
    scheme = CoeffScheme(
        r=row1.scheme.r, f1=row1.scheme.f1, f1t=row1.scheme.f1t, P=FracPoly.zero()
    )
    numeric = h_value_numeric(scheme, row1.c, order=24)
    for f in ("d2", "d31", "d32", "n2", "n31", "n32", "n41", "n42", "n43"):
        assert getattr(numeric, f) == 0.0


def test_unit_scheme_d1_both_paths(plain_scheme):
    exact = h_value(plain_scheme, 0.6)
    numeric = h_value_numeric(plain_scheme, 0.6, order=24)
    assert exact.d1 == pytest.approx(1.0, rel=1e-14)
    assert numeric.d1 == pytest.approx(1.0, rel=1e-13)


def test_h_value_numeric_validation(row1):
    for order in (8, 48.5, 129, True):
        with pytest.raises(ValueError, match="order"):
            h_value_numeric(row1.scheme, row1.c, order=order)
    with pytest.raises(DomainError):
        h_value_numeric(row1.scheme, 1.2)


def test_quadcheck_stays_independent_of_the_exact_route():
    # the oracle re-derives every component from the paper's definitions, so it may not
    # reach for hfunc's Beta ladder, series or compiled per-scheme arrays
    import zetagaps

    tree = ast.parse((pathlib.Path(zetagaps.__file__).parent / "quadcheck.py").read_text())
    imports = (ast.Import, ast.ImportFrom)
    imported = {a.name for n in ast.walk(tree) if isinstance(n, imports) for a in n.names}
    read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    exact = {"_beta_grid", "moments", "beta_convolve", "convolve", "sinc_coeffs", "SINE_TERMS",
             "_kernel_moments", "_forms"}
    assert not imported & exact, imported & exact
    compiled = {"kernels", "moments", "dense"}
    assert not read & compiled, read & compiled


# ---------------------------------------------------------------- reduction identity


def test_dimreduct_simplest_case():
    lhs, rhs = dimreduct_check(1, (1,), FracPoly.from_coeffs([1.0]), math.e)
    assert lhs == pytest.approx(0.5, abs=1e-12)
    assert rhs == pytest.approx(0.5, abs=1e-12)


def test_dimreduct_a2():
    lhs, rhs = dimreduct_check(1, (2,), FracPoly.from_coeffs([1.0]), math.e)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_dimreduct_two_levels_cubic():
    poly = FracPoly.from_coeffs([0.3, -1.2, 0.5, 2.0])
    lhs, rhs = dimreduct_check(2, (1, 2), poly, math.e**3)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_dimreduct_randomized():
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        a = [int(rng.integers(1, 4)) for _ in range(m)]
        poly = FracPoly.from_coeffs([float(rng.uniform(-2, 2)) for _ in range(5)])
        d_limit = float(rng.uniform(1.2, math.e**4))
        lhs, rhs = dimreduct_check(m, a, poly, d_limit)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(rhs), 1e-12)


def test_dimreduct_validation():
    one = FracPoly.from_coeffs([1.0])
    with pytest.raises(ValueError):
        dimreduct_check(0, (), one, math.e)
    with pytest.raises(ValueError):
        dimreduct_check(2, (1,), one, math.e)
    for d_limit in (0.5, math.nan):
        with pytest.raises(ValueError, match="upper limit"):
            dimreduct_check(1, (1,), one, d_limit)
