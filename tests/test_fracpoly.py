import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval
from scipy.integrate import quad
from scipy.special import beta as scipy_beta

from zetagaps.fracpoly import (
    SINE_TERMS,
    DomainError,
    FracPoly,
    _beta_grid,
    beta_convolve,
    convolve,
    integrate_weighted,
    sinc_coeffs,
    sinc_truncation_bound,
)
from zetagaps.hfunc import _sine_table

from conftest import compose_one_minus, from_terms

ROW1_F1 = [(1.95, 0.0), (1.47, 1.0), (-1.07, 2.0), (-0.29, 3.0)]


# ---------------------------------------------------------------- construction / eval


def test_zero_coefficients_fold_into_the_zero_element():
    p = FracPoly(3.0, [0.0])
    assert p.is_zero and p.shift == 0.0


def test_rejects_negative_shift():
    with pytest.raises(DomainError):
        FracPoly(-0.5, [1.0])


def test_eval_constant_term_at_zero():
    assert from_terms(ROW1_F1).eval(0.0) == 1.95


def test_eval_zero_poly():
    assert FracPoly.zero().eval(0.7) == 0.0


def test_eval_row1_at_one():
    # direct coefficient sum: 1.95 + 1.47 - 1.07 - 0.29
    assert from_terms(ROW1_F1).eval(1.0) == pytest.approx(2.06, abs=1e-12)


def test_eval_zero_to_the_zero_is_one():
    assert from_terms([(2.0, 0.0)]).eval(0.0) == 2.0


def test_eval_rejects_negative_argument():
    with pytest.raises(DomainError):
        from_terms(ROW1_F1).eval(-0.1)


def test_eval_vectorized_matches_scalar():
    p = from_terms(ROW1_F1)
    xs = np.linspace(0.0, 1.0, 7)
    out = p.eval(xs)
    assert out.shape == xs.shape
    for x, v in zip(xs, out):
        assert v == pytest.approx(p.eval(float(x)), rel=1e-15)


def test_from_coeffs_ascending_degree():
    p = FracPoly.from_coeffs([1.95, 1.47, -1.07, -0.29])
    assert p.terms == ROW1_F1


def test_to_coeffs_inverts_from_coeffs_on_presets():
    from zetagaps.presets import PRESETS

    for dense in ([1.95, 1.47, -1.07, -0.29], [0.0, 0.0, 1.0, 0.083]):
        assert FracPoly.from_coeffs(dense).to_coeffs().tolist() == dense
    for preset in PRESETS:
        for p in (preset.scheme.f1, preset.scheme.f1t, preset.scheme.P):
            dense = p.to_coeffs()
            assert FracPoly.from_coeffs(dense).terms == p.terms
            assert dense.size == int(p.degree) + 1


def test_to_coeffs_zero_poly():
    assert FracPoly.zero().to_coeffs().tolist() == [0.0]


def test_to_coeffs_rejects_fractional_exponents():
    with pytest.raises(DomainError):
        from_terms([(1.0, 0.5)]).to_coeffs()


# ---------------------------------------------------------------- mul


def test_mul_difference_of_squares():
    one_plus = from_terms([(1.0, 0.0), (1.0, 1.0)])
    one_minus = from_terms([(1.0, 0.0), (-1.0, 1.0)])
    assert one_plus.mul(one_minus).terms == [(1.0, 0.0), (-1.0, 2.0)]


def test_mul_adds_exponents():
    p = from_terms([(1.0, 0.3924)]).mul(from_terms([(1.0, 1.0)]))
    assert p.terms == [(1.0, 1.3924)]


def test_mul_row1_square_at_zero():
    f1 = from_terms(ROW1_F1)
    assert f1.mul(f1).eval(0.0) == pytest.approx(3.8025, abs=1e-12)


# ---------------------------------------------------------------- compose_one_minus


def test_compose_linear():
    assert compose_one_minus(from_terms([(1.0, 1.0)])).terms == [(1.0, 0.0), (-1.0, 1.0)]


def test_compose_square():
    assert compose_one_minus(from_terms([(1.0, 2.0)])).terms == [
        (1.0, 0.0),
        (-2.0, 1.0),
        (1.0, 2.0),
    ]


def test_compose_row2_p1():
    # P1 = x + 0.036 x^2 reflected: (1-x) + 0.036 (1-x)^2 = 1.036 - 1.072 x + 0.036 x^2
    p1 = from_terms([(1.0, 1.0), (0.036, 2.0)])
    reflected = compose_one_minus(p1)
    expect = [(1.036, 0.0), (-1.072, 1.0), (0.036, 2.0)]
    for (c, e), (ce, ee) in zip(reflected.terms, expect):
        assert c == pytest.approx(ce, abs=1e-15)
        assert e == ee
    rng = np.random.default_rng(3)
    for x in rng.uniform(0.0, 1.0, size=5):
        assert reflected.eval(float(x)) == pytest.approx(p1.eval(1.0 - float(x)), rel=1e-13)


def test_compose_rejects_fractional_exponents():
    with pytest.raises(DomainError):
        compose_one_minus(from_terms([(1.0, 1.5)]))


# ---------------------------------------------------------------- beta_convolve


def test_beta_convolve_constant_a1():
    # int_0^u dv = u
    assert beta_convolve(1.0, from_terms([(1.0, 0.0)])).terms == [(1.0, 1.0)]


def test_beta_convolve_constant_a2():
    # int_0^u (u-v) dv = u^2/2
    assert beta_convolve(2.0, from_terms([(1.0, 0.0)])).terms == [(0.5, 2.0)]


def test_beta_convolve_fractional_vs_quadrature():
    a = 1.3924
    conv = beta_convolve(a, from_terms([(1.0, 1.0)]))
    assert conv.terms[0][1] == pytest.approx(a + 1.0, abs=1e-15)
    assert conv.terms[0][0] == pytest.approx(scipy_beta(a, 2.0), rel=1e-14)
    for u in (0.25, 0.5, 1.0):
        ref, _ = quad(
            lambda v: v, 0.0, u, weight="alg", wvar=(0.0, a - 1.0),
            epsabs=1e-14, epsrel=1e-13,
        )
        assert conv.eval(u) == pytest.approx(ref, abs=1e-12)


def test_beta_convolve_randomized_vs_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = float(rng.uniform(0.5, 3.0))
        p = from_terms([(float(rng.uniform(-3, 3)), float(k)) for k in range(7)])
        conv = beta_convolve(a, p)
        for u in (0.1, 0.5, 1.0):
            ref, _ = quad(
                lambda v: p.eval(v), 0.0, u, weight="alg", wvar=(0.0, a - 1.0),
                epsabs=1e-14, epsrel=1e-13,
            )
            assert conv.eval(u) == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_beta_convolve_rejects_nonpositive_a():
    with pytest.raises(DomainError):
        beta_convolve(0.0, from_terms([(1.0, 0.0)]))


# ---------------------------------------------------------------- convolve


def test_convolve_constants():
    # int_0^u 1 dv = u
    assert convolve(from_terms([(1.0, 0.0)]), from_terms([(1.0, 0.0)])).terms == [(1.0, 1.0)]


def test_convolve_symmetry():
    rng = np.random.default_rng(5)
    p = from_terms([(float(rng.uniform(-2, 2)), float(k)) for k in range(4)])
    q = from_terms([(float(rng.uniform(-2, 2)), float(k)) for k in range(3)])
    lhs, rhs = convolve(p, q), convolve(q, p)
    for x in np.linspace(0.0, 1.0, 9):
        assert lhs.eval(float(x)) == pytest.approx(rhs.eval(float(x)), rel=1e-12, abs=1e-14)


def test_convolve_vs_quadrature():
    p = from_terms([(1.0, 0.0), (-0.7, 2.0)])
    q = from_terms([(0.5, 1.0), (1.2, 3.0)])
    conv = convolve(p, q)
    from scipy.integrate import quad as _quad

    for u in (0.3, 0.8, 1.0):
        ref, _ = _quad(lambda v: p.eval(v) * q.eval(u - v), 0.0, u, epsabs=1e-14)
        assert conv.eval(u) == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------- integrate_weighted


def test_integrate_weighted_constant():
    a = 1.3924
    assert integrate_weighted(a, from_terms([(1.0, 0.0)])) == pytest.approx(1.0 / a, rel=1e-14)
    assert integrate_weighted(a, from_terms([(1.0, 0.0)])) == pytest.approx(0.718184, abs=5e-7)


def test_integrate_weighted_plain():
    assert integrate_weighted(1.0, from_terms([(1.0, 1.0)])) == 0.5


def test_integrate_weighted_a2():
    assert integrate_weighted(2.0, from_terms([(1.0, 1.0)])) == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_integrate_weighted_a1_is_exact_termwise():
    rng = np.random.default_rng(9)
    p = from_terms([(float(rng.uniform(-5, 5)), float(k) + 0.3924) for k in range(8)])
    termwise = float(np.sum(p.coeffs * (1.0 / (p.exponents + 1.0))))
    assert integrate_weighted(1.0, p) == termwise


def test_integrate_weighted_rejects_nonpositive_a():
    with pytest.raises(DomainError):
        integrate_weighted(-1.0, from_terms([(1.0, 0.0)]))


# ---------------------------------------------------------------- pairing


def _pair(k, q):
    """<k, q> = int_0^1 k(1 - u) q(u) du = (k * q)(1)."""
    return convolve(k, q).eval(1.0)


def test_pair_with_power_kernel_is_integrate_weighted():
    # <x**(a-1), q> = int_0^1 (1-u)**(a-1) q(u) du
    a = 1.18**2
    for shift in (0.0, 0.5):
        q = from_terms([(c, e + shift) for c, e in ROW1_F1])
        got = _pair(from_terms([(1.0, a - 1.0)]), q)
        assert got == pytest.approx(integrate_weighted(a, q), rel=1e-15, abs=0)


def test_pair_fractional_vs_quadrature():
    k = from_terms([(1.0, 0.3924), (-0.6, 1.3924)])  # k(1-u) = (1-u)**0.3924 * (1 - 0.6 (1-u))
    q = from_terms([(0.5, 0.5), (1.2, 2.5)])  # q(u) = u**0.5 * (0.5 + 1.2 u**2)
    ref, _ = quad(
        lambda u: (1.0 - 0.6 * (1.0 - u)) * (0.5 + 1.2 * u * u), 0.0, 1.0,
        weight="alg", wvar=(0.5, 0.3924), epsabs=1e-15, epsrel=1e-14,
    )
    assert _pair(k, q) == pytest.approx(ref, rel=1e-13)


def test_moments_and_convolve_stay_finite_past_gamma_overflow():
    # exponents near 180 are past where Gamma itself overflows a float; the
    # Beta ladder behind kernel moments and convolve must stay finite there
    x, y = np.array([151.3924, 152.3924]), np.arange(171.0, 182.0)
    expect = [[scipy_beta(xi, yj) for yj in y[[0, -1]]] for xi in x]
    np.testing.assert_allclose(_beta_grid(x, y)[:, [0, -1]], expect, rtol=1e-12, atol=0)
    conv = convolve(from_terms([(1.0, 175.0)]), from_terms([(2.0, 3.0)]))
    assert conv.terms == [(pytest.approx(2.0 * scipy_beta(176.0, 4.0), rel=1e-12), 179.0)]


# ---------------------------------------------------------------- sine series


def test_sinc_series_at_origin():
    c = 0.515398
    assert polyval(0.0, sinc_coeffs(c)) == pytest.approx(math.pi * c, rel=1e-15)
    assert polyval(0.0, sinc_coeffs(c)) == pytest.approx(1.61917, abs=5e-6)


def test_sinc_series_at_one():
    # sin(pi/2)/1 = 1
    assert polyval(1.0, sinc_coeffs(0.5)) == pytest.approx(1.0, abs=1e-14)


def test_sinc_truncation_bound_default():
    # first omitted term for 24 terms at c = 0.52
    assert sinc_truncation_bound(0.52, 24) < 1e-18


def test_sinc_series_matches_sine_on_grid():
    v = np.linspace(0.01, 1.0, 100)
    for c in (0.4, 0.515398, 0.6):
        series = polyval(v * v, sinc_coeffs(c))
        exact = np.sin(math.pi * c * v) / v
        assert np.max(np.abs(series - exact)) < 1e-15


def test_sinc_series_validation():
    assert sinc_coeffs(0.5).shape == (SINE_TERMS,)
    nan, inf = float("nan"), float("inf")
    for c, shown in ((-0.5, "-0.5"), (0.0, "0.0"), (nan, "nan"), (inf, "inf"), (-inf, "-inf")):
        with pytest.raises(DomainError, match=f"got {shown}$"):
            sinc_coeffs(c)
    # every entry of an array is checked
    for cs, shown in (([0.5, nan], "nan"), ([0.2, 0.3, -1.0], "-1.0"), ([inf, 0.5], "inf")):
        with pytest.raises(DomainError, match=f"got {shown}$"):
            sinc_coeffs(np.array(cs))


def test_sinc_coeffs_array_columns_equal_scalar_coeffs():
    cs = np.linspace(0.01, 0.99, 37)
    grid = sinc_coeffs(cs)
    assert grid.shape == (SINE_TERMS, cs.size)
    for k, c in enumerate(cs.tolist()):
        assert np.array_equal(grid[:, k], sinc_coeffs(c))


def test_sinc_truncation_bound_validation():
    nan, inf = float("nan"), float("inf")
    for c, shown in ((nan, "nan"), (0.0, "0.0"), (0, "0"), (-0.3, "-0.3"), (inf, "inf")):
        with pytest.raises(DomainError, match=f"got {shown}$"):
            sinc_truncation_bound(c, 24)
    # a fractional count once gave a bound between two series lengths (0.0209 at 2.5)
    for n_terms, shown in ((-1, "-1"), (2.5, "2.5"), (2.0, "2.0"), (True, "True"), (nan, "nan")):
        with pytest.raises(DomainError, match=f"a nonnegative integer, got {shown}$"):
            sinc_truncation_bound(0.5, n_terms)
    assert sinc_truncation_bound(0.5, 0) == pytest.approx(math.pi * 0.5, rel=1e-15)
    assert sinc_truncation_bound(0.5, np.int64(24)) == sinc_truncation_bound(0.5, 24)


# ---------------------------------------------------------------- Beta ladder


@pytest.mark.parametrize("a", [1.18**2, 1.0])
def test_beta_grid_matches_40_digit_beta_at_kernel_shifts(a):
    # Beta values at the kernel shifts, B(a+i, q+1) for i < 12, q < 70 (hfunc's
    # kernels read the row i = 0); a = 1 is the r = 1 edge, where every argument is an integer
    x, y = (a - 1.0) + 1.0 + np.arange(12), 1.0 + np.arange(70)
    got = _beta_grid(x, y)
    with mp.workdps(40):
        ref = np.array([[float(mp.beta(mp.mpf(xi), mp.mpf(yj))) for yj in y] for xi in x])
    assert np.max(np.abs(got / ref - 1.0)) <= 1e-14


def test_sine_table_is_exact_integer_beta():
    # B(m, n) = (m-1)! (n-1)! / (m+n-1)! for the integer factors B(2j+k+1, l+1)
    width = 6
    degree, betas = _sine_table(width)
    for j in range(SINE_TERMS):
        for k in range(width):
            for l in range(width):
                m, n = 2 * j + k + 1, l + 1
                exact = Fraction(
                    math.factorial(m - 1) * math.factorial(n - 1), math.factorial(m + n - 1)
                )
                assert degree[j, k, l] == m + n - 1
                assert abs(betas[j, k, l] / float(exact) - 1.0) <= 1e-15


def test_beta_grid_plain_integrals_are_exact_reciprocals():
    # B(x, 1) = B(1, x) = 1/x whichever side holds the 1
    x = 0.3924 + np.arange(1.0, 9.0)
    assert np.array_equal(_beta_grid(x, np.ones(1))[:, 0], 1.0 / x)
    assert np.array_equal(_beta_grid(np.ones(1), x)[0], 1.0 / x)


# ---------------------------------------------------------------- algebra properties

coeff_st = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


@st.composite
def frac_polys(draw, fractional=True):
    shift = draw(st.sampled_from([0.0, 0.5, 1.3924, 2.25])) if fractional else 0.0
    offsets = draw(st.sets(st.integers(min_value=0, max_value=5), min_size=0, max_size=5))
    return from_terms([(draw(coeff_st), shift + k) for k in sorted(offsets)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(frac_polys(), frac_polys(), st.floats(min_value=0.0, max_value=1.0))
def test_mul_is_pointwise_product(p, q, x):
    lhs = p.mul(q).eval(x)
    rhs = p.eval(x) * q.eval(x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def _dense(p, nmax):
    out = np.zeros(nmax + 1)
    for c, e in p.terms:
        out[int(round(e))] = c
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(frac_polys(fractional=False))
def test_compose_one_minus_is_involution(p):
    twice = compose_one_minus(compose_one_minus(p))
    nmax = int(max(p.degree, twice.degree))
    scale = max(1.0, float(np.max(np.abs(p.coeffs))) if not p.is_zero else 1.0)
    assert np.allclose(_dense(twice, nmax), _dense(p, nmax), rtol=1e-12, atol=1e-12 * scale)


def _abs(p):
    return FracPoly(p.shift, np.abs(p.coeffs))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(frac_polys(), frac_polys(), frac_polys())
def test_pair_moves_a_convolution_factor(p, g, q):
    # <p, g * q> = <p * g, q>: both are (p * g * q)(1); the same pairing of
    # absolute values bounds the cancellation
    lhs, rhs = _pair(p, convolve(g, q)), _pair(convolve(p, g), q)
    assert abs(lhs - rhs) <= 1e-13 * _pair(_abs(p), convolve(_abs(g), _abs(q)))
