import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyadd, polymul
from scipy.integrate import dblquad

import zetagaps.fracpoly
import zetagaps.hfunc
from zetagaps.fracpoly import (
    SINE_TERMS,
    FracPoly,
    beta_convolve,
    convolve,
    integrate_weighted,
    sinc_coeffs,
    sinc_truncation_bound,
)
from zetagaps.hfunc import (
    CoeffScheme,
    DegenerateSchemeError,
    HBreakdown,
    assemble_h,
    denominator_terms,
    h_grid,
    h_value,
    numerator_terms,
)

from zetagaps.optimizer import grid_points

from conftest import (
    HB_FIELDS,
    REF_F,
    REF_G,
    REF_H,
    REF_K,
    certify_batch,
    compose_one_minus,
    reference_forms,
    reference_pairings,
)


def _scheme(r, f1, f1t, p):
    return CoeffScheme(
        r=r,
        f1=FracPoly.from_coeffs(f1),
        f1t=FracPoly.from_coeffs(f1t),
        P=FracPoly.from_coeffs(p),
    )


# ---------------------------------------------------------------- validation


def test_scheme_rejects_small_r():
    with pytest.raises(ValueError):
        _scheme(0.9, [1.0], [], [])
    with pytest.raises(ValueError, match="finite"):
        _scheme(math.inf, [1.0], [], [0.0, 1.0])


@pytest.mark.parametrize(
    "r",
    [True, np.bool_(True), "1.2", 1.2 + 0j, np.complex128(1.2)],
    ids=["bool", "numpy-bool", "str", "complex", "numpy-complex"],
)
def test_scheme_rejects_r_that_is_not_a_real_number(r):
    # True would evaluate as r = 1, and a string or complex r failed in the comparison
    with pytest.raises(ValueError, match=re.escape(f"r must be a real number, got r={r!r}")):
        _scheme(r, [1.0], [1.0], [0.0, 0.0, 1.0])


def test_scheme_takes_numpy_real_r():
    # an r that is neither an int nor a float is stored as a float: a float32 r kept as it
    # is computed h in single precision (1.8e-8 off); an int r stays an int, and prints so
    reference = h_value(_scheme(1.0, [1.0], [1.0], [0.0, 0.0, 1.0]), 0.5).as_dict()
    for r in (np.float32(1.0), np.float64(1.0), np.int64(1), 1):
        got = h_value(_scheme(r, [1.0], [1.0], [0.0, 0.0, 1.0]), 0.5).as_dict()
        assert [v.hex() for v in got.values()] == [v.hex() for v in reference.values()], r
    assert type(_scheme(np.float32(1.0), [1.0], [1.0], [0.0, 0.0, 1.0]).r) is float
    assert repr(_scheme(1, [1.0], [1.0], [0.0, 0.0, 1.0]).r) == "1"


def test_scheme_rejects_r_whose_kernel_scale_overflows():
    # r**4 scales K3: it overflows above about 1.16e77, and r**2 above about 1.34e154
    for r in (1.2e77, 1.4e154, math.nan):
        with pytest.raises(ValueError, match=re.escape(f"r={r}")):
            _scheme(r, [1.0], [1.0], [0.0, 0.0, 1.0])
    with pytest.raises(DegenerateSchemeError, match="below the floor"):
        h_value(_scheme(1e77, [1.0], [1.0], [0.0, 0.0, 1.0]), 0.5)


def test_non_finite_denominator_is_degenerate():
    # raised by den_terms, before any numerator term (and its overflow warnings) is computed
    scheme = _scheme(1.18, [1e160], [1.0], [0.0, 0.0, 1.0])
    with pytest.raises(DegenerateSchemeError, match="not finite: d1=inf"):
        scheme.den_terms
    with pytest.raises(DegenerateSchemeError):
        h_value(scheme, 0.5)
    with pytest.raises(DegenerateSchemeError):
        assemble_h(0.5, (math.nan, 1.0, 0.0, 0.0), (0.0,) * 7)


def test_overflowing_p_is_degenerate_without_a_warning():
    # P's kernel moments overflow to inf and inf * 0 gives NaN: under Tier-1's
    # RuntimeWarning-as-error filter the scheme compiles quietly and only the error reports it
    scheme = _scheme(1.18, [1.0], [1.0], [0.0, 0.0, 1e160])
    with pytest.raises(DegenerateSchemeError, match="not finite: d31=nan, d32=nan"):
        h_value(scheme, 0.5)


def test_scheme_rejects_constant_in_p():
    with pytest.raises(ValueError):
        _scheme(1.1, [1.0], [], [0.5, 0.0, 1.0])


def test_scheme_rejects_fractional_exponents():
    with pytest.raises(ValueError):
        CoeffScheme(
            r=1.1,
            f1=FracPoly(0.5, [1.0]),
            f1t=FracPoly.zero(),
            P=FracPoly.zero(),
        )


# ---------------------------------------------------------------- denominators


def test_denominator_zero_p_collapses_exactly(row1):
    scheme = CoeffScheme(r=row1.scheme.r, f1=row1.scheme.f1, f1t=row1.scheme.f1t, P=FracPoly.zero())
    d1, d2, d31, d32 = denominator_terms(scheme)
    assert d1 > 0
    assert (d2, d31, d32) == (0.0, 0.0, 0.0)


def test_denominator_unit_f1():
    scheme = _scheme(1.3, [1.0], [], [0.0, 0.0, 1.0])
    d1, d2, d31, d32 = denominator_terms(scheme)
    assert d1 == pytest.approx(1.0 / 1.3**2, rel=1e-14)
    assert (d2, d31, d32) == (0.0, 0.0, 0.0)


def test_denominator_d1_positive_for_nonzero_f1(rows):
    for preset in rows:
        d1, _, _, _ = denominator_terms(preset.scheme)
        assert d1 > 0


# ---------------------------------------------------------------- numerators


def test_numerator_zero_p_collapses_exactly(row1):
    scheme = CoeffScheme(r=row1.scheme.r, f1=row1.scheme.f1, f1t=row1.scheme.f1t, P=FracPoly.zero())
    n1, *rest = numerator_terms(scheme, 0.515398)
    assert n1 != 0.0
    assert rest == [0.0] * 6


def test_numerator_zero_f1_factor_structure():
    scheme = _scheme(1.18, [], [-0.7, -1.92], [0.0, 0.0, 1.0])
    n1, n2, n31, n32, n41, n42, n43 = numerator_terms(scheme, 0.52)
    assert (n1, n2, n31, n32) == (0.0, 0.0, 0.0, 0.0)
    assert n41 != 0.0 and n42 != 0.0 and n43 != 0.0


def test_numerator_rejects_c_outside_unit_interval(row1):
    from zetagaps.fracpoly import DomainError

    for c in (0.0, 1.0, -0.2, 1.5, float("nan")):
        with pytest.raises(DomainError):
            numerator_terms(row1.scheme, c)
    # every entry of an array of c is checked, in numerator_terms and in h_grid
    for evaluate in (numerator_terms, h_grid):
        with pytest.raises(DomainError, match="got 1.0$"):
            evaluate(row1.scheme, np.array([0.5, 1.0]))


def test_sine_series_meets_budget_on_unit_interval():
    # numerator_terms accepts every c in (0, 1); the first omitted sine term
    # is largest at c = 1
    assert sinc_truncation_bound(1.0, SINE_TERMS) < 1e-18


def test_second_c_reuses_the_compiled_scheme(row3, monkeypatch):
    scheme = CoeffScheme(r=row3.scheme.r, f1=row3.scheme.f1, f1t=row3.scheme.f1t, P=row3.scheme.P)
    first = h_value(scheme, 0.45)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-scheme work redone at a second c")

    monkeypatch.setattr(zetagaps.fracpoly, "_beta_grid", forbidden)
    monkeypatch.setattr(zetagaps.hfunc, "_beta_grid", forbidden)
    second = h_value(scheme, 0.6)
    assert (second.d1, second.d2, second.d31, second.d32) == (first.d1, first.d2, first.d31, first.d32)
    assert second.h != first.h


def test_h_path_runs_no_fracpoly_convolution(row2, monkeypatch):
    # the kernels are one Beta row contracted with integer Betas (module docs): a new
    # scheme compiles and evaluates without convolving a FracPoly
    def forbidden(*args, **kwargs):
        raise AssertionError("FracPoly convolution on the h path")

    for module in (zetagaps.fracpoly, zetagaps.hfunc):
        monkeypatch.setattr(module, "convolve", forbidden)
        monkeypatch.setattr(module, "beta_convolve", forbidden)
    s = row2.scheme
    scheme = CoeffScheme(s.r * 1.001, s.f1, s.f1t, s.P)
    assert h_value(scheme, row2.c).h == h_grid(scheme, [0.3, row2.c])[1]
    assert scheme.forms[0].shape == (2 * scheme.dense.shape[1], 2 * scheme.dense.shape[1])


# ---------------------------------------------------------------- quadratic forms


@pytest.mark.parametrize("r", [None, 1.0, 1.3])
def test_forms_reproduce_every_component(rows, r):
    # d_i = x A_i x and n_i = kappa sum_j s_j(c) x B_ij x for x = (f1 | f1t) and the reference
    # rows A_i, B_i; D = x A x and N = kappa sum_j s_j(c) x B_j x for the summed forms
    for preset in rows:
        s = preset.scheme
        scheme = CoeffScheme(r or s.r, s.f1, s.f1t, s.P)
        a_rows, b_rows = reference_forms(scheme)
        a, b = scheme.forms
        assert np.array_equal(a, a.T) and np.array_equal(b, b.swapaxes(1, 2))
        x = scheme.dense[:2].ravel()
        kappa = -2.0 * scheme.r / math.pi
        for c in (0.01, preset.c, 0.99):
            exact = h_value(scheme, c)
            forms = [*(x @ a_rows @ x), *(kappa * (x @ b_rows @ x) @ sinc_coeffs(c))]
            for f, value in zip(HB_FIELDS, forms):
                assert value == pytest.approx(getattr(exact, f), rel=1e-14, abs=0.0), (f, c)
            summed = (x @ a @ x, kappa * (x @ b @ x) @ sinc_coeffs(c))
            for value, part in zip(summed, (exact.denominator, exact.numerator)):
                assert value == pytest.approx(part, rel=1e-14, abs=0.0), c


def _reference_moments(scheme):
    d = scheme.dense
    return reference_pairings(scheme.kernels[REF_K], d[REF_F, None], d[REF_H], d[REF_G, None])[
        ..., 0, 0
    ]


def _reference_denominator(scheme):
    # the four denominator rows written out by hand
    f1, f1t, _, _ = scheme.dense
    mu = scheme.kernels[:, : 2 * f1.size - 1]
    f1t_sq = np.convolve(f1t, f1t)
    return (
        float(mu[0] @ np.convolve(f1, f1)),
        2.0 * float(mu[1] @ np.convolve(f1, f1t)),
        float(mu[2] @ f1t_sq),
        float(mu[3] @ f1t_sq),
    )


def _assert_forms_bitwise(scheme):
    # the reference rows summed in row order: every float, zero signs included
    a, b = scheme.forms
    a_ref, b_ref = (rows.sum(axis=0) for rows in reference_forms(scheme))
    assert a.shape == a_ref.shape and np.array_equal(a.view(np.int64), a_ref.view(np.int64))
    assert b.shape == b_ref.shape and np.array_equal(b.view(np.int64), b_ref.view(np.int64))
    assert np.array_equal(scheme.moments, _reference_moments(scheme))
    assert denominator_terms(scheme) == _reference_denominator(scheme)


def test_component_table_follows_hbreakdown():
    assert list(zetagaps.hfunc._TERMS) == [f.name for f in dataclasses.fields(HBreakdown)][1:-1]


@pytest.mark.parametrize("r", [None, 1.0, 1.5])
def test_forms_are_bitwise_the_unit_vector_construction(rows, r):
    for preset in rows:
        s = preset.scheme
        _assert_forms_bitwise(CoeffScheme(r or s.r, s.f1, s.f1t, s.P))


@pytest.mark.parametrize("degrees", [(0, 0, 1), (3, 1, 2), (2, 5, 1), (6, 2, 3), (7, 4, 5)])
def test_forms_are_bitwise_on_random_schemes(degrees):
    # (0, 0, 1) has one coefficient in f1 and f1t; (2, 5, 1) has deg f1t > deg f1
    rng = np.random.default_rng(sum(degrees))
    d1, d2, dp = degrees
    for _ in range(6):
        p = np.r_[0.0, rng.normal(size=dp)]
        _assert_forms_bitwise(
            _scheme(rng.uniform(1.0, 1.5), rng.normal(size=d1 + 1), rng.normal(size=d2 + 1), p)
        )


def test_forms_are_bitwise_at_width_one(plain_scheme):
    # f1 = 1 and P = 0: the dense rows have one column
    assert plain_scheme.dense.shape[1] == 1
    _assert_forms_bitwise(CoeffScheme(1.2, plain_scheme.f1, plain_scheme.f1, plain_scheme.P))


def test_h_value_leaves_the_forms_unbuilt(row1):
    scheme = CoeffScheme(row1.scheme.r, row1.scheme.f1, row1.scheme.f1t, row1.scheme.P)
    h_value(scheme, row1.c)
    assert "forms" not in vars(scheme)


def test_a_new_scheme_reads_its_polynomials_once(row1, monkeypatch):
    # construction builds the dense rows it validates, and every later stage reads those rows:
    # one to_coeffs call for each of f1, f1t and P
    calls, to_coeffs = [], FracPoly.to_coeffs
    monkeypatch.setattr(FracPoly, "to_coeffs", lambda p: calls.append(p) or to_coeffs(p))
    s = row1.scheme
    h_value(CoeffScheme(s.r * 1.001, s.f1, s.f1t, s.P), row1.c)
    assert len(calls) == 3


# ---------------------------------------------------------------- h assembly


def test_h_value_row_consistency(rows):
    for preset in rows:
        hb = h_value(preset.scheme, preset.c)
        assert hb.h == pytest.approx(preset.c - hb.numerator / hb.denominator, abs=1e-14)
        assert hb.as_dict()["h"] == hb.h
        # the sums over components() add in the order the hand-written sums did
        assert hb.components() == list(hb.as_dict().values())[1:-1]
        assert hb.denominator == hb.d1 + hb.d2 + hb.d31 + hb.d32
        assert hb.numerator == hb.n1 + hb.n2 + hb.n31 + hb.n32 + hb.n41 + hb.n42 + hb.n43


def test_h_value_reference_rows_exceed_one(rows):
    for preset in rows:
        assert h_value(preset.scheme, preset.c).h > 1.0


def test_h_value_degenerate_scheme():
    scheme = _scheme(1.18, [], [], [0.0, 0.0, 1.0])
    with pytest.raises(DegenerateSchemeError):
        h_value(scheme, 0.52)
    with pytest.raises(DegenerateSchemeError):
        h_grid(scheme, [0.50, 0.52])


def test_h_grid_equals_h_value_on_certify_grid():
    grid = grid_points(0.45, 0.60, 0.002)
    for scheme in certify_batch():
        hs = h_grid(scheme, grid)
        assert hs.shape == (len(grid),)
        assert hs.tolist() == [h_value(scheme, c).h for c in grid]


def test_one_point_equals_grid_column(row3):
    grid = np.array(grid_points(0.01, 0.99, 0.01))
    hs, terms = h_grid(row3.scheme, grid), numerator_terms(row3.scheme, grid)
    assert terms.shape == (7, grid.size)
    for k, c in enumerate(grid.tolist()):
        assert h_grid(row3.scheme, [c])[0] == hs[k]
        assert numerator_terms(row3.scheme, c) == tuple(terms[:, k].tolist())


def test_breakdown_passes_only_above_its_budget():
    # d1 = 1 and n1 = 1/2 give a budget of 64 eps = 2**-46, so h - 1 can equal it exactly
    def breakdown(h):
        return HBreakdown(0.5, 1.0, 0.0, 0.0, 0.0, 0.5, *[0.0] * 6, h=h)

    assert breakdown(1.0).budget == 2.0**-46
    for margin, passed in ((2.0**-45, True), (2.0**-46, False), (0.0, False), (-(2.0**-45), False)):
        assert breakdown(1.0 + margin).passed is passed


def test_h_grid_wants_one_dimension(row1):
    with pytest.raises(TypeError):  # h_value takes one c
        h_value(row1.scheme, np.array([0.5, 0.51]))
    with pytest.raises(ValueError, match="1-d"):
        h_grid(row1.scheme, 0.5)
    with pytest.raises(ValueError, match="1-d"):
        h_grid(row1.scheme, [[0.5, 0.51]])


def test_h_value_simple_scheme_against_2d_quadrature(plain_scheme):
    # f1 = 1, f1t = 0, P = 0, r = 1:  h = c + (2/pi) * int_0^1 int_0^u sin(pi c v)/v dv du
    c = 0.6
    inner, _ = dblquad(
        lambda v, u: math.sin(math.pi * c * v) / v, 0.0, 1.0, 0.0, lambda u: u,
        epsabs=1e-12, epsrel=1e-12,
    )
    expect = c + (2.0 / math.pi) * inner
    assert h_value(plain_scheme, c).h == pytest.approx(expect, rel=1e-9)


def test_scaling_invariance(rows):
    for preset in rows:
        base = h_value(preset.scheme, preset.c)
        for s in (2.0, -3.0, 0.25):
            scaled = CoeffScheme(
                r=preset.scheme.r,
                f1=FracPoly(preset.scheme.f1.shift, preset.scheme.f1.coeffs * s),
                f1t=FracPoly(preset.scheme.f1t.shift, preset.scheme.f1t.coeffs * s),
                P=preset.scheme.P,
            )
            hb = h_value(scaled, preset.c)
            assert hb.h == pytest.approx(base.h, abs=1e-10)
            for f in HB_FIELDS:
                assert getattr(hb, f) == pytest.approx(s * s * getattr(base, f), rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("eps", [-1.0, 0.3, 2.0])
def test_gauge_p_plus_x_with_f1_plus_one_minus_x_f1t(rows, eps):
    # S_P(k) = 1 - x_k for P(t) = t at squarefree k, so P's x coefficient trades with f1
    for preset in rows:
        f1, f1t, p = (q.to_coeffs() for q in (preset.scheme.f1, preset.scheme.f1t, preset.scheme.P))
        for r in (preset.scheme.r, 1.0):
            moved_p = _scheme(r, f1, f1t, polyadd(p, [0.0, eps]))
            moved_f1 = _scheme(r, polyadd(f1, eps * polymul([1.0, -1.0], f1t)), f1t, p)
            for c in (0.01, preset.c, 0.99):
                assert h_value(moved_p, c).h == pytest.approx(h_value(moved_f1, c).h, abs=1e-13)


def test_d31_weight_interchange_symmetry(rows):
    # assemble d31 the other way round: integrate the two P1 weights against
    # each other first (their convolution reflected), then the kernel part
    for preset in rows:
        scheme = preset.scheme
        a = scheme.r**2
        p1 = FracPoly(scheme.P.shift - 1.0, scheme.P.coeffs)  # P(y)/y
        big_f = beta_convolve(a, scheme.f1t.mul(scheme.f1t))
        alt = scheme.r**4 * integrate_weighted(
            1.0, big_f.mul(compose_one_minus(convolve(p1, p1)))
        )
        _, _, d31, _ = denominator_terms(scheme)
        assert d31 == pytest.approx(alt, rel=1e-10)


def test_h_continuity_on_grid(row1):
    cs = np.linspace(0.4, 0.6, 100)
    hs = np.array([h_value(row1.scheme, float(c)).h for c in cs])
    jumps = np.abs(np.diff(hs))
    for i in range(1, len(jumps) - 1):
        local = 0.5 * (jumps[i - 1] + jumps[i + 1])
        assert jumps[i] <= 10.0 * local + 1e-12
