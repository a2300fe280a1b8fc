import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from zetagaps.fracpoly import FracPoly
from zetagaps.hfunc import CoeffScheme, denominator_terms, h_value
from zetagaps.presets import get_preset, preset_names
from zetagaps.sieve import (
    SIEVE_BLOCK,
    build_tables,
    coeffs_ak,
    dr_mean_square_trend,
    finite_h,
    finite_h_from_coeffs,
    mertens_deficit,
)


def _factorize(k):
    """Prime exponents of k by trial division, primes ascending."""
    out = {}
    d = 2
    while d * d <= k:
        while k % d == 0:
            out[d] = out.get(d, 0) + 1
            k //= d
        d += 1
    if k > 1:
        out[k] = out.get(k, 0) + 1
    return out


def _dr_direct(r, k):
    dr = 1.0
    for e in _factorize(k).values():
        for j in range(1, e + 1):
            dr *= (j - 1 + r) / j
    return dr


def _ak_direct(scheme, upto, k):
    fac = _factorize(k)
    lam = (-1) ** sum(fac.values())
    x = math.log(upto / k) / math.log(upto)
    ps = sum(scheme.P.eval(math.log(p) / math.log(upto)) for p in fac)
    return (
        lam * _dr_direct(scheme.r, k) / math.sqrt(k)
        * (scheme.f1.eval(x) + ps * scheme.f1t.eval(x))
    )


# K = q**2 - 1, q**2, q**2 + 1: the split at isqrt(K) moves across a prime
# (7, 31) and a composite (12) square root
ROOT_BOUNDARY_LIMITS = [q * q + d for q in (7, 12, 31) for d in (-1, 0, 1)]

# K ending one before, at and one after a block edge, and one past the second
BLOCK_LIMITS = [SIEVE_BLOCK - 1, SIEVE_BLOCK, SIEVE_BLOCK + 1, 2 * SIEVE_BLOCK + 1]


def _near_block_edges(limit, seed):
    """Every k within 64 of a block edge (blocks start at 1, 1 + SIEVE_BLOCK, ...)
    or of `limit`, and 200 seeded random k <= limit."""
    edges = list(range(1, limit + 1, SIEVE_BLOCK)) + [limit + 1]
    near = {k for e in edges for k in range(e - 64, e + 65) if 1 <= k <= limit}
    rng = np.random.default_rng(seed)
    return sorted(near | set(rng.integers(1, limit + 1, 200).tolist()))


@pytest.fixture(scope="module")
def tables_r118():
    return build_tables(1.18, 10**5)


@pytest.fixture(scope="module")
def tables_r1():
    return build_tables(1.0, 10**5)


# ---------------------------------------------------------------- table contents


def test_limit_validation():
    with pytest.raises(ValueError):
        build_tables(1.18, 1)
    with pytest.raises(ValueError):
        build_tables(1.18, 10**8 + 1)
    with pytest.raises(ValueError):
        build_tables(-1.0, 100)


@pytest.mark.parametrize("r", [math.nan, math.inf])
def test_build_tables_rejects_non_finite_r_naming_it(r):
    with pytest.raises(ValueError, match=f"r={r}"):
        build_tables(r, 1000)
    with pytest.raises(ValueError, match=f"r={r}"):
        dr_mean_square_trend(r, [10, 100])


def test_trend_rejects_non_finite_r_with_given_tables(tables_r1):
    with pytest.raises(ValueError):
        dr_mean_square_trend(math.nan, [10, 100], tables=tables_r1)


def test_liouville_and_dr_built_on_first_read():
    tables = build_tables(1.18, 1000)
    assert "liouville" not in vars(tables)
    assert "dr" not in vars(tables)
    assert tables.dr[12] == _dr_direct(1.18, 12)
    assert "liouville" in vars(tables) and "dr" in vars(tables)
    for arr in (tables.liouville, tables.dr):
        assert not arr.flags.writeable
    assert tables.liouville.dtype == np.int8
    assert tables.dr.dtype == np.float64


def test_liouville_values(tables_r118):
    lam = tables_r118.liouville
    assert lam[1] == 1
    assert lam[2] == -1
    assert lam[12] == -1  # 12 = 2^2 * 3, three prime factors with multiplicity
    assert lam[4] == 1
    assert set(np.unique(lam[1:1000])) == {-1, 1}


def test_liouville_completely_multiplicative(tables_r118):
    lam = tables_r118.liouville
    rng = np.random.default_rng(23)
    limit = tables_r118.limit
    checked = 0
    while checked < 1000:
        m = int(rng.integers(2, 1000))
        n = int(rng.integers(2, limit // m))
        assert lam[m * n] == lam[m] * lam[n]
        checked += 1


def test_dr_at_primes_is_r(tables_r118):
    for p in (2, 3, 5, 97, 65537):
        assert tables_r118.dr[p] == pytest.approx(1.18, rel=1e-14)


def test_dr_at_prime_square():
    tables = build_tables(1.18, 100)
    # Gamma(2 + r) / (Gamma(r) * 2!) = r (r + 1) / 2
    assert tables.dr[4] == pytest.approx(1.2862, rel=1e-12)


def test_dr_is_one_for_r_equal_one(tables_r1):
    assert np.all(tables_r1.dr[1:] == 1.0)


def test_dr_multiplicative_on_coprime_pairs(tables_r118):
    dr = tables_r118.dr
    rng = np.random.default_rng(29)
    limit = tables_r118.limit
    checked = 0
    while checked < 1000:
        m = int(rng.integers(2, 1000))
        n = int(rng.integers(2, limit // m))
        if math.gcd(m, n) != 1:
            continue
        assert dr[m * n] == pytest.approx(dr[m] * dr[n], rel=1e-12)
        checked += 1


def _lambda(tables):
    """{n: Lambda(n)} over the stored support of Lambda."""
    return dict(zip(tables.prime_powers.tolist(), tables.mangoldt.tolist()))


def test_mangoldt_values(tables_r118):
    lam = _lambda(tables_r118)
    assert lam[2] == pytest.approx(math.log(2), rel=1e-15)
    assert lam[8] == pytest.approx(math.log(2), rel=1e-15)
    assert lam[9] == pytest.approx(math.log(3), rel=1e-15)
    assert lam.get(6, 0.0) == 0.0
    assert lam.get(1, 0.0) == 0.0


def test_mangoldt_sum_tracks_prime_number_theorem():
    tables = build_tables(1.0, 10**7)
    psi = float(np.sum(tables.mangoldt))
    assert abs(psi / 10**7 - 1.0) < 0.05


def test_primes(tables_r118):
    primes = tables_r118.primes
    assert primes[:5].tolist() == [2, 3, 5, 7, 11]
    assert primes.size == 9592  # pi(10**5)


# ---------------------------------------------------------------- coefficients


def test_a1_is_f1_at_one(row1, tables_r118):
    a = coeffs_ak(row1.scheme, tables_r118, 10**4)
    assert a[1] == pytest.approx(row1.scheme.f1.eval(1.0), rel=1e-14)


def test_ak_reduces_without_p(tables_r1):
    scheme = CoeffScheme(
        r=1.0, f1=FracPoly.from_coeffs([1.0]), f1t=FracPoly.zero(), P=FracPoly.zero()
    )
    upto = 5000
    a = coeffs_ak(scheme, tables_r1, upto)
    k = np.arange(1, upto + 1, dtype=float)
    expect = tables_r1.liouville[1 : upto + 1] * tables_r1.dr[1 : upto + 1] / np.sqrt(k)
    assert np.allclose(a[1:], expect, rtol=1e-14, atol=0.0)


def test_a2_closed_form(row1):
    upto = 10**6
    tables = build_tables(1.18, upto)
    a = coeffs_ak(row1.scheme, tables, upto)
    x = 1.0 - math.log(2) / math.log(upto)
    expect = (
        -(1.18 / math.sqrt(2))
        * (
            row1.scheme.f1.eval(x)
            + row1.scheme.P.eval(math.log(2) / math.log(upto)) * row1.scheme.f1t.eval(x)
        )
    )
    assert a[2] == pytest.approx(expect, rel=1e-13)


def test_ak_matches_trial_division_reimplementation(row1, tables_r118):
    upto = 300
    a = coeffs_ak(row1.scheme, tables_r118, upto)
    for k in range(1, upto + 1):
        assert a[k] == pytest.approx(_ak_direct(row1.scheme, upto, k), rel=1e-12, abs=1e-15)


def test_coeffs_ak_validation(row1, tables_r118):
    with pytest.raises(ValueError):
        coeffs_ak(row1.scheme, tables_r118, tables_r118.limit + 1)
    scheme_r1 = CoeffScheme(
        r=1.0, f1=FracPoly.from_coeffs([1.0]), f1t=FracPoly.zero(), P=FracPoly.zero()
    )
    with pytest.raises(ValueError):
        coeffs_ak(scheme_r1, tables_r118, 100)


# ---------------------------------------------------------------- finite ratio


def test_finite_h_with_injected_coefficients(tables_r118):
    a = np.zeros(1001)
    a[1] = 1.0
    h, num, den = finite_h_from_coeffs(a, tables_r118, 0.52, 1e6)
    assert (num, den) == (0.0, 1.0)
    assert h == 0.52


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_finite_h_rejects_non_finite_c_naming_it(plain_scheme, tables_r1, c):
    with pytest.raises(ValueError, match=f"c must be finite, got c={c}"):
        finite_h(plain_scheme, c, 1e6)
    a = np.zeros(1001)
    a[1] = 1.0
    with pytest.raises(ValueError, match=f"c must be finite, got c={c}"):
        finite_h_from_coeffs(a, tables_r1, c, 1e6)


@pytest.mark.parametrize(
    "size, t_param, message",
    [
        (1001, math.nan, "T must be finite and above 1, got T=nan"),
        (1001, math.inf, "T must be finite and above 1, got T=inf"),
        (1001, 1.0, "T must be finite and above 1, got T=1.0"),
        (1001, 0.5, "T must be finite and above 1, got T=0.5"),
        (2, 1e6, r"len\(a\) - 1 = 1 must lie in \[2, tables.limit = 1000\]"),
        (1002, 1e6, r"len\(a\) - 1 = 1001 must lie in \[2, tables.limit = 1000\]"),
    ],
)
def test_finite_h_from_coeffs_rejects_bad_input_naming_it(size, t_param, message):
    # a longer than the tables would drop Lambda's support above their limit
    tables = build_tables(1.0, 1000)
    a = np.zeros(size)
    a[1] = 1.0
    with pytest.raises(ValueError, match=message):
        finite_h_from_coeffs(a, tables, 0.6, t_param)


def test_finite_h_validation(plain_scheme):
    with pytest.raises(ValueError):
        finite_h(plain_scheme, 0.6, 50.0)
    with pytest.raises(ValueError):
        finite_h(plain_scheme, 0.6, 5000.0)  # mollifier length below 100


@pytest.mark.parametrize(
    "t_param, message",
    [
        (math.nan, "T must be finite, got T=nan"),
        (math.inf, "T must be finite, got T=inf"),
        (-math.inf, "T must be finite, got T=-inf"),
        (1e30, r"T=1e\+30 gives mollifier length \d+ above MAX_TABLE_LIMIT = 100000000"),
    ],
)
def test_finite_h_rejects_bad_t_naming_it(plain_scheme, t_param, message):
    with pytest.raises(ValueError, match=message):
        finite_h(plain_scheme, 0.6, t_param)


def test_finite_h_tracks_limit(plain_scheme):
    h_lim = h_value(plain_scheme, 0.6).h
    errs = []
    for t_param in (1e4, 1e5, 1e6):
        h_fin, _, _ = finite_h(plain_scheme, 0.6, t_param)
        errs.append(abs(h_fin - h_lim))
    assert errs[-1] / abs(h_lim) <= 0.25
    assert errs[2] <= errs[0]


def test_finite_denominator_matches_limit(ramp_scheme):
    # The denominator converges fast: sum a_k**2 / log K -> d1 (= 1/3 for
    # f1 = 1 - u), measured at 1.3e-5 relative for K = 5239.  The slow half
    # of the sieve-vs-limit gap is the numerator alone.
    t_param = 1e6
    upto = int(t_param / math.log(t_param) ** 2)
    _, _, den = finite_h(ramp_scheme, 0.6, t_param)
    d1 = denominator_terms(ramp_scheme)[0]
    assert den / math.log(upto) == pytest.approx(d1, rel=1e-4)


def test_prime_powers_are_minor_part_of_numerator(plain_scheme):
    # The n = p terms dominate; the p**a (a >= 2) remainder decays only like
    # 1/log K, measured at 8.2% of |num| for this scheme and length.
    t_param = 1e6
    upto = int(t_param / math.log(t_param) ** 2)
    tables = build_tables(1.0, upto)
    a = coeffs_ak(plain_scheme, tables, upto)
    primes = set(tables.primes.tolist())
    log_t = math.log(t_param)
    num_all = 0.0
    num_primes = 0.0
    for n, lam_n in _lambda(tables).items():
        m = upto // n
        g = 2.0 * math.sin(math.pi * 0.6 * math.log(n) / log_t) / (math.pi * math.log(n))
        term = lam_n * g / math.sqrt(n) * float(a[1 : m + 1] @ a[n::n][:m])
        num_all += term
        if n in primes:
            num_primes += term
    fraction = abs(num_all - num_primes) / abs(num_all)
    assert fraction < 0.15
    assert fraction == pytest.approx(0.08223, abs=5e-4)


# ---------------------------------------------------------------- the split at sqrt(K)


@pytest.mark.parametrize("limit", ROOT_BOUNDARY_LIMITS)
def test_tables_match_trial_division_at_root_boundary(limit):
    r = 1.18
    tables = build_tables(r, limit)
    lam = _lambda(tables)
    for k in range(1, limit + 1):
        fac = _factorize(k)
        assert tables.liouville[k] == (-1) ** sum(fac.values()), k
        assert tables.dr[k] == _dr_direct(r, k), k
        expect = math.log(next(iter(fac))) if len(fac) == 1 else 0.0
        assert lam.get(k, 0.0) == pytest.approx(expect, rel=1e-15, abs=0.0), k
    assert list(lam) == [k for k in range(2, limit + 1) if len(_factorize(k)) == 1]
    expect_primes = [k for k in range(2, limit + 1) if _factorize(k) == {k: 1}]
    assert tables.primes.tolist() == expect_primes


# below K = 4 no prime is at most sqrt(K): each k > 1 is its own large prime
@pytest.mark.parametrize("limit", [2, 3, *ROOT_BOUNDARY_LIMITS])
def test_ak_matches_trial_division_at_root_boundary(row1, limit):
    a = coeffs_ak(row1.scheme, build_tables(row1.scheme.r, limit), limit)
    assert a[0] == 0.0
    for k in range(1, limit + 1):
        assert a[k] == pytest.approx(_ak_direct(row1.scheme, limit, k), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("limit", ROOT_BOUNDARY_LIMITS)
def test_finite_h_matches_double_sum_at_root_boundary(row1, limit):
    c, t_param = 0.5154, 1e6
    tables = build_tables(row1.scheme.r, limit)
    a = coeffs_ak(row1.scheme, tables, limit)
    num = 0.0
    for n in range(2, limit + 1):
        fac = _factorize(n)
        if len(fac) != 1:
            continue
        log_n = math.log(n)
        g = 2.0 * math.sin(math.pi * c * log_n / math.log(t_param)) / (math.pi * log_n)
        weight = math.log(next(iter(fac))) * g / math.sqrt(n)
        num += weight * sum(a[k] * a[n * k] for k in range(1, limit // n + 1))
    den = sum(v * v for v in a[1:])
    h_fin, num_fin, den_fin = finite_h_from_coeffs(a, tables, c, t_param)
    assert num_fin == pytest.approx(num, rel=1e-13)
    assert den_fin == pytest.approx(den, rel=1e-13)
    assert h_fin == pytest.approx(c - num / den, rel=1e-13)


# ---------------------------------------------------------------- block edges


@pytest.mark.parametrize("limit", BLOCK_LIMITS)
def test_tables_match_trial_division_at_block_edges(limit):
    r = 1.18
    tables = build_tables(r, limit)
    for k in _near_block_edges(limit, seed=limit):
        assert tables.liouville[k] == (-1) ** sum(_factorize(k).values()), k
        assert tables.dr[k] == _dr_direct(r, k), k


@pytest.mark.parametrize("limit", BLOCK_LIMITS)
def test_ak_matches_trial_division_at_block_edges(row1, limit):
    a = coeffs_ak(row1.scheme, build_tables(row1.scheme.r, limit), limit)
    for k in _near_block_edges(limit, seed=limit + 1):
        assert a[k] == pytest.approx(_ak_direct(row1.scheme, limit, k), rel=1e-12, abs=1e-15)


def test_finite_h_across_a_block_edge_matches_built_tables(row1):
    c, t_param = 0.5154, 18_330_500.0
    upto = SIEVE_BLOCK + 1
    assert int(t_param / math.log(t_param) ** 2) == upto
    tables = build_tables(row1.scheme.r, upto)
    tables.dr  # every per-integer table built
    expect = finite_h_from_coeffs(coeffs_ak(row1.scheme, tables, upto), tables, c, t_param)
    assert finite_h(row1.scheme, c, t_param) == expect


def test_finite_h_allocates_no_lambda_or_dr_table(row1):
    # only a is K-sized: block buffers and the numerator's weights add the
    # rest (measured 1.83x 8 (K + 1) bytes); K-sized lambda and d_r tables
    # add 9 (K + 1) bytes more (2.97x)
    c, t_param = 0.5154, 4e8
    upto = int(t_param / math.log(t_param) ** 2)
    assert upto == 1_019_585
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        finite_h(row1.scheme, c, t_param)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 2.5 * 8 * (upto + 1), f"{(peak - start) / (8 * (upto + 1)):.2f}x"


def test_coeffs_ak_allocates_one_k_sized_array(row1):
    # a_k is built blockwise over its own output buffer, so the traced peak
    # is that buffer plus block-sized buffers (measured 1.60x 8 (K + 1)
    # bytes); full-length arrays for k, x, S_P and the polynomials read 9.2x
    upto = 10**6
    tables = build_tables(row1.scheme.r, upto)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        coeffs_ak(row1.scheme, tables, upto)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 2 * 8 * (upto + 1), f"{(peak - start) / (8 * (upto + 1)):.2f}x"


# ---------------------------------------------------------------- bitwise against strided passes


def _strided_blocks(r, primes, limit, p_coeffs):
    """The block sieve with one strided pass per prime power, for every
    prime p <= sqrt(limit): the reference that the scatter of the larger
    primes' passes must match bit for bit."""
    small = [p for p in primes.tolist() if p * p <= limit]
    passes = []
    for p in small:
        pj, j = p, 1
        while pj <= limit:
            passes.append((pj, p, -(j - 1 + r) / j))
            pj, j = pj * p, j + 1
    log_lim = math.log(limit)
    p_small = [] if p_coeffs is None else list(
        zip(small, polyval(np.log(np.array(small, dtype=np.int64)) / log_lim, p_coeffs).tolist())
    )
    for lo in range(1, limit + 1, SIEVE_BLOCK):
        hi = min(lo + SIEVE_BLOCK, limit + 1)
        k = np.arange(lo, hi, dtype=np.float64)
        l, m, s = np.ones(hi - lo), np.ones(hi - lo), np.zeros(hi - lo)
        for pj, p, factor in passes:
            start = -lo % pj
            l[start::pj] *= factor
            m[start::pj] *= p
        for p, value in p_small:
            s[-lo % p :: p] += value
        q = k / m
        large = q > 1.0
        l *= np.where(large, -r, 1.0)
        if p_coeffs is not None:
            s += np.where(large, polyval(np.log(q) / log_lim, p_coeffs), 0.0)
        yield lo, hi, k, l, s


def _strided_ak(scheme, primes, upto):
    log_up = math.log(upto)
    p_coeffs = None if scheme.P.is_zero else scheme.P.to_coeffs()
    f1, f1t = scheme.f1.to_coeffs(), scheme.f1t.to_coeffs()
    a = np.zeros(upto + 1)
    for lo, hi, k, l, s in _strided_blocks(scheme.r, primes, upto, p_coeffs):
        x = 1.0 - np.log(k) / log_up
        a[lo:hi] = l / np.sqrt(k) * (polyval(x, f1) + s * polyval(x, f1t))
    return a


# the presets, and a scheme with P = 0 (no S_P passes) at an r where the
# order of two scattered passes shows: at k = 2 * 257**2 (K = 200,000),
# (-r * -r) * (-(1 + r)/2) and (-r * -(1 + r)/2) * -r differ in the last bit
BITWISE_SCHEMES = [get_preset(name).scheme for name in preset_names()] + [
    CoeffScheme(
        r=1.2345,
        f1=FracPoly.from_coeffs([1.0, -0.8, 0.3]),
        f1t=FracPoly.from_coeffs([0.5, 0.25]),
        P=FracPoly.zero(),
    )
]


# 257 * 263 = 67,591: two primes above the dense cutoff 256 meet at one k
# past the first block edge (the large prime there at K = 67,591; both are
# scattered at K = 200,000)
@pytest.mark.parametrize("limit", BLOCK_LIMITS + [200_000, 257 * 263])
def test_scatter_matches_strided_passes_bitwise(limit):
    for scheme in BITWISE_SCHEMES:
        tables = build_tables(scheme.r, limit)
        a = coeffs_ak(scheme, tables, limit)
        assert np.array_equal(a, _strided_ak(scheme, tables.primes, limit))
        signed = np.zeros(limit + 1)
        for lo, hi, _, l, _ in _strided_blocks(scheme.r, tables.primes, limit, None):
            signed[lo:hi] = l
        assert np.array_equal(tables.liouville, np.sign(signed).astype(np.int8))
        assert np.array_equal(tables.dr, np.abs(signed))


# ---------------------------------------------------------------- prime log sums


def test_mertens_deficit_single_prime():
    assert mertens_deficit(2) == pytest.approx(-math.log(2) / 2.0, rel=1e-14)


def test_mertens_deficit_bounded():
    for y in (10**3, 10**4, 10**5, 10**6):
        assert -3.0 < mertens_deficit(y) < 0.0


def test_mertens_deficit_stabilizes():
    assert abs(mertens_deficit(10**4) - mertens_deficit(10**7)) < 0.5


def test_mertens_validation():
    with pytest.raises(ValueError):
        mertens_deficit(1)
    for y in (10.7, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"y must be an integer, got y={y}"):
            mertens_deficit(y)
    assert mertens_deficit(10.0) == mertens_deficit(10)


# ---------------------------------------------------------------- mean square trend


def test_trend_small_exact_value(tables_r1):
    # sum_{k<=10} 1/k = 7381/2520
    (x, ratio), = dr_mean_square_trend(1.0, [10], tables=tables_r1)
    assert x == 10
    assert ratio == pytest.approx((7381.0 / 2520.0) / math.log(10), rel=1e-14)


def test_trend_r1_near_one():
    (_, ratio), = dr_mean_square_trend(1.0, [10**6])
    assert 1.0 < ratio < 1.1


def test_trend_r118_stabilizes():
    pts = dr_mean_square_trend(1.18, [10**4, 10**5, 10**6])
    ratios = [v for _, v in pts]
    d1 = abs(ratios[1] - ratios[0])
    d2 = abs(ratios[2] - ratios[1])
    assert d2 < d1  # successive differences shrink


def test_trend_validation(tables_r1):
    with pytest.raises(ValueError):
        dr_mean_square_trend(1.0, [100, 50], tables=tables_r1)
    with pytest.raises(ValueError):
        dr_mean_square_trend(1.0, [10**6 + 1], tables=tables_r1)
    with pytest.raises(ValueError):
        dr_mean_square_trend(1.0, [], tables=tables_r1)


def test_trend_rejects_non_integral_entries(tables_r1):
    with pytest.raises(ValueError, match="integers"):
        dr_mean_square_trend(1.0, [2.5, 10], tables=tables_r1)
    assert dr_mean_square_trend(1.0, [10.0], tables=tables_r1) == dr_mean_square_trend(
        1.0, [10], tables=tables_r1
    )
