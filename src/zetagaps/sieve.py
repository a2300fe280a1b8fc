"""Brute-force arithmetic oracle over the integers.

The asymptotic components in hfunc predict the limiting value of a finite
expression: a ratio of sums over integers k <= K weighted by the Liouville
function lambda(k), the generalized divisor function d_r(k), and the von
Mangoldt function Lambda(n).  This module sieves those tables, builds the
literal coefficients a_k, and evaluates the finite ratio

    h_finite(c) = c - sum_{n k <= K} a_k a_{nk} g_c(n) Lambda(n) / sqrt(n)
                      / sum_{k <= K} a_k**2,

with g_c(n) = 2 sin(pi c log n / log T) / (pi log n) and K = floor(T / log(T)**2),
for empirical comparison against the limit computed by hfunc.  No error-term
bookkeeping is attempted; the comparison is a trend check, not an equality.

The denominator converges fast (sum a_k**2 / log K meets the limit d1 to
1.3e-5 at T = 1e6 for f1 = 1 - u).  The numerator converges logarithmically
slowly, for two measured reasons.  The kernel argument carries
theta = log K / log T (0.62 at T = 1e6), and the prime sum converges at the
rate set by Mertens' constant, sum_{p <= x} log p / p = log x - 1.33...;
at T = 1e6 (K = 5239, c = 0.6, f1 = 1 - u) the two cost factors of 0.645 and
0.638, and the finite numerator is 0.411 of the limit one.

Every stage splits its per-prime work at sqrt(K): each k <= K has at most
one prime factor p > sqrt(K), and that factor has exponent 1.  lambda d_r,
S_P and a_k are sieved in blocks of SIEVE_BLOCK integers, one pass per prime
power p**j <= K with p <= sqrt(K); k over its sqrt(K)-smooth part is then 1
or the large prime.  The passes of the primes up to DENSE_PRIMES =
sqrt(SIEVE_BLOCK) are dense strided slices.  The larger primes hit a block
at most SIEVE_BLOCK / DENSE_PRIMES times per pass, so the hits of all their
passes are listed and applied in one scatter per block, which keeps the
numpy calls per block few.  The block arrays are reused, so finite_h
allocates no K-sized array but a.  The numerator sum takes the primes above
sqrt(K) one cofactor m at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.polynomial import polyval

from .hfunc import CoeffScheme

__all__ = [
    "SieveTable",
    "build_tables",
    "coeffs_ak",
    "finite_h",
    "finite_h_from_coeffs",
    "mertens_deficit",
    "dr_mean_square_trend",
    "MAX_TABLE_LIMIT",
]

MAX_TABLE_LIMIT = 10**8

# the per-integer work runs in blocks of this many integers
SIEVE_BLOCK = 2**16

# primes up to this sieve a block by strided passes, the larger by one scatter
DENSE_PRIMES = math.isqrt(SIEVE_BLOCK)


@dataclass
class SieveTable:
    """The primes and Lambda on its support up to `limit`; lambda and d_r per integer.

    `liouville` (int8, lambda(k) = +-1) and `dr` (float64, d_r(k)) are indexed
    by k, index 0 an unused sentinel.  Both are sieved on the first read of
    either and cached.  Every array is read-only, but that first read writes
    the cache: make it before sharing a table between threads.
    """

    limit: int
    r: float
    primes: np.ndarray  # int64, every prime <= limit, ascending
    prime_powers: np.ndarray  # int64, every p**a <= limit (a >= 1), ascending
    mangoldt: np.ndarray  # float64, Lambda(prime_powers) = log p

    def __post_init__(self):
        for arr in (self.primes, self.prime_powers, self.mangoldt):
            arr.setflags(write=False)

    @cached_property
    def liouville(self) -> np.ndarray:
        signed = np.zeros(self.limit + 1)  # lambda(k) d_r(k)
        for lo, hi, _, l, _ in _blocks(self.r, self.primes, self.limit):
            signed[lo:hi] = l
        liouville = np.sign(signed).astype(np.int8)
        self.dr = np.abs(signed, out=signed)
        for arr in (liouville, self.dr):
            arr.setflags(write=False)
        return liouville

    @cached_property
    def dr(self) -> np.ndarray:
        self.liouville  # its first read sieves both and sets dr
        return vars(self)["dr"]


def _primes_up_to(n: int) -> np.ndarray:
    """All primes <= n via a boolean Eratosthenes sieve."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).astype(np.int64, copy=False)


def _above_root(values: np.ndarray, limit: int) -> int:
    """Index of the first entry of the ascending `values` above isqrt(limit)."""
    return int(np.searchsorted(values, math.isqrt(limit), side="right"))


def _cofactor_walk(large: np.ndarray, limit: int):
    """Yield (m, n) for m = 1, 2, ...: the first n entries v of the ascending
    `large` are exactly those with m * v <= limit.

    Stops at the first m with n = 0.  When every entry exceeds isqrt(limit),
    m never exceeds isqrt(limit), so the walk takes at most that many steps.
    """
    m = 1
    while True:
        n = int(np.searchsorted(large, limit // m, side="right"))
        if n == 0:
            return
        yield m, n
        m += 1


def _small_powers(primes: np.ndarray, limit: int):
    """Yield (p, j, p**j) for the primes p <= sqrt(limit) and p**j <= limit,
    p ascending, then j ascending."""
    for p in primes[: _above_root(primes, limit)].tolist():
        pj, j = p, 1
        while pj <= limit:
            yield p, j, pj
            pj, j = pj * p, j + 1


def _horner(x: np.ndarray, coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """polyval(x, coeffs) written into `out`: polyval's operations in its
    order, without its temporaries."""
    out.fill(coeffs[-1])
    for c in coeffs[-2::-1].tolist():
        out *= x
        out += c
    return out


def _blocks(r: float, primes: np.ndarray, limit: int, p_coeffs=None):
    """Yield (lo, hi, k, l, s) over blocks [lo, hi) of SIEVE_BLOCK integers
    covering 1..limit: k = lo..hi-1 as float64, l = lambda(k) d_r(k) and
    s = S_P(k) = sum of P(log p / log limit) over the primes p | k (P's
    dense coefficients `p_coeffs`, with P(0) = 0; s = 0 when None).  The
    three arrays are reused: the next block overwrites them.

    `primes` must hold every prime <= sqrt(limit).  Each pass p**j
    multiplies l by -(j - 1 + r)/j (lambda's sign and d_r's Gamma-ratio
    recurrence) and the smooth part m of k by p; for j = 1 it adds
    P(log p / log limit) to s.  The passes of the primes p <= DENSE_PRIMES
    are strided; the hits of all the others are listed pass by pass and
    applied in one scatter per block.  Both run the passes p ascending, then
    j, so every product and sum is taken in one order.  q = k / m (exact
    below 2**53) is then 1 or the prime factor above sqrt(limit), which
    multiplies l by -r last and adds P(log q / log limit) (0 at q = 1).
    """
    passes = np.array(list(_small_powers(primes, limit)), dtype=np.int64).reshape(-1, 3)
    p, j, pj = passes.T
    factor = -(j - 1 + r) / j
    log_lim = math.log(limit)
    # what a pass adds to s: P(log p / log limit) for j = 1, else 0
    value = np.zeros(p.size) if p_coeffs is None else np.where(
        j == 1, polyval(np.log(p) / log_lim, p_coeffs), 0.0
    )
    dense = int(np.searchsorted(p, DENSE_PRIMES, side="right"))
    strided = list(zip(pj[:dense].tolist(), p[:dense].tolist(), factor[:dense].tolist()))
    # adding 0 leaves s as it is (s is never -0.0), so those passes are skipped
    strided_s = [(prime, v) for prime, v in zip(p[:dense].tolist(), value[:dense].tolist()) if v]
    sparse_pj, sparse_p = pj[dense:], p[dense:].astype(np.float64)
    sparse_factor, sparse_value = factor[dense:], value[dense:]

    size = min(SIEVE_BLOCK, limit)
    offsets = np.arange(size, dtype=np.float64)
    buffers = np.empty((5, size))
    for lo in range(1, limit + 1, SIEVE_BLOCK):
        n = min(SIEVE_BLOCK, limit + 1 - lo)
        k, l, m, s, p_of_q = buffers[:, :n]
        np.add(offsets[:n], lo, out=k)
        l.fill(1.0)
        m.fill(1.0)
        s.fill(0.0)
        for step, prime, f in strided:
            start = -lo % step
            l[start::step] *= f
            m[start::step] *= prime
        for prime, v in strided_s:
            s[-lo % prime :: prime] += v
        start = -lo % sparse_pj
        count = (n - start + sparse_pj - 1) // sparse_pj  # hits in this block
        which = np.repeat(np.arange(count.size), count)  # the pass of each hit
        first = np.cumsum(count) - count  # its pass's first hit
        hit = start[which] + sparse_pj[which] * (np.arange(which.size) - first[which])
        np.multiply.at(l, hit, sparse_factor[which])
        np.multiply.at(m, hit, sparse_p[which])
        if p_coeffs is not None:
            np.add.at(s, hit, sparse_value[which])
        q = np.divide(k, m, out=m)
        np.multiply(l, -r, out=l, where=q > 1.0)
        if p_coeffs is not None:
            np.log(q, out=q)
            q /= log_lim
            s += _horner(q, p_coeffs, p_of_q)
        yield lo, lo + n, k, l, s


def build_tables(r: float, limit: int) -> SieveTable:
    """Sieve the primes and Lambda up to `limit`; lambda and d_r on first read.

    Lambda's support is the primes and the p**j (j >= 2) of the primes
    p <= sqrt(limit), listed by the prime-power walk that sieves the blocks.
    """
    limit = int(limit)
    if not (2 <= limit <= MAX_TABLE_LIMIT):
        raise ValueError(f"limit must lie in [2, {MAX_TABLE_LIMIT}]")
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"r must be positive and finite, got r={r}")

    primes = _primes_up_to(limit)
    higher = [(pj, math.log(p)) for p, j, pj in _small_powers(primes, limit) if j > 1]
    support = np.concatenate([primes, [pj for pj, _ in higher]]).astype(np.int64)
    logs = np.concatenate([np.log(primes.astype(np.float64)), [lp for _, lp in higher]])
    order = np.argsort(support, kind="stable")
    return SieveTable(limit, r, primes, support[order], logs[order])


def coeffs_ak(scheme: CoeffScheme, tables: SieveTable, upto: int) -> np.ndarray:
    """The literal coefficients a_k for 1 <= k <= upto, index-aligned (a[0] = 0).

    a_k = lambda(k) d_r(k) / sqrt(k) * [ f1(x_k) + S_P(k) * f1t(x_k) ]

    with x_k = log(upto / k) / log(upto) and S_P(k) the sum of
    P(log p / log(upto)) over the distinct primes p dividing k.  f1, f1t and
    P are evaluated from their dense coefficients by Horner's rule (numpy's
    polyval, in place).

    lambda(k) d_r(k) and S_P(k) come from the block sieve, which reads only
    tables.r and the primes up to sqrt(upto); the result is the one K-sized
    array allocated.
    """
    upto = int(upto)
    if upto < 2 or upto > tables.limit:
        raise ValueError("upto must lie in [2, tables.limit]")
    if abs(tables.r - scheme.r) > 1e-12:
        raise ValueError("tables were built with a different r")

    log_up = math.log(upto)
    p_coeffs = None if scheme.P.is_zero else scheme.P.to_coeffs()
    f1, f1t = scheme.f1.to_coeffs(), scheme.f1t.to_coeffs()
    a = np.zeros(upto + 1)
    buffers = np.empty((2, min(SIEVE_BLOCK, upto)))
    for lo, hi, k, l, s in _blocks(tables.r, tables.primes, upto, p_coeffs):
        x, f = buffers[:, : hi - lo]
        np.log(k, out=x)
        x /= log_up
        np.subtract(1.0, x, out=x)
        s *= _horner(x, f1t, f)
        s += _horner(x, f1, f)
        out = np.divide(l, np.sqrt(k, out=k), out=a[lo:hi])
        out *= s
    return a


def finite_h_from_coeffs(
    a: np.ndarray, tables: SieveTable, c: float, t_param: float
) -> tuple[float, float, float]:
    """Assemble (h_finite, num, den) from an explicit coefficient vector.

    `a` is index-aligned (a[0] ignored) and defines the mollifier length
    K = len(a) - 1.  Split out from finite_h so tests can inject coefficient
    vectors directly.

    The weights w(n) = Lambda(n) g_c(n) / sqrt(n) are one vector over the
    support of Lambda.  Terms with n <= sqrt(K) are strided dots
    sum_k a_k a_{nk}; for n > sqrt(K) the order of summation is swapped,
    sum_{k <= sqrt(K)} a_k * sum_{n <= K/k} w(n) a_{nk}, one dot per k.
    """
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got c={c}")
    if not (math.isfinite(t_param) and t_param > 1):
        raise ValueError(f"T must be finite and above 1, got T={t_param}")
    upto = len(a) - 1
    if not 2 <= upto <= tables.limit:
        raise ValueError(
            f"len(a) - 1 = {upto} must lie in [2, tables.limit = {tables.limit}]"
        )
    den = float(a[1:] @ a[1:])
    support = tables.prime_powers[tables.prime_powers <= upto]
    log_n = np.log(support)
    g = 2.0 * np.sin(math.pi * c * log_n / math.log(t_param)) / (math.pi * log_n)
    w = tables.mangoldt[: support.size] * g / np.sqrt(support)
    split = _above_root(support, upto)
    num = 0.0
    for n, wn in zip(support[:split].tolist(), w[:split].tolist()):
        m = upto // n
        num += wn * float(a[1 : m + 1] @ a[n::n][:m])
    large, w_large = support[split:], w[split:]
    for k, n in _cofactor_walk(large, upto):
        num += float(a[k]) * float(w_large[:n] @ a[k * large[:n]])
    return c - num / den, num, den


def finite_h(
    scheme: CoeffScheme, c: float, t_param: float
) -> tuple[float, float, float]:
    """Evaluate the finite ratio at mollifier length K = floor(T / log(T)**2).

    Returns (h_finite, num, den).  All prime powers n = p**j are kept in the
    numerator sum, since Lambda weights them, even though only n = p
    survives in the limit.
    """
    for name, value in (("c", c), ("T", t_param)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {name}={value}")
    if t_param < 100:
        raise ValueError("T must be at least 100")
    upto = int(t_param / math.log(t_param) ** 2)
    if upto < 100:
        raise ValueError(f"T={t_param:g} gives mollifier length {upto} < 100")
    if upto > MAX_TABLE_LIMIT:
        raise ValueError(
            f"T={t_param:g} gives mollifier length {upto} above "
            f"MAX_TABLE_LIMIT = {MAX_TABLE_LIMIT}"
        )
    tables = build_tables(scheme.r, upto)
    a = coeffs_ak(scheme, tables, upto)
    return finite_h_from_coeffs(a, tables, c, t_param)


def mertens_deficit(y: int) -> float:
    """sum_{p <= y} log(p)/p - log(y); bounded as y grows."""
    if not (math.isfinite(y) and int(y) == y):
        raise ValueError(f"y must be an integer, got y={y}")
    y = int(y)
    if y < 2:
        raise ValueError("y must be at least 2")
    primes = _primes_up_to(y).astype(np.float64)
    return float(np.sum(np.log(primes) / primes)) - math.log(y)


def dr_mean_square_trend(
    r: float, x_list, tables: SieveTable | None = None
) -> list[tuple[int, float]]:
    """Normalized ratios (x, sum_{k<=x} d_r(k)**2 / k / log(x)**(r**2)).

    Their stabilization as x grows estimates the leading constant of the
    mean-square sum empirically.
    """
    x_list = list(x_list)
    xs = [int(x) for x in x_list]
    if xs != x_list:
        raise ValueError(f"x_list entries must be integers, got {x_list}")
    if not xs:
        raise ValueError("x_list must not be empty")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("x_list must be strictly increasing")
    if xs[0] < 2:
        raise ValueError("entries must be at least 2")
    if tables is None:
        tables = build_tables(r, xs[-1])
    elif tables.limit < xs[-1] or not abs(tables.r - r) <= 1e-12:
        raise ValueError("tables do not cover the requested range")

    k = np.arange(1, xs[-1] + 1, dtype=np.float64)
    csum = np.cumsum(tables.dr[1 : xs[-1] + 1] ** 2 / k)
    return [(x, float(csum[x - 1]) / math.log(x) ** (r * r)) for x in xs]
