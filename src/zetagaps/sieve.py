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
one prime factor p > sqrt(K), and that factor has exponent 1.  Primes (and
prime powers) up to sqrt(K) get one strided pass each; those above sqrt(K)
are handled by a loop over the cofactor m <= sqrt(K) with one vector update
over every large p with m p <= K.  The a_k are built blockwise, in place of
the S_P buffer, so no other K-sized temporary is allocated.

Tables are built once, are read-only afterwards, and can be shared freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

# a_k is built in blocks of this many entries, so its temporaries stay small
AK_BLOCK = 2**16


@dataclass
class SieveTable:
    """Per-integer tables up to `limit` (indexed 1..limit), the primes, Lambda on its support.

    Index 0 of every per-integer array is an unused sentinel so that
    table[n] is the value at the integer n.
    """

    limit: int
    r: float
    liouville: np.ndarray  # int8, lambda(k) in {-1, +1}
    dr: np.ndarray  # float64, d_r(k)
    primes: np.ndarray  # int64, every prime <= limit, ascending
    prime_powers: np.ndarray  # int64, every p**a <= limit (a >= 1), ascending
    mangoldt: np.ndarray  # float64, Lambda(prime_powers) = log p

    def __post_init__(self):
        for arr in (self.liouville, self.dr, self.primes, self.prime_powers, self.mangoldt):
            arr.setflags(write=False)


def _primes_up_to(n: int) -> np.ndarray:
    """All primes <= n via a boolean Eratosthenes sieve."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).astype(np.int64)


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


def build_tables(r: float, limit: int) -> SieveTable:
    """Sieve the primes and lambda, d_r, Lambda up to `limit`.

    lambda and d_r are completely determined by prime-power exponents, so
    both are accumulated with one strided pass per prime power p**j: every
    multiple of p**j picks up a factor -1 (for lambda) respectively
    (j - 1 + r)/j (for d_r, the Gamma-ratio recurrence
    d_r(p**j) = d_r(p**(j-1)) * (j - 1 + r) / j).  The same walk lists the
    higher prime powers, the rest of Lambda's support.
    """
    limit = int(limit)
    if not (2 <= limit <= MAX_TABLE_LIMIT):
        raise ValueError(f"limit must lie in [2, {MAX_TABLE_LIMIT}]")
    if r <= 0:
        raise ValueError("r must be positive")

    primes = _primes_up_to(limit)
    liouville = np.ones(limit + 1, dtype=np.int8)
    dr = np.ones(limit + 1, dtype=np.float64)
    powers, logs = [], []  # p**j and log p for j >= 2

    split = _above_root(primes, limit)
    for p in primes[:split].tolist():
        pj = p
        j = 1
        while pj <= limit:
            liouville[pj::pj] *= -1
            dr[pj::pj] *= (j - 1 + r) / j
            if j > 1:
                powers.append(pj)
                logs.append(math.log(p))
            pj *= p
            j += 1
    large = primes[split:]
    for m, n in _cofactor_walk(large, limit):
        idx = m * large[:n]
        liouville[idx] *= -1
        dr[idx] *= r

    liouville[0] = 0
    dr[0] = 0.0
    prime_powers = np.concatenate([primes, np.array(powers, dtype=np.int64)])
    order = np.argsort(prime_powers, kind="stable")
    return SieveTable(
        limit=limit,
        r=r,
        liouville=liouville,
        dr=dr,
        primes=primes,
        prime_powers=prime_powers[order],
        mangoldt=np.concatenate([np.log(primes.astype(np.float64)), logs])[order],
    )


def coeffs_ak(scheme: CoeffScheme, tables: SieveTable, upto: int) -> np.ndarray:
    """The literal coefficients a_k for 1 <= k <= upto, index-aligned (a[0] = 0).

    a_k = lambda(k) d_r(k) / sqrt(k) * [ f1(x_k) + S_P(k) * f1t(x_k) ]

    with x_k = log(upto / k) / log(upto) and S_P(k) the sum of
    P(log p / log(upto)) over the distinct primes p dividing k.  f1, f1t and
    P are evaluated from their dense coefficients by Horner's rule (numpy's
    polyval), P once at all primes up to `upto`.

    S_P gets one strided pass per prime p <= sqrt(upto) and, for the primes
    above sqrt(upto), one vector update per cofactor m.  The a_k are then
    written block by block (AK_BLOCK entries) over the S_P buffer, each
    block reading S_P(k) before overwriting it, so the result is the only
    K-sized array allocated.
    """
    upto = int(upto)
    if upto < 2 or upto > tables.limit:
        raise ValueError("upto must lie in [2, tables.limit]")
    if abs(tables.r - scheme.r) > 1e-12:
        raise ValueError("tables were built with a different r")

    log_up = math.log(upto)
    a = np.zeros(upto + 1)  # S_P(k) first, then a_k
    if not scheme.P.is_zero:
        primes = tables.primes[tables.primes <= upto]
        p_at_primes = polyval(np.log(primes) / log_up, scheme.P.to_coeffs())
        split = _above_root(primes, upto)
        for p, value in zip(primes[:split].tolist(), p_at_primes[:split].tolist()):
            a[p::p] += value
        large, p_large = primes[split:], p_at_primes[split:]
        for m, n in _cofactor_walk(large, upto):
            a[m * large[:n]] += p_large[:n]

    f1, f1t = scheme.f1.to_coeffs(), scheme.f1t.to_coeffs()
    for lo in range(1, upto + 1, AK_BLOCK):
        hi = min(lo + AK_BLOCK, upto + 1)
        k = np.arange(lo, hi, dtype=np.float64)
        x = 1.0 - np.log(k) / log_up
        a[lo:hi] = (
            tables.liouville[lo:hi]
            * tables.dr[lo:hi]
            / np.sqrt(k)
            * (polyval(x, f1) + a[lo:hi] * polyval(x, f1t))
        )
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
    upto = len(a) - 1
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
    if not math.isfinite(t_param):
        raise ValueError(f"T must be finite, got T={t_param}")
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
    xs = [int(x) for x in x_list]
    if not xs:
        raise ValueError("x_list must not be empty")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("x_list must be strictly increasing")
    if xs[0] < 2:
        raise ValueError("entries must be at least 2")
    if tables is None:
        tables = build_tables(r, xs[-1])
    elif tables.limit < xs[-1] or abs(tables.r - r) > 1e-12:
        raise ValueError("tables do not cover the requested range")

    k = np.arange(1, xs[-1] + 1, dtype=np.float64)
    csum = np.cumsum(tables.dr[1 : xs[-1] + 1] ** 2 / k)
    return [(x, float(csum[x - 1]) / math.log(x) ** (r * r)) for x in xs]
