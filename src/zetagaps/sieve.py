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

The denominator converges fast only for P = 0: sum a_k**2 / log K meets the
limit d1 to 1.3e-5 at T = 1e6 for f1 = 1 - u.  With P != 0 its cross terms
converge logarithmically slowly too: for table1-row1 the finite
(d31 + d32) / d1 is 27.5% above the limit's at T = 1e6 and 18.8% above it at
T = 1e9.  The numerator converges logarithmically slowly, for two measured
reasons.  The kernel argument carries theta = log K / log T (0.62 at
T = 1e6), and the prime sum converges at the rate set by Mertens' constant,
sum_{p <= x} log p / p = log x - 1.33...; at T = 1e6 (K = 5239, c = 0.6,
f1 = 1 - u) the two cost factors of 0.645 and 0.638, and the finite
numerator is 0.411 of the limit one.

Every stage splits its per-prime work at sqrt(K): each k <= K has at most
one prime factor q > sqrt(K), and that factor has exponent 1.  lambda d_r,
S_P and a_k are sieved in blocks of SIEVE_BLOCK integers, one pass per prime
power p**j <= K with p <= sqrt(K).  The passes of the primes up to
DENSE_PRIMES = sqrt(SIEVE_BLOCK) are dense strided slices.  The larger
primes hit a block at most SIEVE_BLOCK / DENSE_PRIMES times per pass, so the
hits of all their passes are listed and applied in one scatter per block,
which keeps the numpy calls per block few.  The large prime q of k = m q
has a cofactor m <= K / q < sqrt(K), so each block lists its k = m q from
two searchsorted over the primes above sqrt(K), for all m at once, and
applies them in one more scatter, with P(log q / log K) evaluated once per
prime for the whole walk.  A block is three rows (k, lambda d_r, S_P), reused
from block to block, and coeffs_ak's own slice of a serves as its Horner
scratch, so finite_h allocates no K-sized array but a.  The numerator sum
builds its weights w(n) in place in two arrays over Lambda's support, and
takes the support above sqrt(K) one cofactor k <= sqrt(K) at a time; one
searchsorted counts, for every k, the entries at most K / k.

The blocks are walked by at most two threads, by two only when each gets at
least WORKER_BLOCKS blocks; a single one is the caller's.  Each has its own
block rows (1.6 MB) and, as it finishes a block, takes the next block start
from one shared list, so a thread slowed by other load takes fewer blocks.
numpy releases the GIL inside its ufunc loops, so one thread's logs, Horner
steps and strided passes run while the other holds the GIL for its Python
pass loop: a_k at
K = 2,328,539 (36 blocks) took 0.080-0.100 s on two threads against
0.100-0.107 s on one (medians of 9 calls, three rounds, 2-vCPU Xeon).  At
T = 3e8 (13 blocks) two threads took 27-29 ms against 29-34 ms; at T = 1e8
(5 blocks) they saved at most 1.2 ms of 12-14 and raised the peak RSS of
`zetagaps oracle` from 36.8 to 39.1 MB, hence WORKER_BLOCKS = 4.  What a
block computes does not depend on the thread that computes it, so every
output is bit for bit the same for any number of threads.  The numerator
sum stays on one thread: its dots on two threads, summed in order, took
0.028 s -> 0.029 s.  DENSE_PRIMES stays 256: at 64, a_k at K = 2,328,539 was
about 7% faster on two threads (medians of 21 calls, 77-78 against
82-83 ms), but coeffs_ak's traced allocations at K = 1e6 rose from 1.71-1.73
to 1.74-1.75 times a's size.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from .hfunc import CoeffScheme, _is

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

# a second thread walks the blocks only if each of two gets this many
WORKER_BLOCKS = 4


@dataclass
class SieveTable:
    """The primes and Lambda on its support up to `limit`; lambda and d_r per integer.

    `liouville` (int8, lambda(k) = +-1) and `dr` (float64, d_r(k)) are indexed
    by k, index 0 an unused sentinel, and are all that `r` serves.  Both are
    sieved on the first read of either and cached.  Every array is read-only,
    but that first read writes the cache: make it before sharing the table between threads.
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

        def visit(lo, hi, k, l, s):
            signed[lo:hi] = l

        _walk(self.r, self.primes, self.limit, np.zeros(1), visit)
        liouville = np.sign(signed).astype(np.int8)
        self.dr = np.abs(signed, out=signed)
        for arr in (liouville, self.dr):
            arr.setflags(write=False)
        return liouville

    @cached_property
    def dr(self) -> np.ndarray:
        self.liouville  # its first read sieves both and sets dr
        return vars(self)["dr"]


def _integer(name: str, value) -> int:
    """value as an int; ValueError naming it unless an integral finite number (not a bool)."""
    if not (_is(Real, value) and (isinstance(value, Integral) or float(value).is_integer())):
        raise ValueError(f"{name} must be an integer, got {name}={value!r}")
    return int(value)


def _primes_up_to(n: int) -> np.ndarray:
    """All primes <= n via a boolean Eratosthenes sieve over the odd numbers."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    # index i stands for 2 i + 1, but index 0 for the prime 2
    odd_prime = np.ones((n + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if odd_prime[i]:
            p = 2 * i + 1
            odd_prime[p * p // 2 :: p] = False
    primes = np.flatnonzero(odd_prime).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def _above_root(values: np.ndarray, limit: int) -> int:
    """Index of the first entry of the ascending `values` above isqrt(limit)."""
    return int(np.searchsorted(values, math.isqrt(limit), side="right"))


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
    order, without its temporaries.  It stays for speed: at SIEVE_BLOCK
    points and 2 to 4 coefficients it took 66-179 us against polyval's
    850-1,074 us on a 2-vCPU Xeon, as polyval allocates a block-sized array
    per step."""
    out.fill(coeffs[-1])
    for c in coeffs[-2::-1].tolist():
        out *= x
        out += c
    return out


def _worker_count(blocks: int) -> int:
    """Threads to walk `blocks` blocks on: two, or one with one usable CPU or with
    fewer than WORKER_BLOCKS blocks for each of two."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return 2 if cpus >= 2 and blocks >= 2 * WORKER_BLOCKS else 1


def _ranks(count: np.ndarray) -> np.ndarray:
    """Each hit's rank in its group, for groups of `count` hits listed one after another."""
    rank = np.arange(count.sum())
    rank -= np.repeat(np.cumsum(count) - count, count)
    return rank


def _walk(r: float, primes: np.ndarray, limit: int, p_coeffs: np.ndarray, visit) -> None:
    """Call visit(lo, hi, k, l, s) once per block [lo, hi) of SIEVE_BLOCK
    integers covering 1..limit, on up to _worker_count threads: k = lo..hi-1
    as float64, l = lambda(k) d_r(k) and s = S_P(k) = sum of P(log p / log limit)
    over the primes p | k (P's dense coefficients `p_coeffs`, with P(0) = 0;
    [0.0] for P = 0, where s stays 0).  The rows are the calling worker's and
    its next block overwrites them, so visit may overwrite them too and copies
    what it keeps into the slice [lo, hi) of its output, which no other block
    writes.  An exception in any worker stops the walk after the blocks under
    way and is raised here, after every thread has ended.

    `primes` must hold every prime <= limit.  Each pass p**j with
    p <= sqrt(limit) multiplies l by -(j - 1 + r)/j (lambda's sign and d_r's
    Gamma-ratio recurrence); for j = 1 it adds P(log p / log limit) to s.  The
    passes of the primes p <= DENSE_PRIMES are strided slices in one loop; the
    hits of all the others are listed pass by pass and applied in one scatter
    per block.  Both run the passes p ascending, then j, so every product and
    sum is taken in one order.  Last, the prime factor q above sqrt(limit), if
    k has one, multiplies l by -r and adds P(log q / log limit) to s: k = m q
    with a cofactor m < sqrt(limit), so two searchsorted over the large
    primes, one per block end, list for every m the q with m q in the block.
    P is evaluated at every prime <= limit once per walk, in one table that
    the j = 1 passes and the large primes read.
    """
    # P(log p / log limit) at every prime p <= limit
    primes = primes[: np.searchsorted(primes, limit, side="right")]
    x = primes.astype(np.float64)
    np.log(x, out=x)
    x /= math.log(limit)
    p_of_prime = _horner(x, p_coeffs, np.empty_like(x))
    del x  # not held through the walk
    passes = np.array(list(_small_powers(primes, limit)), dtype=np.int64).reshape(-1, 3)
    p, j, pj = passes.T
    factor = -(j - 1 + r) / j
    # what a pass adds to s: P(log p / log limit) for j = 1, else 0
    value = np.where(j == 1, p_of_prime[np.searchsorted(primes, p)], 0.0)
    dense = int(np.searchsorted(p, DENSE_PRIMES, side="right"))
    strided = list(zip(*(col[:dense].tolist() for col in (pj, factor, value))))
    sparse_pj, sparse_factor, sparse_value = pj[dense:], factor[dense:], value[dense:]
    # the primes q above sqrt(limit) (there is one: Bertrand) with their P(log q / log limit),
    # and every cofactor m with m q <= limit for some q
    root = _above_root(primes, limit)
    large, p_large = primes[root:], p_of_prime[root:]
    cofactors = np.arange(1, limit // int(large[0]) + 1)
    offsets = np.arange(min(SIEVE_BLOCK, limit), dtype=np.float64)
    starts = list(range(1, limit + 1, SIEVE_BLOCK))[::-1]  # popped from the end
    lock = threading.Lock()
    # each worker's block arrays, allocated on the caller's thread: a helper's own
    # allocation stayed resident in its malloc arena (peak RSS 1.8 MB higher at T = 1e9)
    buffers = np.empty((_worker_count(len(starts)), 3, offsets.size))

    def work(own):
        while True:
            with lock:
                if not starts:
                    return
                lo = starts.pop()
            n = min(SIEVE_BLOCK, limit + 1 - lo)
            k, l, s = own[:, :n]
            l.fill(1.0)
            s.fill(0.0)
            for step, f, v in strided:
                start = -lo % step
                l[start::step] *= f
                if v:  # adding 0 leaves s as it is (s is never -0.0)
                    s[start::step] += v
            start = -lo % sparse_pj
            count = (n - start + sparse_pj - 1) // sparse_pj  # hits in this block
            # the hits pass by pass, in place: np.repeat(x, count) gives each hit its pass's x
            hit = _ranks(count)
            hit *= np.repeat(sparse_pj, count)
            hit += np.repeat(start, count)
            np.multiply.at(l, hit, np.repeat(sparse_factor, count))
            np.add.at(s, hit, np.repeat(sparse_value, count))
            del hit  # the hit lists are a block's largest temporaries: one at a time
            # the large primes cofactor by cofactor: m large[first:first + count] lies in the block
            first = np.searchsorted(large, (lo - 1) // cofactors, side="right")
            count = np.searchsorted(large, (lo + n - 1) // cofactors, side="right")
            count -= first
            index = _ranks(count)
            index += np.repeat(first, count)
            # each hit's P(log q / log limit), held in k's row until k is set: a block's k
            # are distinct, so the hits fit ("clip" writes into out, which the default
            # mode buffers; index is in range, so none is clipped)
            p_of_q = np.take(p_large, index, out=k[: index.size], mode="clip")
            hit = large[index]
            del index
            hit *= np.repeat(cofactors, count)
            hit -= lo
            np.multiply.at(l, hit, -r)
            np.add.at(s, hit, p_of_q)
            np.add(offsets[:n], lo, out=k)
            visit(lo, lo + n, k, l, s)

    errors = []

    def helper(own):
        try:
            work(own)
        except BaseException as exc:  # raised again on the caller's thread below
            errors.append(exc)
            with lock:
                starts.clear()

    # a copied context carries the caller's np.errstate into the helper
    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(helper, own))
        for own in buffers[1:]
    ]
    for thread in threads:
        thread.start()
    try:
        work(buffers[0])
    finally:
        with lock:
            starts.clear()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def build_tables(r: float, limit: int) -> SieveTable:
    """Sieve the primes and Lambda up to `limit`; lambda and d_r on first read.

    Lambda's support is the primes and the p**j (j >= 2) of the primes
    p <= sqrt(limit), listed by the prime-power walk that sieves the blocks.
    """
    limit = _integer("limit", limit)
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
    P are evaluated from their dense coefficients by Horner's rule, in place
    (_horner).

    lambda(k) d_r(k) and S_P(k) come from the block sieve at scheme.r, which
    reads of `tables` only the primes up to upto; the result is the one
    K-sized array allocated, and each block's slice of it is the sieve's
    Horner scratch until it takes that block's a_k.
    """
    upto = _integer("upto", upto)
    if upto < 2 or upto > tables.limit:
        raise ValueError("upto must lie in [2, tables.limit]")

    log_up = math.log(upto)
    f1, f1t = scheme.f1.to_coeffs(), scheme.f1t.to_coeffs()
    a = np.zeros(upto + 1)

    def visit(lo, hi, k, l, s):
        f = a[lo:hi]  # Horner's scratch row until it takes a_k
        l /= np.sqrt(k, out=f)
        x = np.log(k, out=k)
        x /= log_up
        np.subtract(1.0, x, out=x)
        s *= _horner(x, f1t, f)
        s += _horner(x, f1, f)
        np.multiply(l, s, out=f)

    _walk(scheme.r, tables.primes, upto, scheme.P.to_coeffs(), visit)
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
    support = tables.prime_powers[: np.searchsorted(tables.prime_powers, upto, side="right")]
    # w = Lambda(n) * (2 sin(pi c log n / log T) / (pi log n)) / sqrt(n), in two arrays
    scratch = np.log(support)
    w = np.multiply(scratch, math.pi * c)
    w /= math.log(t_param)
    np.sin(w, out=w)
    w *= 2.0
    scratch *= math.pi
    w /= scratch
    w *= tables.mangoldt[: support.size]
    w /= np.sqrt(support, out=scratch)
    split = _above_root(support, upto)
    num = 0.0
    for n, wn in zip(support[:split].tolist(), w[:split].tolist()):
        m = upto // n
        num += wn * float(a[1 : m + 1] @ a[n::n][:m])
    # the a_{nk} of one k are gathered into scratch's tail, free once w is built
    large, w_large, a_nk = support[split:], w[split:], scratch[split:]
    # the first counts[k - 1] entries n of large have n k <= K; they never increase with k
    counts = np.searchsorted(large, upto // np.arange(1, math.isqrt(upto) + 1), side="right")
    for k, n in enumerate(counts[counts > 0].tolist(), start=1):
        # mode "clip" writes into out ("raise" buffers it); n k <= K, so none is clipped
        np.take(a, k * large[:n], out=a_nk[:n], mode="clip")
        num += float(a[k]) * float(w_large[:n] @ a_nk[:n])
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
    y = _integer("y", y)
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
    xs = [_integer(f"x_list[{i}]", x) for i, x in enumerate(x_list)]
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
