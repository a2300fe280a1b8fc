"""One repeat of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload certify --seed 0 --repeat 0 \
        --trace 0 --spawned-at <time.monotonic() of the parent at spawn>

Imports the package from the checkout's src/, builds the repeat's inputs,
times every library call of the workload's job and of its quadrature
cross-check (short calls scaled to a reference host speed, see probe()),
then checks every output untimed and prints one JSON object on stdout.
With --trace 1 the job and cross-check run under a Tracer, the spans go to
.perfbench/spans/, and the object carries the per-layer figures.
"""

import argparse
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMPONENTS = ("d1", "d2", "d31", "d32", "n1", "n2", "n31", "n32", "n41", "n42", "n43")
QUAD_ORDER = 48
QUAD_REL_TOL = 1e-12
SIEVE_REL_TOL = 1e-12
# Criterion 3 of the acceptance suite: what optimize_scheme must certify.
OPTIMIZE_C_BOUND = 0.5154 + 1e-4
PRESET_C_TOL = 5e-6
# optimize and oracle confirm one scheme by quadrature at c* and two points
# below it, so their cross-check is not a single 0.3 s sample.
CONFIRM_OFFSETS = (0.0, 0.001, 0.002)
# The probe's median time on the reference host (2-vCPU Xeon), and the
# longest call the probes around it can speak for; see probe().
PROBE_REF_S = 0.009
PROBE_SPAN_S = 1.0


class Ops:
    """Counts checked operations; a failed check is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {name} {detail}", file=sys.stderr)


def attempt(fn, *args):
    """Run one operation of the job; an exception becomes a None output."""
    try:
        return fn(*args)
    except Exception:  # reported and counted as a failed operation
        traceback.print_exc(file=sys.stderr)
        return None


class Bench:
    """The package's modules, reached through the attributes a Tracer patches."""

    def __init__(self):
        import zetagaps.cli as cli
        from zetagaps import fracpoly, hfunc, optimizer, quadcheck, sieve

        self.cli, self.fracpoly, self.hfunc = cli, fracpoly, hfunc
        self.optimizer, self.quadcheck, self.sieve = optimizer, quadcheck, sieve

    def certify_c(self, scheme, grid, tol):
        lo, hi, step = grid
        bracket = self.optimizer.bracket_scan(scheme, lo, hi, step)
        if bracket is None:
            raise ValueError("no sign change of h - 1 on the scan grid")
        return self.optimizer.threshold_c(scheme, bracket, tol)

    def confirm(self, scheme, c):
        return self.quadcheck.h_value_numeric(scheme, c, order=QUAD_ORDER)

    def check_threshold(self, ops, name, scheme, c, grid):
        ok = c is not None and grid[0] < c < grid[1] and self.hfunc.h_value(scheme, c).h > 1.0
        ops.check(f"{name} h(c*) > 1", ok, f"c*={c}")

    def check_quadrature(self, ops, name, scheme, c, numeric):
        if c is None or numeric is None:
            ops.check(f"{name} quadrature", False, "not computed")
            return
        exact = self.hfunc.h_value(scheme, c)
        worst = max(
            abs(getattr(exact, f) - getattr(numeric, f)) / abs(getattr(exact, f))
            for f in COMPONENTS
        )
        ops.check(f"{name} quadrature", worst <= QUAD_REL_TOL, f"worst rel {worst:.2e}")


# --- workloads ---------------------------------------------------------------
# Each workload is three functions: job(b, data) -> [(span name, call)], the
# library calls of the timed job; confirmations(data, results) -> [(label,
# scheme, c)], what the timed cross-check confirms by quadrature; and
# check(b, data, results, ops) -> c_star, the untimed checks of the job.


def certify_job(b, items):
    import inputs

    def verify_table():
        buf = io.StringIO()
        return b.cli.main(["verify-table", "--json"], buf), buf.getvalue()

    calls = [
        ("bench.job", partial(b.certify_c, it.scheme, inputs.CERTIFY_GRID, inputs.CERTIFY_TOL))
        for it in items
    ]
    return calls + [("cli.verify_table", verify_table)]


def certify_confirmations(items, results):
    # the three presets as published, then the first perturbed copy of each shape
    return [(items[i].label, items[i].scheme, results[i]) for i in range(6)]


def certify_check(b, items, results, ops):
    import inputs

    c_stars, table = results[:-1], results[-1]
    for it, c in zip(items, c_stars):
        b.check_threshold(ops, it.label, it.scheme, c, inputs.CERTIFY_GRID)
        if it.base_c is not None:
            ok = c is not None and abs(c - it.base_c) <= PRESET_C_TOL
            ops.check(f"{it.label} reproduces c={it.base_c}", ok, f"c*={c}")
    code, text = table if table else (None, "")
    rows = json.loads(text) if code == 0 else []
    ok = code == 0 and len(rows) == 3 and all(row["passed"] for row in rows)
    ops.check("verify-table", ok, f"exit {code}")
    found = [c for c in c_stars if c is not None]
    return min(found) if found else math.nan


def optimize_job(b, start):
    return [("bench.job", partial(b.optimizer.optimize_scheme, b.optimizer.OptimizeConfig(), start))]


def optimize_confirmations(start, results):
    report = results[0]
    if report is None:
        return [("optimized scheme", None, None)]
    return [("optimized scheme", report.best_scheme, report.c_star - d) for d in CONFIRM_OFFSETS]


def optimize_check(b, start, results, ops):
    report = results[0]
    if report is None:
        ops.check("optimize_scheme", False, "raised")
        return math.nan
    fresh = b.hfunc.h_value(report.best_scheme, report.c_star).h - 1.0
    ok = report.c_star <= OPTIMIZE_C_BOUND and report.margin > 0.0 and fresh > 0.0
    ops.check(
        "optimize criterion 3",
        ok,
        f"c*={report.c_star} margin={report.margin} re-evaluated={fresh}",
    )
    return report.c_star


def oracle_job(b, data):
    import inputs

    scheme = data[0].scheme

    def oracle():
        c = b.certify_c(scheme, inputs.CERTIFY_GRID, inputs.CERTIFY_TOL)
        return c, b.sieve.finite_h(scheme, c, inputs.ORACLE_T), b.hfunc.h_value(scheme, c).h

    return [("bench.job", oracle)]


def oracle_confirmations(data, results):
    item, out = data[0], results[0]
    if out is None:
        return [(item.label, item.scheme, None)]
    return [(item.label, item.scheme, out[0] - d) for d in CONFIRM_OFFSETS]


def oracle_check(b, data, results, ops):
    import inputs

    (item, ks), out = data, results[0]
    c = out[0] if out else None
    b.check_threshold(ops, item.label, item.scheme, c, inputs.CERTIFY_GRID)
    if out:
        h_fin, num, den = out[1]
        ok = all(math.isfinite(v) for v in (h_fin, num, den)) and den > 0.0 and out[2] > 1.0
        ops.check("oracle at T=1e9", ok, f"h_finite={h_fin} den={den} h_limit={out[2]}")
    else:
        ops.check("oracle at T=1e9", False, "raised")
    check_sieve(b, ops, item.scheme, ks, c if c else 0.5154)
    return c if c else math.nan


# --- independent references for the sieve ------------------------------------


def _factorize(k: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= k:
        while k % p == 0:
            out[p] = out.get(p, 0) + 1
            k //= p
        p += 1
    if k > 1:
        out[k] = out.get(k, 0) + 1
    return out


def _horner(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def reference_ak(scheme, k: int, upto: int) -> tuple[float, float]:
    """a_k by trial division, and the size of its terms (for the tolerance)."""
    from inputs import dense

    f1, f1t, P = (list(dense(p)) for p in (scheme.f1, scheme.f1t, scheme.P))
    fac = _factorize(k)
    lam = -1.0 if sum(fac.values()) % 2 else 1.0
    dr = 1.0
    for e in fac.values():
        for j in range(1, e + 1):
            dr *= (j - 1 + scheme.r) / j
    log_up = math.log(upto)
    s_p = sum(_horner(P, math.log(p) / log_up) for p in fac)
    x = 1.0 - math.log(k) / log_up
    weight = lam * dr / math.sqrt(k)
    value = weight * (_horner(f1, x) + s_p * _horner(f1t, x))
    scale = abs(weight) * (sum(map(abs, f1)) + abs(s_p) * sum(map(abs, f1t)))
    return value, scale


def reference_finite_h(scheme, c: float, t_param: float) -> float:
    upto = int(t_param / math.log(t_param) ** 2)
    a = [0.0] + [reference_ak(scheme, k, upto)[0] for k in range(1, upto + 1)]
    den = sum(v * v for v in a)
    log_t = math.log(t_param)
    num = 0.0
    for n in range(2, upto + 1):
        fac = _factorize(n)
        if len(fac) != 1:
            continue
        mangoldt = math.log(next(iter(fac)))
        g = 2.0 * math.sin(math.pi * c * math.log(n) / log_t) / (math.pi * math.log(n))
        inner = sum(a[k] * a[n * k] for k in range(1, upto // n + 1))
        num += mangoldt * g / math.sqrt(n) * inner
    return c - num / den


def check_sieve(b, ops, scheme, ks, c):
    """Sampled a_k against trial division, and finite_h against a brute-force sum."""
    import inputs

    tables = b.sieve.build_tables(scheme.r, inputs.K_CHECK)
    a = b.sieve.coeffs_ak(scheme, tables, inputs.K_CHECK)
    worst = 0.0
    for k in ks:
        ref, scale = reference_ak(scheme, int(k), inputs.K_CHECK)
        worst = max(worst, abs(a[int(k)] - ref) / scale)
    ops.check("a_k vs trial division", worst <= SIEVE_REL_TOL, f"worst {worst:.2e}")
    h_fin = b.sieve.finite_h(scheme, c, inputs.ORACLE_T_CHECK)[0]
    ref = reference_finite_h(scheme, c, inputs.ORACLE_T_CHECK)
    rel = abs(h_fin - ref) / abs(ref)
    ops.check("finite_h vs brute force", rel <= SIEVE_REL_TOL, f"rel {rel:.2e}")


# --- tracing -----------------------------------------------------------------


def trace_targets(b, seen_schemes: set):
    F = b.fracpoly.FracPoly

    def merge(tr, args, result):
        tr.count("pairs_in", args[0].coeffs.size * args[1].coeffs.size)
        tr.count("terms_out", result.coeffs.size)

    def scheme_seen(tr, args, result):
        s = args[0]
        seen_schemes.add(
            (s.r,) + tuple(a.tobytes() for p in (s.f1, s.f1t, s.P) for a in (p.coeffs, p.exponents))
        )

    def iterations(tr, args, result):
        tr.count("nelder_mead.iterations", len(result[2]) - 1)

    def table_bytes(tr, args, result):
        tr.count("table_bytes", sum(getattr(v, "nbytes", 0) for v in vars(result).values()))

    h = "hfunc.h_value"
    return [
        (F, "mul", "fracpoly.mul", merge),
        (F, "eval", "fracpoly.eval", None),
        (b.hfunc, "convolve", "fracpoly.convolve", merge),
        (b.hfunc, "beta_convolve", "fracpoly.beta_convolve", None),
        (b.hfunc, "integrate_weighted", "fracpoly.integrate_weighted", None),
        (b.hfunc, "denominator_terms", "hfunc.denominator_terms", None),
        (b.hfunc, "numerator_terms", "hfunc.numerator_terms", None),
        (b.hfunc, "h_value", h, scheme_seen),
        (b.optimizer, "h_value", h, scheme_seen),
        (b.cli, "h_value", h, scheme_seen),
        (b.optimizer, "bracket_scan", "optimizer.bracket_scan", None),
        (b.optimizer, "threshold_c", "optimizer.threshold_c", None),
        (b.optimizer, "nelder_mead", "optimizer.nelder_mead", iterations),
        (b.optimizer, "optimize_scheme", "optimizer.optimize_scheme", None),
        (b.quadcheck, "h_value_numeric", "quadcheck.h_value_numeric", None),
        (b.sieve, "finite_h", "sieve.finite_h", None),
        (b.sieve, "build_tables", "sieve.build_tables", table_bytes),
        (b.sieve, "coeffs_ak", "sieve.coeffs_ak", None),
        (b.sieve, "finite_h_from_coeffs", "sieve.finite_h_from_coeffs", None),
    ]


def layer_metrics(tracer, n_schemes: int) -> dict[str, float]:
    """Per-layer figures of one traced repeat, derived from its spans."""
    from spans import busy, calls, self_time

    sp, counts = tracer.spans, tracer.counts
    m: dict[str, float] = {}
    for fn in ("mul", "convolve", "beta_convolve", "integrate_weighted", "eval"):
        m[f"fracpoly.{fn}.calls"] = calls(sp, f"fracpoly.{fn}")
        m[f"fracpoly.{fn}.busy_s"] = busy(sp, f"fracpoly.{fn}")
    pairs = counts.get("pairs_in", 0)
    m["fracpoly.merge_ratio"] = counts.get("terms_out", 0) / pairs if pairs else 0.0
    for fn in ("h_value", "denominator_terms", "numerator_terms"):
        m[f"hfunc.{fn}.calls"] = calls(sp, f"hfunc.{fn}")
        m[f"hfunc.{fn}.busy_s"] = busy(sp, f"hfunc.{fn}")
    m["hfunc.evals_per_scheme"] = m["hfunc.h_value.calls"] / n_schemes if n_schemes else 0.0
    for fn in ("bracket_scan", "threshold_c"):
        m[f"optimizer.{fn}.calls"] = calls(sp, f"optimizer.{fn}")
        m[f"optimizer.{fn}.busy_s"] = busy(sp, f"optimizer.{fn}")
        m[f"optimizer.{fn}.h_calls"] = calls(sp, "hfunc.h_value", under=f"optimizer.{fn}")
    m["optimizer.nelder_mead.calls"] = calls(sp, "optimizer.nelder_mead")
    m["optimizer.nelder_mead.iterations"] = counts.get("nelder_mead.iterations", 0)
    m["optimizer.nelder_mead.self_s"] = self_time(sp, "optimizer.nelder_mead")
    # each optimize_scheme call certifies once up front and once per accepted round
    m["optimizer.rounds_accepted"] = max(
        0,
        calls(sp, "optimizer.bracket_scan", under="optimizer.optimize_scheme")
        - calls(sp, "optimizer.optimize_scheme"),
    )
    m["quadcheck.h_value_numeric.calls"] = calls(sp, "quadcheck.h_value_numeric")
    m["quadcheck.h_value_numeric.busy_s"] = busy(sp, "quadcheck.h_value_numeric")
    for fn in ("build_tables", "coeffs_ak", "finite_h_from_coeffs"):
        m[f"sieve.{fn}.busy_s"] = busy(sp, f"sieve.{fn}")
    m["sieve.table_bytes_computed"] = counts.get("table_bytes", 0)
    m["cli.verify_table.busy_s"] = busy(sp, "cli.verify_table")
    return m


def probe() -> float:
    """Median seconds of five runs of a fixed loop that never calls the package.

    The host's speed drifts by up to a factor of two within seconds (other
    tenants share its cores and its L3).  The probe runs before the job's
    first call and after every call of the job and of the cross-check; a
    call shorter than PROBE_SPAN_S is reported scaled by PROBE_REF_S over
    the mean of the two probes around it, i.e. as seconds at the reference
    speed.  Over a longer call (optimize_scheme, the oracle) the speed
    changes too often for probes at its ends to say at what speed it ran,
    so it is reported as measured, as is set-up.  The loop mixes what the
    package spends its time on: interpreter work, ufuncs on small arrays
    and sums over an array larger than L2.  The median drops short bursts.
    """
    import numpy as np

    small = np.arange(64.0)
    big = np.ones(1 << 19)
    table: dict[int, float] = {}
    acc = 0.0
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for i in range(1400):
            acc += float((small * 1.0001 + i).sum())
            table[i & 255] = acc
        for _ in range(10):
            acc += float(big.sum())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_calls(calls, region, probes):
    """Run each (span name, call) with a probe after it; returns (results, wall, scaled).

    `probes` holds the probe taken before the first call and grows by one
    per call.  A call shorter than PROBE_SPAN_S counts as its wall time
    scaled to the reference speed by the two probes around it; a longer one
    counts as its wall time.  A call that raises gives None.
    """
    results, wall, scaled = [], 0.0, 0.0
    for name, call in calls:
        t0 = time.perf_counter()
        with region(name):
            results.append(attempt(call))
        dt = time.perf_counter() - t0
        probes.append(probe())
        wall += dt
        scaled += dt * PROBE_REF_S / statistics.mean(probes[-2:]) if dt < PROBE_SPAN_S else dt
    return results, wall, scaled


def blas_threads() -> int:
    """OpenBLAS thread count of the loaded numpy, or 0 when it cannot be read."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return 0


# workload -> (input generator in inputs.py, job, confirmations, check)
WORKLOADS = {
    "certify": ("certify_batch", certify_job, certify_confirmations, certify_check),
    "optimize": ("optimize_start", optimize_job, optimize_confirmations, optimize_check),
    "oracle": ("oracle_scheme", oracle_job, oracle_confirmations, oracle_check),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repeat", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import zetagaps  # noqa: F401  (the package import users pay for)

    t_cli = time.perf_counter()
    import zetagaps.cli  # noqa: F401

    cli_import_s = time.perf_counter() - t_cli
    import inputs

    make_inputs, job, confirmations, check = WORKLOADS[args.workload]
    data = getattr(inputs, make_inputs)(args.seed, args.repeat)
    setup_s = time.monotonic() - args.spawned_at

    b = Bench()
    if args.trace:
        from spans import Tracer

        tracer, seen = Tracer(), set()
        targets = trace_targets(b, seen)

        @contextmanager
        def region(name):
            # patched only inside the timed sections: probes and checks stay untraced
            with tracer.installed(targets), tracer.region(name):
                yield

    else:

        def region(name):
            return nullcontext()

    probes = [probe()]
    results, job_wall, job_s = timed_calls(job(b, data), region, probes)

    def confirm(scheme, c):
        return b.confirm(scheme, c) if c is not None else None

    points = confirmations(data, results)
    numeric, cross_wall, cross_s = timed_calls(
        [("bench.crosscheck", partial(confirm, scheme, c)) for _, scheme, c in points],
        region,
        probes,
    )

    ops = Ops()
    try:
        for (label, scheme, c), hq in zip(points, numeric):
            b.check_quadrature(ops, f"{label} at c={c}", scheme, c, hq)
        c_star = check(b, data, results, ops)
    except Exception:  # a check that cannot run counts as one failed operation
        traceback.print_exc(file=sys.stderr)
        ops.check("checks ran", False)
        c_star = math.nan
    result = {
        "setup_s": setup_s,
        "job_s": job_s,
        "crosscheck_s": cross_s,
        "c_star": c_star,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "wall": {"job_s": job_wall, "crosscheck_s": cross_wall},
        "probe_s": probes,
        "cli_import_s": cli_import_s,
        "blas_threads": blas_threads(),
    }
    if args.trace:
        out_dir = ROOT / ".perfbench" / "spans"
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(out_dir / f"{args.workload}-seed{args.seed}-rep{args.repeat}.json")
        result["layers"] = layer_metrics(tracer, len(seen))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
