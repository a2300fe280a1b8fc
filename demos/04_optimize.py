"""Improve a coefficient scheme and re-certify its threshold.

For fixed (r, P) the denominator and the numerator of h are quadratic forms
in the coefficients of (f1, f1t), so the best f1, f1t for a given (r, P) is
an eigenvector and the smallest threshold they reach is the root of
c - lambda_min(c) = 1.  The optimizer searches only the parameters that root
depends on: r, and the coefficients of P below its top one (fixed to 1, as
P -> sP with f1t -> f1t/s leaves h unchanged) from x**2 up (P -> P + e x is
f1 -> f1 + e (1 - x) f1t, which a cubic f1 absorbs when f1t is linear).  At
degrees (3, 1, 2) that is r alone and P = x**2.  It then certifies the
eigenvector scheme by the same scan and Newton root as any other.  The start is
kept if it certifies lower.
"""

import numpy as np

from zetagaps import CoeffScheme, FracPoly, OptimizeConfig, get_preset, h_value, optimize_scheme

preset = get_preset("table1-row1")
cfg = OptimizeConfig(degrees=(3, 1, 2), max_iters=200)

# start from a mildly perturbed copy, as if the published values were lost
rng = np.random.default_rng(7)


def jitter(p):
    c = p.to_coeffs()
    return FracPoly.from_coeffs(c * (1.0 + rng.uniform(-0.01, 0.01, c.size)))


s = preset.scheme
start = CoeffScheme(s.r, jitter(s.f1), jitter(s.f1t), jitter(s.P))

print(f"start (perturbed {preset.name}):")
print(f"  h at c = {preset.c}: {h_value(start, preset.c).h:.8f}")

report = optimize_scheme(cfg, start)

print("\nafter optimization:")
print(f"  certified threshold c* = {report.c_star:.8f}")
print(f"  margin h(c*) - 1       = {report.margin:+.3e}")
print(f"  simplex iterations     = {len(report.trace) - 1} over r (P = x**2 by the gauges)")
print(f"  best f1  = {report.best_scheme.f1}")
print(f"  best f1t = {report.best_scheme.f1t}")
print(f"  best P   = {report.best_scheme.P}")
print(f"  best r   = {report.best_scheme.r}")

roots = [v for _, v in report.trace]
print(f"\neigen threshold of the best (r, P): start {roots[0]:.10f} -> best {min(roots):.10f}")
print(f"reference threshold for comparison: {preset.c}")
