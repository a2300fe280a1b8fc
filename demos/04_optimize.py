"""Improve a coefficient scheme and re-certify its threshold.

Starting from the degrees-(3,1,2) reference scheme, the optimizer
alternates a derivative-free simplex maximization of h at a probe c just
below the current threshold with a re-bisection of the threshold itself.
The probe offset halves whenever a round fails to push h above 1, so the
search settles once no further improvement is found at the bisection
resolution.
"""

import numpy as np

from zetagaps import OptimizeConfig, get_preset, h_value, optimize_scheme
from zetagaps.optimizer import _pack_scheme, _unpack_scheme

preset = get_preset("table1-row1")
cfg = OptimizeConfig(degrees=(3, 1, 2), max_iters=200)

# start from a mildly perturbed copy, as if the published values were lost
rng = np.random.default_rng(7)
vec = _pack_scheme(preset.scheme, cfg.degrees)
vec[:-1] *= 1.0 + rng.uniform(-0.01, 0.01, size=vec.size - 1)
start = _unpack_scheme(vec, cfg.degrees)

print(f"start (perturbed {preset.name}):")
print(f"  h at c = {preset.c}: {h_value(start, preset.c).h:.8f}")

report = optimize_scheme(cfg, start)

print("\nafter optimization:")
print(f"  certified threshold c* = {report.c_star:.8f}")
print(f"  margin h(c*) - 1       = {report.margin:+.3e}")
print(f"  simplex iterations     = {len(report.trace)}")
print(f"  best f1  = {report.best_scheme.f1}")
print(f"  best f1t = {report.best_scheme.f1t}")
print(f"  best P   = {report.best_scheme.P}")
print(f"  best r   = {report.best_scheme.r}")

objs = [v for _, v in report.trace]
print(f"\nobjective (−h at probe) start {objs[0]:.8f} -> best {min(objs):.8f}")
print(f"reference threshold for comparison: {preset.c}")
