"""Locate the certification threshold c* where h(c) crosses 1.

h(c) - 1 is increasing through a single sign change on the working window,
so a coarse grid scan brackets the crossing and a bracketed Newton iteration
finds the root of h(c) = 1 inside it.  The returned c sits just above the
root, where h - 1 exceeds the rounding budget of h, so it is a certified
bound.  On the strongest built-in scheme this lands just below 0.515396.
"""

from zetagaps import bracket_scan, get_preset, h_grid, h_value, threshold_c
from zetagaps.optimizer import grid_points

preset = get_preset("table1-row3")
scheme = preset.scheme

print("grid scan of h(c) on [0.512, 0.520]:")
grid = grid_points(0.512, 0.520, 0.001)
hs = h_grid(scheme, grid)  # the whole grid in one call
for i, (c, h) in enumerate(zip(grid, hs)):
    marker = " <-- first h > 1" if h > 1 and i and hs[i - 1] <= 1 else ""
    print(f"  c = {c:.3f}   h = {h:.8f}{marker}")

bracket = bracket_scan(scheme, 0.50, 0.53, 0.001)
print(f"\nsign-change bracket: {bracket}")

c_star = threshold_c(scheme, bracket, tol=1e-7)
hb = h_value(scheme, c_star)
print(f"root of h(c) = 1:    c* = {c_star:.12f}")
print(f"h(c*) - 1 = {hb.h - 1.0:.2e} > rounding budget {hb.budget:.2e}  (certified)")
print(f"\nc* = {c_star:.9f} <= 0.515396 reproduces the headline gap bound.")
