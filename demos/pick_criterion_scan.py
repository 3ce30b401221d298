"""The Pick criterion in action: h = Im(f'/f) over the upper half-plane.

A law is a generalized gamma convolution iff its Laplace transform is
zero-free off the negative axis with h >= 0 on the upper half-plane.
Since h is harmonic, vanishes on (0, inf) and decays at infinity,
nonnegativity follows from the boundary values on the negative axis,
where one closed form, valid for every pole-free (alpha, t), makes the
sign manifest: it is that of cos(pi alpha)(rho^2 + 1) + 2 rho cos(pi t),
rho = x^t, nonnegative for alpha <= 1/2 and negative off its two roots
for alpha > 1/2.  This script scans h on both sides of alpha = 1/2,
reproduces the two horizontal-line plots, writes them as CSV, and reads
the Stieltjes density -Im f(-x + i0)/pi off the cut kernel.
"""

import numpy as np

from hcmlab import (FamilyParams, figure2_data, ggc_pick_scan, h_negative_axis,
                    stieltjes_probe, write_figure2_csv)
from hcmlab.monotone import ScanGrid

p = FamilyParams.from_eps(0.2, 0.1)
print(f"family: alpha = {p.alpha}, eps = {p.eps:.2f} (t = {p.t})\n")

v = ggc_pick_scan(p)
print(f"half-plane scan: {v.status}")
print(f"  {v.detail}\n")

print("negative-axis closed form (all values must be >= 0):")
for rho in np.geomspace(1e-3, 1e3, 7):
    print(f"  rho = {rho:9.3e}: h = {h_negative_axis(float(rho), p): .6e}")

q = FamilyParams(0.50002, 0.3)
v = ggc_pick_scan(q)
print(f"\njust past alpha = 1/2, at alpha = {q.alpha}, t = {q.t}: {v.status}")
print(f"  {v.detail}")

print("\nwriting the two line scans to CSV (re, h):")
grid = ScanGrid(-15.0, 15.0, 1200, "linear")
for level, path in ((1.0, "pick_line_im1.csv"), (0.1, "pick_line_im0p1.csv")):
    table = figure2_data(p, level, grid)
    write_figure2_csv(path, table)
    print(f"  Im(z) = {level:3}: min h = {table[:, 1].min(): .3e}, "
          f"max h = {table[:, 1].max():.3e}  -> {path}")

print("\ncontrast: at t = 1 - alpha, f is NOT a Stieltjes transform for alpha < 1/2")
print("(the density -Im f(-x + i0)/pi has the sign of cos(pi alpha)(1 - x^t)):")
for alpha in (0.3, 0.5):
    v = stieltjes_probe(alpha)
    tag = "not Stieltjes" if v.failed else "consistent with Stieltjes"
    x, dens = v.witness
    print(f"  alpha = {alpha}: {v.status} ({tag}); min density {dens: .3e} at x = {x:.4g}")
