"""Map of the HCM region: alpha <= 1/2 and t <= 1 - alpha.

Three independent obstructions certify failure outside the region:
poles of the analytic continuation (t too large), local increase at the
origin (alpha above 1/2), and certified negative finite differences of
f(uv) f(u/v) in the hyperbolic variable w = v + 1/v, a product that depends
on u only through u^t and on v only through v^t + v^-t (closed form below).
"""

import numpy as np

from hcmlab import FamilyParams, f_family, hcm_check_family, hcm_product_rewrite

print("HCM verdict map (rows alpha, columns t); P = pass, f = fail\n")
ts = [0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
print("            t=" + "  ".join(f"{t:4.2f}" for t in ts))
for alpha in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7):
    row = []
    for t in ts:
        v = hcm_check_family(FamilyParams(alpha, t))
        row.append("P" if v.passed else "f")
    marker = "   <- boundary t = %.2f" % (1 - alpha) if alpha <= 0.5 else "   (alpha > 1/2)"
    print(f"alpha={alpha:4.2f}   " + "     ".join(row) + marker)

print("\nWitness detail just past the boundary:")
v = hcm_check_family(FamilyParams(0.3, 0.75))
print(f"  (0.30, 0.75): {v.status} - {v.detail}")

print("\nThe hyperbolic-variable rewrite is an exact identity:")
p = FamilyParams(0.2, 0.5)
u, w = np.array([1.3, 0.4]), np.array([2.5, 7.0])
v_root = 0.5 * (w + np.sqrt(w * w - 4.0))
direct = (f_family(u * v_root, p) * f_family(u / v_root, p)).real
rewrite = hcm_product_rewrite(p, u, w)  # one broadcast call for the whole table
for row in zip(u, w, direct, rewrite):
    print("  u={}, w={}: direct {:.15f}, rewrite {:.15f}".format(*row))
