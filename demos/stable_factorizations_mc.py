"""Monte Carlo verification of the stable-law identities.

Exact samplers (sine-ratio stable construction, gamma rejection) feed
Kolmogorov-Smirnov comparisons of every closed-form identity: the
drifted-Cauchy density of T, the reciprocal-stable gamma-product
factorization, and the Bessel-type density of sqrt(gamma_t gamma_s).
"""

from hcmlab import (sample_positive_stable, verify_T_density,
                    verify_factorization_zinv, verify_half_stable_gamma_identity,
                    verify_sqrt_gamma_product_density, verify_stable_laplace)

N = 100_000
SEED = 42

print(f"n = {N}, seed = {SEED}, KS level 1%\n")

print("defining property: E exp(-lam Z) = exp(-lam^alpha)")
for alpha in (0.2, 0.5, 0.8):
    v = verify_stable_laplace(alpha, sample_n=N, seed=SEED)
    print(f"  alpha = {alpha}: {v.status}  ({v.detail})")

print("\nT = (Z/Z')^alpha has the drifted half-Cauchy density:")
for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
    r = verify_T_density(alpha, N, seed=SEED)
    print(f"  alpha = {alpha}: KS = {r.statistic:.4f} < {r.threshold:.4f} "
          f"-> {'PASS' if r.passed else 'FAIL'}")

print("\nreciprocal-stable factorizations 1/Z_(1/n) = n^n gamma_(1/n) ... gamma_((n-1)/n):")
r = verify_half_stable_gamma_identity(N, seed=SEED)
print(f"  n = 2 (as Z = 1/(4 gamma)): KS = {r.statistic:.4f} -> {'PASS' if r.passed else 'FAIL'}")
for n_gamma in (2, 3):
    r = verify_factorization_zinv(n_gamma, N, seed=SEED)
    print(f"  n = {n_gamma}: KS = {r.statistic:.4f} < {r.threshold:.4f} "
          f"-> {'PASS' if r.passed else 'FAIL'}")

print("\nsqrt(gamma_t gamma_s) against its Bessel density:")
for (t, s) in ((1.0, 1.0), (1.0 / 3.0, 2.0 / 3.0)):
    r = verify_sqrt_gamma_product_density(t, s, N, seed=SEED)
    print(f"  (t, s) = ({t:.3g}, {s:.3g}): KS = {r.statistic:.4f} "
          f"-> {'PASS' if r.passed else 'FAIL'}")

print("\nsample moments vs the stable Mellin formula (alpha = 0.4, s = 0.1):")
import math
import numpy as np
z = sample_positive_stable(0.4, N, seed=SEED)
w = z.values ** 0.1
ref = math.exp(math.lgamma(1.0 - 0.1 / 0.4) - math.lgamma(1.0 - 0.1))
print(f"  sample {w.mean():.6f} +- {w.std(ddof=1) / np.sqrt(N):.6f}, exact {ref:.6f}")
