"""Samplers and statistical verification of the distributional identities.

Samplers cover the positive stable law Z (normalized so that
E e^{-lam Z} = e^{-lam^alpha}), the gamma family, and T = (Z/Z')^alpha.
The stable sampler is the exact sine-ratio construction: with
theta ~ U(0, pi), E ~ Exp(1) and

    a(theta) = sin(alpha theta)^(alpha/(1-alpha)) sin((1-alpha) theta)
               / sin(theta)^(1/(1-alpha)),

Z = (a(theta)/E)^((1-alpha)/alpha) has the right law; it is validated
against the defining Laplace transform rather than trusted.

Reproducibility: every sampler derives its stream from (seed, fixed
stream index) through numpy's SeedSequence/PCG64, so the same sampler
call with the same seed and n regenerates a SampleSet bit-exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .densities import cdf_T_alpha, density_sqrt_gamma_product
from .monotone import Verdict, cm_check_by_differences, FAIL, INCONCLUSIVE, PASS
from .quadrature import ConvergenceError, tanh_sinh
from .specfun import bessel_k, p_alpha

__all__ = [
    "SampleSet",
    "KsReport",
    "ks_statistic",
    "ks_statistic_two_sample",
    "ks_threshold",
    "sample_gamma",
    "sample_positive_stable",
    "sample_T_alpha",
    "verify_T_density",
    "verify_stable_laplace",
    "verify_half_stable_gamma_identity",
    "verify_factorization_zinv",
    "verify_sqrt_gamma_product_density",
    "verify_bessel_product_formula",
    "verify_kanter_cm",
]

# fixed stream indices, one per sampler
_STREAM_GAMMA = 1
_STREAM_STABLE = 2
_STREAM_T = 3


@dataclass(frozen=True)
class SampleSet:
    """Positive, finite samples."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
            raise ValueError("sample values must be positive and finite")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


def sample_gamma(t: float, n: int, seed: int) -> SampleSet:
    """n i.i.d. gamma variables with shape t (rejection sampler, any shape)."""
    if t <= 0.0 or n < 1:
        raise ValueError("need t > 0 and n >= 1")
    g = _rng(seed, _STREAM_GAMMA)
    vals = g.standard_gamma(t, size=n)
    vals[vals <= 0.0] = np.finfo(float).tiny  # shape < 1 can underflow to 0
    return SampleSet(vals)


def _log_sin_term(theta: np.ndarray, a: float) -> np.ndarray:
    """log(sin(a theta)) * a, in one fresh array."""
    s = np.multiply(theta, a)
    np.sin(s, out=s)
    np.log(s, out=s)
    s *= a
    return s


def _log_a_kanter(theta: np.ndarray, alpha: float) -> np.ndarray:
    """log a(theta), in place on two n-length buffers; theta is left as it was."""
    s = _log_sin_term(theta, alpha)
    s += _log_sin_term(theta, 1.0 - alpha)
    t = np.sin(theta)
    np.log(t, out=t)
    s -= t
    s /= 1.0 - alpha
    return s


def _stable_from(g: np.random.Generator, alpha: float, n: int) -> np.ndarray:
    """n stable draws; every step after the draws works in place."""
    theta = g.random(n)
    np.subtract(1.0, theta, out=theta)
    theta *= math.pi  # in (0, pi]
    theta[theta == math.pi] = math.pi * (1.0 - 2.0 ** -53)
    E = g.standard_exponential(n)
    E[E == 0.0] = np.finfo(float).tiny
    log_z = _log_a_kanter(theta, alpha)
    np.log(E, out=E)
    log_z -= E
    log_z *= (1.0 - alpha) / alpha
    return np.exp(log_z, out=log_z)


def sample_positive_stable(alpha: float, n: int, seed: int) -> SampleSet:
    """n i.i.d. positive alpha-stable variables with E e^{-lam Z} = e^{-lam^alpha}."""
    if not 0.0 < alpha < 1.0 or n < 1:
        raise ValueError("need alpha in (0,1) and n >= 1")
    g = _rng(seed, _STREAM_STABLE)
    vals = _stable_from(g, alpha, n)
    return SampleSet(vals)


def sample_T_alpha(alpha: float, n: int, seed: int) -> SampleSet:
    """n i.i.d. copies of T = (Z/Z')^alpha from two independent stable draws."""
    if not 0.0 < alpha < 1.0 or n < 1:
        raise ValueError("need alpha in (0,1) and n >= 1")
    g = _rng(seed, _STREAM_T)
    vals = _stable_from(g, alpha, n)  # log Z first, then the second draw
    np.log(vals, out=vals)
    z2 = _stable_from(g, alpha, n)
    vals -= np.log(z2, out=z2)
    vals *= alpha
    np.exp(vals, out=vals)
    return SampleSet(vals)


# --------------------------------------------------------------------------
# Kolmogorov-Smirnov machinery
# --------------------------------------------------------------------------

def ks_statistic(values: np.ndarray, cdf) -> float:
    """One-sample KS distance between the empirical CDF and ``cdf``."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def ks_statistic_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS distance max_v |F_a(v) - F_b(v)| over the pooled values v.

    One merge: each sample is sorted in place inside one concatenation, and a
    stable argsort merges the two sorted runs.  The empirical CDFs are the
    running counts c_a / n and c_b / m of the merged order, read only at the
    last element of each run of tied values, where they count every value
    <= v.  So the result is the same float as searchsorted over the pooled
    grid, at about a third of the time and two thirds of the memory.
    """
    n, m = len(a), len(b)
    z = np.concatenate([np.asarray(a, dtype=float), np.asarray(b, dtype=float)])
    z[:n].sort()
    z[n:].sort()
    order = np.argsort(z, kind="stable")  # a merge of the two sorted runs
    from_a = order < n
    z = z[order]
    del order
    last = np.flatnonzero(z[1:] != z[:-1])  # each run's last element, but the final run's
    del z
    c_a = np.cumsum(from_a, dtype=np.int32 if n + m < 2 ** 31 else np.int64)[last]
    c_b = np.add(last, 1, out=last)
    c_b -= c_a
    gap = c_a / n
    del c_a
    gap -= c_b / m
    # the final run, where F_a = F_b = 1, adds the 0.0
    return float(np.abs(gap, out=gap).max(initial=0.0))


_KS_COEFF = 1.63  # the asymptotic Kolmogorov quantile at the 1% level


def ks_threshold(n: int, m: int | None = None) -> float:
    """Asymptotic KS acceptance threshold at the 1% level; two-sample when m is given."""
    if m is None:
        return _KS_COEFF / math.sqrt(n)
    return _KS_COEFF * math.sqrt((n + m) / (n * m))


@dataclass(frozen=True)
class KsReport:
    """A KS comparison outcome; passed iff statistic < threshold."""

    statistic: float
    n: int
    threshold: float
    passed: bool
    label: str = ""

    def __post_init__(self):
        if not 0.0 <= self.statistic <= 1.0:
            raise ValueError("KS statistic must lie in [0, 1]")
        if self.passed != (self.statistic < self.threshold):
            raise ValueError("passed flag inconsistent with statistic/threshold")


def _report(stat: float, n: int, thr: float, label: str) -> KsReport:
    return KsReport(statistic=stat, n=n, threshold=thr, passed=stat < thr, label=label)


# --------------------------------------------------------------------------
# Identity verifiers
# --------------------------------------------------------------------------

def verify_T_density(alpha: float, sample_n: int = 100_000, seed: int = 42) -> KsReport:
    """KS of T-samples against the closed-form drifted-Cauchy CDF, 1% level."""
    s = sample_T_alpha(alpha, sample_n, seed)
    stat = ks_statistic(s.values, lambda x: cdf_T_alpha(x, alpha))
    return _report(stat, sample_n, ks_threshold(sample_n),
                   f"T density, alpha={alpha}")


def verify_stable_laplace(alpha: float, sample_n: int = 100_000, seed: int = 42) -> Verdict:
    """Empirical Laplace transform of Z against exp(-lam^alpha) at lam = 1/4, 1
    and 4; PASS iff every deviation is within 4 standard errors.  ValueError
    unless sample_n >= 2, the least that gives a standard error."""
    if not sample_n >= 2:
        raise ValueError(f"sample_n must be >= 2 for a standard error, got {sample_n}")
    s = sample_positive_stable(alpha, sample_n, seed)
    worst = None
    for lam in (0.25, 1.0, 4.0):
        w = np.exp(-lam * s.values)
        est = float(w.mean())
        se = float(w.std(ddof=1) / math.sqrt(sample_n))
        ref = math.exp(-lam ** alpha)
        dev = abs(est - ref) / se
        if worst is None or dev > worst[1]:
            worst = (lam, dev, est, ref)
    lam, dev, est, ref = worst
    detail = (f"worst deviation {dev:.2f} standard errors at lam={lam} "
              f"(est {est:.6f}, exact {ref:.6f}), n={sample_n}")
    return Verdict(PASS if dev <= 4.0 else FAIL, 4.0, witness=(lam, dev), detail=detail)


def verify_half_stable_gamma_identity(sample_n: int = 100_000, seed: int = 42) -> KsReport:
    """Two-sample KS for Z_{1/2} = 1/(4 gamma_{1/2}) in distribution, 1% level:
    ``verify_factorization_zinv(2, sample_n, seed)`` under its own label."""
    return replace(verify_factorization_zinv(2, sample_n, seed),
                   label="Z_(1/2) against 1/(4 gamma_(1/2))")


def verify_factorization_zinv(n_gamma: int, sample_n: int = 100_000, seed: int = 42) -> KsReport:
    """Two-sample KS for 1/Z_{1/n} = n^n gamma_{1/n} x ... x gamma_{(n-1)/n}, 1% level."""
    if n_gamma not in (2, 3, 4):
        raise ValueError("n_gamma must be 2, 3 or 4")
    z = sample_positive_stable(1.0 / n_gamma, sample_n, seed).values
    prod = np.full(sample_n, float(n_gamma) ** n_gamma)
    for k in range(1, n_gamma):
        prod *= sample_gamma(k / n_gamma, sample_n, seed + k).values
    stat = ks_statistic_two_sample(np.divide(1.0, z, out=z), prod)
    return _report(stat, sample_n, ks_threshold(sample_n, m=sample_n),
                   f"1/Z_(1/{n_gamma}) against {n_gamma}^{n_gamma} gamma product")


def sqrt_gamma_product_cdf_table(t: float, s: float):
    """Tabulated CDF of sqrt(gamma_t gamma_s) by cumulative quadrature.

    Integrates on 6001 nodes in the variable xi = x^(1/5), up to x = 8 +
    1.5 (t + s); xi absorbs the x^(2 min(t,s)-1) endpoint singularity for
    every min(t,s) > 1/10.  Returns (x_grid, cdf).
    """
    xi, d = np.linspace(0.0, (8.0 + 1.5 * (t + s)) ** 0.2, 6001, retstep=True)
    x = xi ** 5
    dens = np.zeros_like(x)
    dens[1:] = density_sqrt_gamma_product(x[1:], t, s) * 5.0 * xi[1:] ** 4
    return x, _cumulative_simpson(dens, d)


def _cumulative_simpson(f: np.ndarray, d: float) -> np.ndarray:
    """Running integral of samples f (at least 3) on a grid of step d, from 0.

    Each interval is integrated by the parabola through it and one neighbour,
    the next one on even intervals and the previous one on odd intervals and
    on the last: the equal-step form of ``scipy.integrate.cumulative_simpson``.
    """
    ahead = (5.0 * f[:-2] + 8.0 * f[1:-1] - f[2:]) * (d / 12.0)    # [x_i, x_i+1]
    behind = (-f[:-2] + 8.0 * f[1:-1] + 5.0 * f[2:]) * (d / 12.0)  # [x_i+1, x_i+2]
    parts = np.empty(f.size)
    parts[0] = 0.0
    parts[1:-1:2] = ahead[::2]
    parts[2::2] = behind[::2]
    parts[-1] = behind[-1]
    return np.cumsum(parts)


def verify_sqrt_gamma_product_density(t: float, s: float, sample_n: int = 100_000,
                                      seed: int = 42) -> KsReport:
    """KS of sqrt(gamma_t gamma_s) samples against the Bessel-density CDF, 1% level."""
    vals = sample_gamma(t, sample_n, seed).values
    vals *= sample_gamma(s, sample_n, seed + 1).values
    np.sqrt(vals, out=vals)
    xg, cg = sqrt_gamma_product_cdf_table(t, s)
    if not abs(cg[-1] - 1.0) <= 1e-5:  # a NaN mass fails too
        raise RuntimeError(f"CDF table mass {cg[-1]} not within 1e-5 of 1")
    stat = ks_statistic(vals, lambda x: np.interp(x, xg, cg, left=0.0, right=1.0))
    return _report(stat, sample_n, ks_threshold(sample_n),
                   f"sqrt(gamma_{t} gamma_{s}) density")


def verify_bessel_product_formula(alpha: float, x: float, y: float,
                                  rel_tol: float = 1e-8) -> Verdict:
    """Check K_a(x) K_a(y) = 2 cos(pi a) int_0^inf K_2a(2 sqrt(xy) sinh t) e^{-(x+y) cosh t} dt.

    The integral is taken by tanh-sinh to 5e-14, with e^{-(x+y)} pulled out
    so that the rule's absolute floor cannot end it early.  x and y must be
    positive and finite.  INCONCLUSIVE when K_a(x) K_a(y) underflows to zero
    or a subnormal, when 2 sqrt(xy) sinh t underflows at the smallest nodes,
    or when tanh-sinh fails, as near |a| = 1/2 where t^{-2|a|} leaves >5e-14 out.
    """
    if not -0.5 < alpha < 0.5:
        raise ValueError("alpha must lie in (-1/2, 1/2)")
    if not (0.0 < x < math.inf and 0.0 < y < math.inf):
        raise ValueError(f"x, y must be positive and finite, got {x}, {y}")
    kx, ky = bessel_k(alpha, np.array([x, y]))
    lhs = float(kx * ky)
    if lhs < sys.float_info.min:  # zero or subnormal: no relative error to compare
        return Verdict(INCONCLUSIVE, rel_tol, detail=f"lhs K_a(x) K_a(y) = {lhs:.3e} "
                       "underflows double precision, so the relative difference is undefined")
    srt = 2.0 * math.sqrt(x * y)

    def integrand(ts):
        arg = srt * np.sinh(ts)
        if arg.min() < 1e-300:  # bessel_k takes normal x only
            raise FloatingPointError(f"K_2a argument 2 sqrt(xy) sinh t = {arg.min():.3e} "
                                     "underflows at the smallest tanh-sinh nodes")
        return bessel_k(2.0 * alpha, arg) * np.exp(-(x + y) * (np.cosh(ts) - 1.0))

    upper = math.acosh(65.0 / (x + y) + 1.0) + 1.0
    try:
        scaled = tanh_sinh(integrand, 0.0, upper, tol=5e-14)
    except (FloatingPointError, ConvergenceError) as exc:
        return Verdict(INCONCLUSIVE, rel_tol, detail=str(exc))
    rhs = 2.0 * math.cos(math.pi * alpha) * scaled * math.exp(-(x + y))
    rel = abs(lhs - rhs) / abs(lhs)
    detail = f"lhs {lhs:.12e}, rhs {rhs:.12e}, rel diff {rel:.2e}"
    return Verdict(PASS if rel <= rel_tol else FAIL, rel_tol, witness=((x, y), rel), detail=detail)


def verify_kanter_cm(alpha: float) -> Verdict:
    """CM battery on x^(-alpha) / (x^(2(1-a)) + 2 cos(pi a) x^(1-a) + 1).

    The Kanter factorization makes this function CM for every alpha in
    (0, 1); the check is a difference battery, no inversion involved.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    f = lambda x: x ** (-alpha) / p_alpha(x ** (1.0 - alpha), alpha)
    return cm_check_by_differences(f)
