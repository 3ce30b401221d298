"""Closed-form densities, CDFs and Mellin transforms.

The central object is the density of T = (Z/Z')^alpha for independent
positive alpha-stable Z, Z', which is a drifted Cauchy law conditioned to
be positive:

    g(x) = sin(pi alpha) / (pi alpha (x^2 + 2 cos(pi alpha) x + 1)).

Alongside it: the density of sqrt(gamma_t gamma_s) and the density of
sqrt(Z_{1/3}), the two Bessel-K laws of the product identities.
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import bessel_k

__all__ = [
    "density_T_alpha",
    "cdf_T_alpha",
    "mellin_T_alpha",
    "density_sqrt_gamma_product",
    "density_sqrt_Z_one_third",
]


def _check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def _positive(x, name):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError(f"{name} requires x > 0")
    return x


def density_T_alpha(x, alpha: float):
    """Density sin(pi a) / (pi a (x^2 + 2 cos(pi a) x + 1)) on (0, inf)."""
    _check_alpha(alpha)
    x = _positive(x, "density_T_alpha")
    c = math.cos(math.pi * alpha)
    out = math.sin(math.pi * alpha) / (math.pi * alpha * (x * x + 2.0 * c * x + 1.0))
    return float(out) if out.ndim == 0 else out


def cdf_T_alpha(x, alpha: float):
    """Distribution function of T, the arctan antiderivative of the density.

    F(x) = (arctan((x + cos pi a)/sin pi a) - (pi/2 - pi a)) / (pi a);
    F(0) = 0 and F(inf) = 1.
    """
    _check_alpha(alpha)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("cdf_T_alpha requires x >= 0")
    a = math.pi * alpha
    out = (np.arctan((x + math.cos(a)) / math.sin(a)) - (0.5 * math.pi - a)) / a
    return float(out) if out.ndim == 0 else out


def mellin_T_alpha(s: float, alpha: float) -> float:
    """E[T^s] = Gamma(1-s) Gamma(1+s) / (Gamma(1-as) Gamma(1+as)), |s| < 1.

    Assembled from the stable moment formula E[Z^u] = Gamma(1-u/a)/Gamma(1-u)
    applied to both factors of T = (Z/Z')^a; symmetric in s <-> -s because
    T and 1/T share their law.
    """
    _check_alpha(alpha)
    if abs(s) >= 1.0:
        raise ValueError("mellin_T_alpha diverges for |s| >= 1")
    return math.exp(math.lgamma(1.0 - s) + math.lgamma(1.0 + s)
                    - math.lgamma(1.0 - alpha * s) - math.lgamma(1.0 + alpha * s))


def density_sqrt_gamma_product(x, t: float, s: float):
    """Density of sqrt(gamma_t gamma_s): 4 x^{t+s-1} K_{t-s}(2x) / (Gamma(t)Gamma(s)).

    Taken in logs where x^{t+s-1} or the product is not a normal float, with
    K_nu(2x) = Gamma(nu)/2 x^-nu where K overflows (x^nu < ~1e-308: exact).
    """
    if t <= 0.0 or s <= 0.0:
        raise ValueError("shapes must be positive")
    x = _positive(x, "density_sqrt_gamma_product")
    lognorm = math.lgamma(t) + math.lgamma(s)
    logx = np.log(x)
    k = np.asarray(bessel_k(t - s, 2.0 * x))
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        power = 4.0 * np.exp((t + s - 1.0) * logx - lognorm)
        out = power * k
        redo = ~((np.minimum(power, out) >= np.finfo(float).tiny) & (out < np.inf))
        if redo.any():
            nu = abs(t - s)
            lead = math.log(2.0) + (math.lgamma(nu) if nu else 0.0) + (t + s - 1.0 - nu) * logx
            logd = np.where(np.isinf(k), lead, math.log(4.0) + np.log(k) + (t + s - 1.0) * logx)
            out = np.where(redo, np.exp(logd - lognorm), out)
    return float(out) if out.ndim == 0 else out


def density_sqrt_Z_one_third(x):
    """Density of sqrt(Z_{1/3}): (2 / (3 pi x^2)) K_{1/3}(2 / (3 sqrt(3) x))."""
    x = _positive(x, "density_sqrt_Z_one_third")
    kvals = bessel_k(1.0 / 3.0, 2.0 / (3.0 * math.sqrt(3.0) * x))
    # K is 0 below x ~ 5e-4, and x * x underflows below ~1e-154: divide, not 0 * inf
    out = 2.0 / (3.0 * math.pi) * kvals / x / x
    return float(out) if out.ndim == 0 else out
