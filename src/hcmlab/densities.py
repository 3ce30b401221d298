"""Closed-form densities, CDFs and Mellin transforms.

The central object is the density of T = (Z/Z')^alpha for independent
positive alpha-stable Z, Z', which is a drifted Cauchy law conditioned to
be positive:

    g(x) = sin(pi alpha) / (pi alpha (x^2 + 2 cos(pi alpha) x + 1)).

Alongside it: the gamma family, the density of sqrt(gamma_t gamma_s),
the density of sqrt(Z_{1/3}) and the generic product form
c x^a prod (1 + c_i x)^{-b_i} whose pointwise limits exhaust the HCM class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quadrature import DEFAULT_QUAD, QuadratureSpec, quad_checked
from .specfun import FamilyParams, bessel_k, f_family, log_gamma

__all__ = [
    "HcmProductForm",
    "DensitySpec",
    "density_T_alpha",
    "cdf_T_alpha",
    "mellin_T_alpha",
    "mellin_gamma_mixture_ratio",
    "density_gamma",
    "cdf_gamma",
    "density_sqrt_gamma_product",
    "density_sqrt_Z_one_third",
    "eval_hcm_product_form",
]


def _check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def density_T_alpha(x, alpha: float):
    """Density sin(pi a) / (pi a (x^2 + 2 cos(pi a) x + 1)) on (0, inf)."""
    _check_alpha(alpha)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("density_T_alpha requires x > 0")
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
    val = (log_gamma(1.0 - s) + log_gamma(1.0 + s)
           - log_gamma(1.0 - alpha * s) - log_gamma(1.0 + alpha * s))
    return float(np.exp(val).real)


def mellin_gamma_mixture_ratio(s: float, alpha: float, t: float) -> float:
    """The candidate Mellin transform tied to the gamma-mixture question.

    Equals E[T^{s/t}] * Gamma(t) / Gamma(t+s), i.e. the Mellin ratio whose
    positive-definiteness is equivalent to f_{alpha,t} being completely
    monotone.  This function only evaluates the ratio; whether it is the
    Mellin transform of a probability distribution is the open question
    the critical-index estimator explores.
    """
    _check_alpha(alpha)
    if t <= 0.0:
        raise ValueError("t must be positive")
    if abs(s) >= t:
        raise ValueError("requires |s| < t")
    val = (log_gamma(1.0 - s / t) + log_gamma(1.0 + s / t) + log_gamma(t)
           - log_gamma(1.0 - alpha * s / t) - log_gamma(1.0 + alpha * s / t)
           - log_gamma(t + s))
    return float(np.exp(val).real)


def density_gamma(x, t: float):
    """Gamma density x^{t-1} e^{-x} / Gamma(t)."""
    if t <= 0.0:
        raise ValueError("shape must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("density_gamma requires x > 0")
    lognorm = log_gamma(t).real
    out = np.exp((t - 1.0) * np.log(x) - x - lognorm)
    return float(out) if out.ndim == 0 else out


def cdf_gamma(x, t: float):
    """Regularized lower incomplete gamma, P(gamma_t <= x)."""
    from scipy.special import gammainc

    if t <= 0.0:
        raise ValueError("shape must be positive")
    x = np.asarray(x, dtype=float)
    out = gammainc(t, np.maximum(x, 0.0))
    return float(out) if out.ndim == 0 else out


def density_sqrt_gamma_product(x, t: float, s: float):
    """Density of sqrt(gamma_t gamma_s): 4 x^{t+s-1} K_{t-s}(2x) / (Gamma(t)Gamma(s))."""
    if t <= 0.0 or s <= 0.0:
        raise ValueError("shapes must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("density_sqrt_gamma_product requires x > 0")
    lognorm = (log_gamma(t) + log_gamma(s)).real
    out = 4.0 * np.exp((t + s - 1.0) * np.log(x) - lognorm) * bessel_k(t - s, 2.0 * x)
    return float(out) if out.ndim == 0 else out


def density_sqrt_Z_one_third(x):
    """Density of sqrt(Z_{1/3}): (2 / (3 pi x^2)) K_{1/3}(2 / (3 sqrt(3) x))."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("density_sqrt_Z_one_third requires x > 0")
    kvals = bessel_k(1.0 / 3.0, 2.0 / (3.0 * math.sqrt(3.0) * x))
    out = 2.0 / (3.0 * math.pi * x * x) * kvals
    return float(out) if out.ndim == 0 else out


# --------------------------------------------------------------------------
# Product form of Eq-type HCM representatives
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HcmProductForm:
    """c x^a prod_i (1 + c_i x)^{-b_i} with c > 0 and all c_i, b_i > 0."""

    c: float
    a: float
    factors: tuple = ()

    def __post_init__(self):
        if self.c <= 0.0:
            raise ValueError("prefactor c must be positive")
        object.__setattr__(self, "factors", tuple((float(ci), float(bi)) for ci, bi in self.factors))
        for ci, bi in self.factors:
            if ci <= 0.0 or bi <= 0.0:
                raise ValueError("every (c_i, b_i) must be positive")


def eval_hcm_product_form(form: HcmProductForm, x):
    """Evaluate the product form at x > 0; strictly positive there."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("eval_hcm_product_form requires x > 0")
    logv = math.log(form.c) + form.a * np.log(x)
    for ci, bi in form.factors:
        logv = logv - bi * np.log1p(ci * x)
    out = np.exp(logv)
    return float(out) if out.ndim == 0 else out


# --------------------------------------------------------------------------
# Density catalogue with a checked normalization
# --------------------------------------------------------------------------

_KINDS = ("T_alpha", "gamma", "sqrt_gamma_product", "sqrt_Z_one_third", "f_family_normalized")


@dataclass(frozen=True)
class DensitySpec:
    """A named density on (0, inf) with parameters, evaluated lazily.

    Kinds: T_alpha(alpha), gamma(t), sqrt_gamma_product(t, s),
    sqrt_Z_one_third(), f_family_normalized(alpha, t).  Normalization is
    a property to be checked by quadrature (see ``mass``), never assumed.
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown density kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))

    def pdf(self, x):
        if self.kind == "T_alpha":
            return density_T_alpha(x, *self.params)
        if self.kind == "gamma":
            return density_gamma(x, *self.params)
        if self.kind == "sqrt_gamma_product":
            return density_sqrt_gamma_product(x, *self.params)
        if self.kind == "sqrt_Z_one_third":
            return density_sqrt_Z_one_third(x)
        alpha, t = self.params
        z = self._f_norm
        p = FamilyParams(alpha, t)
        x = np.asarray(x, dtype=float)
        out = np.asarray(f_family(x.astype(complex), p)).real / z
        return float(out) if out.ndim == 0 else out

    @cached_property
    def _f_norm(self) -> float:
        alpha, t = self.params
        if 2.0 * t <= 1.0:
            raise ValueError("f_family mass is infinite for t <= 1/2")
        p = FamilyParams(alpha, t)
        g = lambda x: np.real(f_family(complex(x), p))
        v1, _ = quad_checked(g, 0.0, 1.0)
        v2, _ = quad_checked(lambda u: g(math.exp(u)) * math.exp(u), 0.0, 60.0 / (2 * t - 1))
        return v1 + v2

    def mass(self, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
        """Total integral over (0, inf), computed by adaptive quadrature."""
        pdf = self.pdf
        v1, _ = quad_checked(lambda x: pdf(x), 0.0, 1.0, spec)
        # map the tail to a finite interval through x = e^u
        v2, _ = quad_checked(lambda u: pdf(math.exp(u)) * math.exp(u), 0.0, 80.0, spec)
        return v1 + v2
