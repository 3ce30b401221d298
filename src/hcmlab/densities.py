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
    "density_sqrt_gamma_product",
    "density_sqrt_Z_one_third",
    "eval_hcm_product_form",
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
    x = _positive(x, "density_gamma")
    lognorm = log_gamma(t).real
    out = np.exp((t - 1.0) * np.log(x) - x - lognorm)
    return float(out) if out.ndim == 0 else out


def density_sqrt_gamma_product(x, t: float, s: float):
    """Density of sqrt(gamma_t gamma_s): 4 x^{t+s-1} K_{t-s}(2x) / (Gamma(t)Gamma(s)).

    Taken in logs where x^{t+s-1} or the product is not a normal float, with
    K_nu(2x) = Gamma(nu)/2 x^-nu where K overflows (x^nu < ~1e-308: exact).
    """
    if t <= 0.0 or s <= 0.0:
        raise ValueError("shapes must be positive")
    x = _positive(x, "density_sqrt_gamma_product")
    lognorm = (log_gamma(t) + log_gamma(s)).real
    logx = np.log(x)
    k = np.asarray(bessel_k(t - s, 2.0 * x))
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        power = 4.0 * np.exp((t + s - 1.0) * logx - lognorm)
        out = power * k
        redo = ~((np.minimum(power, out) >= np.finfo(float).tiny) & (out < np.inf))
        if redo.any():
            nu = abs(t - s)
            lead = math.log(2.0) + (log_gamma(nu).real if nu else 0.0) + (t + s - 1.0 - nu) * logx
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
    x = _positive(x, "eval_hcm_product_form")
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
        if 2.0 * t <= 1.0 or alpha >= 1.0:
            raise ValueError("f_family mass is infinite for t <= 1/2 or alpha = 1")
        # (pi/t) sin(pi a w)/(sin(pi w) sin(pi a)), w = 1 - 1/t, as sincs: no branch at t = 1, a = 0
        w = (t - 1.0) / t
        return float(np.sinc(alpha * w) / (t * np.sinc(alpha) * np.sinc(w)))

    def mass(self, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
        """Total integral over (0, inf), computed by adaptive quadrature."""
        return quad_checked(self.pdf, 0.0, np.inf, spec)[0]
