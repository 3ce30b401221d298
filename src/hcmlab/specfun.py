"""Special functions and complex kernel evaluation.

Everything downstream (inversion, monotonicity checks, half-plane scans)
is built on the quantities defined here: the quadratic kernel
``P(z) = z^2 + 2 cos(pi a) z + 1``, the two-parameter family
``f(x) = 1 / P(x^t)``, the complex log-gamma and the modified Bessel
function of the second kind.

All complex powers use the principal branch, arg in (-pi, pi], so the
branch cut of every function in this module sits on the negative real
axis.  Values on the cut itself are only ever approached as limits by
callers (see the half-plane scan module).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FamilyParams",
    "log_gamma",
    "bessel_k",
    "p_alpha",
    "f_family",
    "f_family_prime",
    "pole_locations",
]


@dataclass(frozen=True)
class FamilyParams:
    """Index (alpha, t) of the family f(x) = 1 / (x^2t + 2 cos(pi alpha) x^t + 1).

    The derived quantity ``eps = 1 - alpha - t`` is the distance to the
    analyticity boundary: the continuation of f to the cut plane is
    pole-free iff ``eps >= 0``.
    """

    alpha: float
    t: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.t < 0.0:
            raise ValueError(f"t must be >= 0, got {self.t}")

    @property
    def eps(self) -> float:
        return 1.0 - self.alpha - self.t

    @classmethod
    def from_eps(cls, alpha: float, eps: float) -> "FamilyParams":
        """Parameters with t = 1 - alpha - eps."""
        return cls(alpha, 1.0 - alpha - eps)

    @property
    def cos_pi_alpha(self) -> float:
        return math.cos(math.pi * self.alpha)


# --------------------------------------------------------------------------
# log gamma: Lanczos approximation (g = 7, 9 terms), upward recurrence for
# Re z < 1/2.  The recurrence log G(z) = log G(z+1) - Log z holds exactly for
# the principal (analytically continued) branch on the cut plane, which
# avoids the winding bookkeeping of the reflection formula.
# --------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(z) -> complex:
    """Principal branch of log Gamma(z) on the plane cut along (-inf, 0].

    Relative accuracy is ~1e-14 for |z| <= 50 (tested against an
    independent implementation).  Raises ValueError at the poles
    z = 0, -1, -2, ...  Real z on the negative axis are treated as the
    limit from the upper half-plane.

    Parameters
    ----------
    z : complex or float
        Argument; must not be a nonpositive integer.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise ValueError(f"log_gamma: pole at nonpositive integer {z.real}")
    shift = 0
    w = z
    while w.real < 0.5:
        shift += 1
        w = z + shift
    s = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[i] / (w + (i - 1))
    base = w + (_LANCZOS_G - 0.5)
    out = _HALF_LOG_2PI + (w - 0.5) * cmath.log(base) - base + cmath.log(s)
    for k in range(shift):
        out -= cmath.log(z + k)
    return out


# --------------------------------------------------------------------------
# Modified Bessel function of the second kind via its integral representation
#       K_nu(x) = int_0^inf cosh(nu y) exp(-x cosh y) dy.
# The integrand is even in y and decays doubly exponentially, so the
# trapezoidal rule on a uniform grid converges geometrically in 1/h; the
# step is halved until two consecutive levels agree.
# --------------------------------------------------------------------------

def _log_cosh(u):
    u = np.abs(u)
    return u + np.log1p(np.exp(-2.0 * u)) - math.log(2.0)


def bessel_k(nu: float, x: float, rtol: float = 1e-13) -> float:
    """K_nu(x) for real order nu and x > 0.

    Computed by direct quadrature of the cosh integral representation,
    truncated once the integrand falls below ~1e-18 of the running scale.
    Relative accuracy ~1e-13 for x in [1e-3, 50], |nu| <= 5; the
    representation itself is valid for every real nu and is even in nu.
    """
    if x <= 0.0:
        raise ValueError(f"bessel_k requires x > 0, got {x}")
    # beyond ymax the integrand is below e^-60 of its scale
    ymax = math.acosh(max(2.0, (60.0 + 5.0 * abs(nu)) / x)) + 2.0
    h = 0.5
    prev = None
    s = 0.0
    for _ in range(12):
        y = np.arange(0.0, ymax + h, h)
        vals = np.exp(_log_cosh(nu * y) - x * np.cosh(y))
        s = h * (np.sum(vals) - 0.5 * vals[0])
        if prev is not None and abs(s - prev) <= rtol * abs(s):
            break
        prev = s
        h *= 0.5
    return float(s)


# --------------------------------------------------------------------------
# The quadratic kernel and the function family
# --------------------------------------------------------------------------

def p_alpha(z, alpha: float):
    """P(z) = z^2 + 2 cos(pi alpha) z + 1, with zeros e^{+-i(1-alpha)pi}."""
    z = np.asarray(z)
    return z * z + 2.0 * math.cos(math.pi * alpha) * z + 1.0


def f_family(z, p: FamilyParams):
    """f(z) = 1 / P(z^t) with principal-branch powers.

    Scalar complex in, scalar complex out; arrays broadcast.  Real on
    (0, inf) and conjugate-symmetric off the cut.  Raises
    ZeroDivisionError at a pole of the continuation (only possible when
    t > 1 - alpha).
    """
    z = np.asarray(z, dtype=complex)
    zt = z ** p.t
    q = p_alpha(zt, p.alpha)
    # a denominator at roundoff distance from 0 means z is numerically a pole
    if np.any(np.abs(q) < 1e-13 * (1.0 + np.abs(zt)) ** 2):
        raise ZeroDivisionError("f_family: pole of the analytic continuation")
    out = 1.0 / q
    if out.ndim == 0:
        return complex(out)
    return out


def f_family_prime(z, p: FamilyParams):
    """Derivative f'(z) = -2t z^{t-1} (z^t + cos pi alpha) / P(z^t)^2, for z != 0.

    z^{t-1} is formed as z^t / z, so each point costs one complex power.
    """
    z = np.asarray(z, dtype=complex)
    c = p.cos_pi_alpha
    zt = z ** p.t
    q = p_alpha(zt, p.alpha)
    out = -2.0 * p.t * (zt / z) * (zt + c) / (q * q)
    if out.ndim == 0:
        return complex(out)
    return out


def pole_locations(p: FamilyParams) -> list:
    """Poles of the continuation of f on the cut plane.

    Empty iff t <= 1 - alpha; otherwise the conjugate pair
    e^{+-i(1-alpha)pi/t}, which has argument strictly inside (-pi, pi).
    """
    if not (0.0 < p.alpha < 1.0) or p.t <= 0.0:
        raise ValueError("pole_locations requires alpha in (0,1) and t > 0")
    if p.t <= 1.0 - p.alpha:
        return []
    theta = (1.0 - p.alpha) * math.pi / p.t
    return [cmath.exp(1j * theta), cmath.exp(-1j * theta)]
