"""Special functions and complex kernel evaluation.

Everything downstream (inversion, monotonicity checks, half-plane scans)
is built on the quantities defined here: the quadratic kernel
``P(z) = z^2 + 2 cos(pi a) z + 1``, the two-parameter family
``f(x) = 1 / P(x^t)`` and the modified Bessel function of the second
kind.

All complex powers use the principal branch, arg in (-pi, pi], so the
branch cut of every function in this module sits on the negative real
axis.  Values on the cut itself are only ever approached as limits by
callers (see the half-plane scan module).
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FamilyParams",
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
        if not self.t >= 0.0:
            raise ValueError(f"t must be >= 0, got {self.t}")
        if self.t == 0.0 and 1.0 + math.cos(math.pi * self.alpha) == 0.0:
            raise ValueError(f"at t = 0, f = 1/(2 + 2 cos(pi alpha)) is 1/0 for alpha = {self.alpha}")

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
# Modified Bessel function of the second kind.  Below x = 2, Temme's series
# (N. M. Temme, J. Comput. Phys. 19, 324-337, 1975) for K_mu and K_mu+1,
# |mu| <= 1/2, then upward recurrence in the order; from x = 2, one pass of
# the trapezoidal rule on K_nu(x) = e^-x int_0^inf cosh(nu y) exp(-2x sinh^2(y/2)) dy.
# The integrand is entire, so on the strip |Im y| < d the rule's relative
# error is at most 2M / (e^(2 pi d/h) - 1), M <= K_nu(x cos d) / K_nu(x)
# <= e^(x (1 - cos d)) (cos d)^-max(nu, 1/2) (Trefethen & Weideman, SIAM Rev.
# 56, 385-458, 2014, section 5).  Each point takes the h that makes it 1e-17
# at d = min(1.5, sqrt(2 log(2e17) / x)), near the d that maximises h.
# --------------------------------------------------------------------------

# Points per block of ``bessel_k``: a block's flattened (point, node) arrays
# are the largest temporaries, so the block size bounds the memory of a call
# on a long x array.
BESSEL_BLOCK = 256
_LOG_TOL = math.log(2e17)  # log(2 / the trapezoid's relative error bound)
# Most nodes per trapezoid point (8 MB per block buffer); for x <= 745 only
# orders at which K_nu(x) overflows need more.
_MAX_NODES = 4096
_LOG2 = math.log(2.0)
# Taylor coefficients of 1/Gamma(1 + z) (Abramowitz & Stegun 6.1.34, shifted
# by one), enough for 1e-18 on |z| <= 1/2.
_RGAMMA_TAYLOR = (
    1.0, 0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554433, -0.009621971527876973,
    0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
    0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09,
    5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12, 5.100370287454476e-13,
)
# Terms k = 0 .. 15 of Temme's series (a power of two, for Estrin's scheme):
# the k-th is about (x^2/4)^k / (k!)^2, below 1e-20 of the sum from k = 13 on
# for every x < 2.
_TEMME_TERMS = 16


def bessel_k(nu: float, x):
    """K_nu(x) for real order nu and x > 0, elementwise over an array x.

    Below x = 2, Temme's series: with mu = nu - round(nu), |mu| <= 1/2, its
    first 16 terms in x^2/4 give K_mu and K_mu+1 (one polynomial evaluation
    per point, on coefficients computed once per call), and upward recurrence
    in the order gives K_nu.  From x = 2, one pass of the trapezoidal rule on
    e^-x int_0^inf cosh(nu y) exp(-2x sinh^2(y/2)) dy, truncated where the
    integrand falls below e^-60 of its scale, at the step that the rule's
    error bound on a strip (Trefethen & Weideman 2014, section 5) sets to
    1e-17 relative: 9 to 39 nodes per point for |nu| <= 5.  A scalar x
    returns a float, an array x an array of the same shape; every point is
    computed on its own, so a value does not depend on the rest of the array.

    Relative accuracy, wherever K_nu(x) is a normal float: ~1e-13 for x in
    [1e-300, 2) and |nu| <= 2.5, and 1e-15 for x in [2, 700] and |nu| <= 5
    (tested against mpmath); both methods are valid for every real nu, and
    the result is even in nu.  Where K_nu(x) overflows the result is +inf,
    without a warning; x = +inf gives the limit 0.0.  Raises ValueError for
    a non-finite nu, for an x that is NaN, not positive, or subnormal (below
    2.2e-308), and, from x = 2, for an order that would take a point past
    4096 nodes (for x <= 745 K_nu(x) overflows there; below 2 it gives inf).
    """
    if not math.isfinite(nu):
        raise ValueError(f"bessel_k requires a finite order, got {nu}")
    x = np.asarray(x, dtype=float)
    bad = ~(x >= sys.float_info.min)
    if bad.any():
        raise ValueError(f"bessel_k requires x > 0, not subnormal, got {x[bad].flat[0]}")
    flat = x.ravel()
    out = np.empty(flat.shape)
    nu = abs(nu)
    series = None  # built once some x is below 2
    for i in range(0, flat.size, BESSEL_BLOCK):
        xb, ob = flat[i:i + BESSEL_BLOCK], out[i:i + BESSEL_BLOCK]
        small = xb < 2.0
        if small.any():
            series = series or _temme_coefficients(nu)
            ob[small] = _temme_series(series, xb[small])
        if not small.all():
            ob[~small] = _trapezoid_block(nu, xb[~small])
    out = out.reshape(x.shape)
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=64)  # a quadrature calls one order level after level
def _temme_coefficients(nu: float) -> tuple:
    """Everything of Temme's series that depends on nu >= 0 alone.

    With mu = nu - n, n = round(nu), y = x^2/4 and the series' starting terms
    f0, p0 = Gamma(1+mu) (x/2)^-mu / 2, q0 = Gamma(1-mu) (x/2)^mu / 2,

        K_mu   = f0 F(y) + p0 B(y) + q0 E(y),
        K_mu+1 = (2/x) [p0 B1(y) - f0 F1(y) - q0 E1(y)],

    six polynomials of degree 15 whose coefficients follow from Temme's
    recurrences f_k = (k f_k-1 + p_k-1 + q_k-1) / (k^2 - mu^2),
    p_k = p_k-1 / (k - mu), q_k = q_k-1 / (k + mu) with the (x^2/4)^k / k!
    folded in.  Returns (mu, n, mu pi / sin mu pi, Gamma_1, Gamma_2,
    1/Gamma(1+mu), 1/Gamma(1-mu), rows), the rows of K_mu+1 only when n >= 1.
    """
    n = int(nu + 0.5)
    mu = nu - n
    m2 = mu * mu
    # Gamma_1,2 = (1/Gamma(1-mu) -+ 1/Gamma(1+mu)) / (2 mu, 2), from the
    # Taylor series, so Gamma_1 keeps its digits as mu -> 0
    g1 = g2 = 0.0
    for k in range(len(_RGAMMA_TAYLOR) - 2, -1, -2):
        g1 = g1 * m2 + _RGAMMA_TAYLOR[k + 1]
        g2 = g2 * m2 + _RGAMMA_TAYLOR[k]
    g1 = -g1
    rows = np.empty((6, _TEMME_TERMS))
    f, b, e, p, q = 1.0, 0.0, 0.0, 1.0, 1.0  # per unit f0, p0, q0, over k!
    for k in range(_TEMME_TERMS):
        if k:
            d = k * k - m2
            f, b, e = f / d, (b + p / k) / d, (e + q / k) / d
            p, q = p / (k * (k - mu)), q / (k * (k + mu))
        rows[:, k] = f, b, e, p - k * b, k * f, k * e
    rows = rows[:3] if n == 0 else rows
    rows.flags.writeable = False  # shared by every call of the cache
    fact = 1.0 if mu == 0.0 else math.pi * mu / math.sin(math.pi * mu)
    return mu, n, fact, g1, g2, g2 - mu * g1, g2 + mu * g1, rows


def _temme_series(coef: tuple, x: np.ndarray) -> np.ndarray:
    """K_nu(x) for 0 < x < 2 from ``_temme_coefficients(nu)``."""
    mu, n, fact, g1, g2, rgp, rgm, rows = coef
    with np.errstate(over="ignore"):  # an overflow is K = inf
        d = np.log(2.0 / x)
        e = np.power(0.5 * x, -mu)  # e^sigma, sigma = mu d, to an ulp
        ch = 0.5 * (e + 1.0 / e)
        if abs(mu) < 1e-150:  # sinh(sigma) / mu = d to double precision
            shm = d
        else:  # sinh(sigma) / mu, from e where sigma is large enough not to cancel
            sigma = mu * d
            shm = np.sinh(sigma)
            big = np.abs(sigma) >= 1.0
            shm[big] = 0.5 * (e[big] - 1.0 / e[big])
            shm /= mu
        f0 = fact * (g1 * ch + g2 * shm)
        p0 = 0.5 * e / rgp
        q0 = 0.5 / (e * rgm)
        y = 0.25 * x * x
        acc = rows[:, :, None]
        while acc.shape[1] > 1:  # Estrin's scheme in y, all rows at once
            acc = acc[:, 0::2] + acc[:, 1::2] * y
            y = y * y
        acc = acc[:, 0]
        k0 = f0 * acc[0] + p0 * acc[1] + q0 * acc[2]
        if n == 0:
            return k0
        k1 = 2.0 / x * (p0 * acc[3] - f0 * acc[4] - q0 * acc[5])
        for i in range(1, n):  # K_mu+i+1 = 2 (mu + i) / x K_mu+i + K_mu+i-1
            if np.isinf(k1).all():  # K grows with the order: inf from here on
                break
            k0, k1 = k1, 2.0 * (mu + i) / x * k1 + k0
    return k1


def _trapezoid_block(nu: float, x: np.ndarray) -> np.ndarray:
    """Trapezoid sums for a 1-d block of x >= 2 and nu >= 0, in one pass."""
    xf = np.minimum(x, 1e300)  # e^-x = 0 from x ~ 746: a larger x, inf too, takes 1e300's nodes
    with np.errstate(over="ignore"):  # an overflow is K = inf
        # beyond ymax the integrand is below e^-60 of its scale: the first
        # bound from cosh, the second from sinh(y/2) >= y/2
        ymax = np.minimum(np.arccosh(np.maximum(2.0, (60.0 + 5.0 * nu) / xf)) + 2.0,
                          (nu + np.sqrt(nu * nu + 120.0 * xf)) / xf)
        d = np.minimum(1.5, np.sqrt(2.0 * _LOG_TOL / xf))  # the strip's half-width
        h = 2.0 * math.pi * d / (xf * (1.0 - np.cos(d)) - max(nu, 0.5) * np.log(np.cos(d))
                                 + _LOG_TOL)
        if not np.all(ymax <= _MAX_NODES * h):
            raise ValueError(f"bessel_k: the order {nu} is too large")
        m = np.ceil(ymax / h).astype(np.intp) + 1  # nodes on [0, ymax] and one past it
        # the node y = 0, whose term is e^-x, has weight 1/2
        return h * (_node_sums(nu, xf, np.zeros_like(h), h, m) - 0.5 * np.exp(-x))


def _node_sums(nu, x, y0, dy, n):
    """Per row, the sum of cosh(nu y) exp(-x cosh y) over y = y0 + dy i, i < n.

    As e^(c - x) times the sum of exp(log cosh(nu y) - 2x sinh^2(y/2) - c):
    x cosh y, off by ~x ulp at large x, is never formed, and c = 0 unless a
    term or e^-x would leave the float range.  The index i is an integer
    until it is scaled, so a node does not depend on its row's place."""
    row = np.repeat(np.arange(n.size), n)
    y = (np.arange(row.size) - np.repeat(np.cumsum(n) - n, n)) * dy[row] + y0[row]
    q = nu / x  # the log terms peak below nu asinh(q) - x (sqrt(1 + q^2) - 1)
    c = np.maximum(nu * np.arcsinh(q) - x * (np.sqrt(1.0 + q * q) - 1.0) - 690.0,
                   np.maximum(x - 700.0, 0.0))
    xs = 2.0 * x[row] * np.sinh(0.5 * y) ** 2
    y *= nu  # log cosh u = u + log1p(e^-2u) - log 2 at u = nu y >= 0
    t = np.multiply(y, -2.0)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    y += t
    y -= _LOG2
    y -= xs  # log cosh(nu y) - 2x sinh^2(y/2)
    y -= c[row]
    np.exp(y, out=y)
    return np.bincount(row, y, minlength=n.size) * np.exp(c - x)


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


def f_family_prime(z, p: FamilyParams, log_z=None):
    """Derivative f'(z) = -2t z^{t-1} (z^t + cos pi alpha) / P(z^t)^2, for z != 0.

    z^t is exp(t log z) and z^{t-1} is z^t / z, so each point costs one
    complex log and one complex exp; a caller that already holds the
    principal log z of every point passes it as ``log_z`` (the shape of z)
    and saves the log.  At t = 1/2 and 1, z^t is sqrt(z) and z, the values
    numpy's power gives there.  The arithmetic runs in place on three work
    arrays.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0:
        return complex(f_family_prime(z.reshape(1), p, None if log_z is None else
                                      np.reshape(log_z, 1))[0])
    if p.t in (0.5, 1.0):  # numpy's z ** t takes these as sqrt(z) and z
        zt = np.sqrt(z) if p.t == 0.5 else z.copy()
    else:
        if log_z is None:
            zt = np.log(z)
            zt *= p.t
        else:
            zt = log_z * p.t
        np.exp(zt, out=zt)
    # P(z^t)^2 and -2t (z^t / z) (z^t + c), in the operation order of the plain formula
    q = zt * zt
    out = zt * (2.0 * p.cos_pi_alpha)
    q += out
    q += 1.0
    q *= q
    np.divide(zt, z, out=out)
    out *= -2.0 * p.t
    zt += p.cos_pi_alpha
    out *= zt
    out /= q
    return out


def pole_locations(p: FamilyParams) -> list:
    """Every pole of the continuation of f on the cut plane, for alpha in [0, 1].

    The poles are the z = e^{i m pi/t} with m = 2k +- (1 - alpha) and
    |m| < t, so |arg z| < pi, each listed once.  Empty iff t <= 1 - alpha
    (t = 0 included).  Otherwise the principal pole e^{i(1-alpha)pi/t}
    comes first, with the largest real part and Im >= 0, then its
    conjugate, then the further pairs by increasing |arg z| (from
    t > 1 + alpha on).  At alpha = 1 the principal pole is z = 1.  There
    are about t poles, so t above 1e4 raises ValueError.
    """
    if p.t <= 1.0 - p.alpha:
        return []
    if p.t > 1e4:
        raise ValueError(f"pole_locations lists about t poles; t = {p.t} is above 1e4")
    ms = sorted({2.0 * k + s for k in range(int(p.t // 2.0) + 1)
                 for s in (1.0 - p.alpha, 1.0 + p.alpha)})
    poles = []
    for m in ms:
        if m >= p.t:
            break
        theta = m * math.pi / p.t
        z = cmath.exp(1j * theta)
        if z in poles[-2:]:  # m = 1 -+ alpha round to one pole for alpha ~ 1e-16
            continue
        poles += [z, cmath.exp(-1j * theta)] if m > 0.0 else [1.0 + 0j]
    return poles
