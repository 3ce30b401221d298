"""The Pick/GGC criterion for the family: h = Im(f'/f) on the upper half-plane.

A probability law is a generalized gamma convolution exactly when its
Laplace transform continues zero-free to the cut plane with
Im(f'/f) >= 0 on the upper half-plane.  For f = 1/(z^2t + 2 cos(pi a) z^t + 1)
the logarithmic derivative is explicit,

    h(z) = -2t Im[ z^(t-1) (z^t + cos pi a) / (z^2t + 2 cos(pi a) z^t + 1) ],

h is harmonic, vanishes on (0, inf) and at infinity, so by the minimum
principle everything hinges on the boundary values along the negative
axis, where h has a closed form that is manifestly nonnegative while
alpha + eps < 1/2.  The scan here evaluates h on horizontal lines plus
that negative-axis form and reports the scanned minimum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .specfun import FamilyParams, f_family, pole_locations
from .monotone import FAIL, INCONCLUSIVE, PASS, ScanGrid, Verdict

_LOG_MAX = math.log(sys.float_info.max)  # exp of it is the largest float, to an ulp

__all__ = [
    "HalfPlaneScan",
    "DEFAULT_SCAN",
    "h_value",
    "h_negative_axis",
    "ggc_pick_scan",
    "figure2_data",
    "write_figure2_csv",
    "stieltjes_probe",
]


@dataclass(frozen=True)
class HalfPlaneScan:
    """Where to sample h: horizontal lines (the negative axis is always scanned too)."""

    re_range: tuple = (-50.0, 50.0)
    im_levels: tuple = (0.01, 0.1, 1.0, 10.0)
    n_per_level: int = 2000

    def __post_init__(self):
        if not self.im_levels or any(v <= 0.0 for v in self.im_levels):
            raise ValueError("im levels must be nonempty and strictly positive")
        lo, hi = self.re_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("re_range must be a finite increasing pair")


DEFAULT_SCAN = HalfPlaneScan()


def h_value(z, p: FamilyParams):
    """h(z) = Im(f'(z)/f(z)) for Im(z) > 0, any shape; z^{t-1} = z^t / z, one power a point."""
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0.0):
        raise ValueError("h_value requires Im(z) > 0")
    c = p.cos_pi_alpha
    t = p.t
    zt = z ** t
    out = -2.0 * t * np.imag(zt / z * (zt + c) / (zt * zt + 2.0 * c * zt + 1.0))
    return float(out) if out.ndim == 0 else out


def h_negative_axis(rho, p: FamilyParams):
    """Boundary value of h on the negative axis, parametrized by rho = |z|^t.

    Closed form A cos(pi a) sin(phi) [(rho - cos(phi)/cos(pi a))^2
    + 1 - (cos(phi)/cos(pi a))^2] with phi = (alpha + eps) pi and A >= 0;
    every factor is nonnegative while alpha + eps < 1/2, which is the
    domain enforced here.
    """
    alpha, t = p.alpha, p.t
    eps = p.eps
    if not (0.0 < alpha < 0.5 and eps > 0.0):
        raise ValueError("requires 0 < alpha < 1/2 and t < 1 - alpha")
    if alpha + eps >= 0.5:
        raise ValueError("closed-form sign analysis requires alpha + eps < 1/2")
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise ValueError("rho must be positive")
    c = p.cos_pi_alpha
    phi = (alpha + eps) * math.pi
    amp = 2.0 * t * rho ** (-(alpha + eps) / t) / _cut_d2(rho, p)
    r = math.cos(phi) / c
    out = amp * c * math.sin(phi) * ((rho - r) ** 2 + 1.0 - r * r)
    return float(out) if out.ndim == 0 else out


def _cut_d2(rho, p: FamilyParams):
    """|d|^2, d = rho^2 e^(2i pi t) + 2 cos(pi a) rho e^(i pi t) + 1: f = 1/d on the cut."""
    t, c = p.t, p.cos_pi_alpha
    d = rho * rho * np.exp(2j * math.pi * t) + 2.0 * c * rho * np.exp(1j * math.pi * t) + 1.0
    return np.abs(d) ** 2


def _h_cut(rho: np.ndarray, p: FamilyParams) -> np.ndarray:
    """h on the negative axis, from above, at x = rho^(1/t), for any pole-free p.

    h(-x) = A sin(pi t) [cos(pi a) (rho^2 + 1) + 2 rho cos(pi t)] with
    A = 2t rho^(-(1-t)/t) / |d|^2 >= 0, so h has the sign of the bracket.
    |h| is taken in logs, where rho^(-(1-t)/t) alone can overflow at small t,
    and clamped to the largest float: the sign is always right and every
    value finite.  No division by cos(pi a), and no x.
    """
    t, c = p.t, p.cos_pi_alpha
    bracket = c * (rho * rho + 1.0) + 2.0 * rho * math.cos(math.pi * t)
    with np.errstate(divide="ignore"):  # a zero bracket is h = 0
        log_h = (math.log(2.0 * t) + math.log(math.sin(math.pi * t)) - (1.0 - t) / t * np.log(rho)
                 - np.log(_cut_d2(rho, p)) + np.log(np.abs(bracket)))
    return np.copysign(np.exp(np.minimum(log_h, _LOG_MAX)), bracket)


def ggc_pick_scan(p: FamilyParams, scan: HalfPlaneScan = DEFAULT_SCAN,
                  tol: float = 1e-6) -> Verdict:
    """Scan h over the upper half-plane; PASS iff pole-free and min h >= -tol.

    An immediate FAIL (with the principal pole, first in ``pole_locations``,
    as witness) is returned when the continuation has poles, i.e. when
    t > 1 - alpha.  Otherwise the verdict records the minimum of one h call
    on all the lines and one closed form on the negative axis, over
    rho = x^t in [1e-4, 1e4]; the true infimum is 0.  At small t, x and h
    there leave the float range: the witness then clamps both to finite
    floats, and keeps the sign of h.
    """
    poles = pole_locations(p)
    if poles:
        z = poles[0]
        return Verdict(FAIL, tol, witness=((z.real, z.imag), 0.0),
                       detail=f"continuation of f has poles at {z:.12g} and conjugate; "
                              "a GGC Laplace transform continues pole- and zero-free "
                              "off the negative axis")
    lo, hi = scan.re_range
    re, levels = np.linspace(lo, hi, scan.n_per_level), np.asarray(scan.im_levels, float)
    hs = h_value(re + 1j * levels[:, None], p)
    k, i = np.unravel_index(np.argmin(hs), hs.shape)  # C order: ties go to the first level
    m, marg = float(hs[k, i]), (float(re[i]), float(levels[k]))
    if p.t > 0.0:  # at t = 0, f is constant and h vanishes on the cut too
        rho = np.geomspace(1e-4, 1e4, 400)
        if p.alpha + p.eps < 0.5 and 0.0 < p.alpha < 0.5 and p.eps > 0.0:
            hb = h_negative_axis(rho, p)
        else:
            hb = _h_cut(rho, p)
        i = int(np.argmin(hb))
        if hb[i] < m:
            m = float(hb[i])
            with np.errstate(over="ignore", under="ignore"):
                x = rho[i] ** (1.0 / p.t)
            # x leaves the float range at small t: the witness clamps it
            marg = (-min(max(float(x), sys.float_info.min), sys.float_info.max), 0.0)
    if m >= -tol:
        return Verdict(PASS, tol, witness=(marg, m),
                       detail=f"scanned minimum m_hat = {m:.3e} >= -{tol:.1e} "
                              f"(analytic infimum: 0)")
    return Verdict(FAIL, tol, witness=(marg, m),
                   detail=f"h < -tol at z = {marg}")


def figure2_data(p: FamilyParams, im_level: float, re_grid: ScanGrid) -> np.ndarray:
    """Sample h along the line Im(z) = im_level; returns rows (re, h)."""
    if im_level <= 0.0:
        raise ValueError("im_level must be positive")
    re = re_grid.points()
    hs = h_value(re + 1j * im_level, p)
    return np.column_stack([re, hs])


def write_figure2_csv(path, table: np.ndarray):
    """Write (re, h) rows as CSV with 15 significant digits."""
    with open(path, "w") as fh:
        fh.write("re,h\n")
        for re, h in table:
            fh.write(f"{re:.15g},{h:.15g}\n")
    return path


def stieltjes_probe(alpha: float, x_grid: ScanGrid | None = None,
                    eps_seq=(1e-2, 1e-3, 1e-4), tol: float = 1e-9) -> Verdict:
    """Probe whether f_alpha = f_{alpha,1-alpha} can be a Stieltjes transform.

    The Stieltjes inversion density limit is -(1/pi) Im[f(-x + i eps)],
    eps -> 0+.  FAIL means a stably negative region was found, i.e. f is
    certified NOT Stieltjes (the expected outcome for alpha < 1/2); PASS
    means no negativity at any probed eps, consistent with the Stieltjes
    property (the alpha = 1/2 case, where f = 1/(1+x)).
    """
    if not 0.0 < alpha <= 0.5:
        raise ValueError("alpha must lie in (0, 1/2]")
    if x_grid is None:
        x_grid = ScanGrid(1e-2, 1e2, 400)
    p = FamilyParams(alpha, 1.0 - alpha)
    xs = x_grid.points()
    minima = []
    for eps in sorted(eps_seq, reverse=True):
        vals = -np.imag(f_family(-xs + 1j * eps, p)) / math.pi
        i = int(np.argmin(vals))
        minima.append((float(eps), float(xs[i]), float(vals[i])))
    negative = [m for m in minima if m[2] < -tol]
    detail = "; ".join(f"eps={e:.0e}: min {v:.3e} at x={x:.4g}" for e, x, v in minima)
    if len(negative) == len(minima):
        e, x, v = minima[-1]
        return Verdict(FAIL, tol, witness=(x, v),
                       detail="density limit negative at every probed eps "
                              f"(not a Stieltjes transform); {detail}")
    if not negative:
        return Verdict(PASS, tol, witness=(minima[-1][1], minima[-1][2]),
                       detail=f"no negativity found, consistent with Stieltjes; {detail}")
    return Verdict(INCONCLUSIVE, tol, detail=f"verdict unstable across eps; {detail}")