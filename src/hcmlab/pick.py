"""The Pick/GGC criterion for the family: h = Im(f'/f) on the upper half-plane.

A probability law is a generalized gamma convolution exactly when its
Laplace transform continues zero-free to the cut plane with
Im(f'/f) >= 0 on the upper half-plane.  For f = 1/(z^2t + 2 cos(pi a) z^t + 1)
the logarithmic derivative is explicit,

    h(z) = -2t Im[ z^(t-1) (z^t + cos pi a) / (z^2t + 2 cos(pi a) z^t + 1) ],

h is harmonic, vanishes on (0, inf) and at infinity, so by the minimum
principle everything hinges on the boundary values along the negative
axis, where h has a closed form with the sign of a quadratic in rho = |z|^t:
nonnegative for every pole-free p with alpha <= 1/2, negative outside its
roots when alpha > 1/2.  The scan here evaluates h on horizontal lines plus
that negative-axis form and reports the scanned minimum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .specfun import FamilyParams, pole_locations
from .laplace import _LOG_X_MAX, branch_cut_kernel
from .monotone import FAIL, PASS, ScanGrid, Verdict

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
        if self.n_per_level < 1:
            raise ValueError(f"n_per_level must be >= 1, got {self.n_per_level}")


DEFAULT_SCAN = HalfPlaneScan()


def h_value(z, p: FamilyParams):
    """h(z) = Im(f'(z)/f(z)) for Im(z) > 0, any shape; z^{t-1} = z^t / z, one power a point."""
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0.0):
        raise ValueError("h_value requires Im(z) > 0")
    c, t, beta = p.cos_pi_alpha, p.t, 1.0 - p.alpha
    if c < -0.5:  # num and den cancel near z^t = 1, c = -1: from z^t - 1 and the exact 1 - a
        w = np.expm1(t * np.log(z))
        num = w + 2.0 * math.sin(0.5 * math.pi * beta) ** 2
        q = (w + 1.0) / z * num / (num * num + math.sin(math.pi * beta) ** 2)
    else:
        zt = z ** t
        q = zt / z * (zt + c) / (zt * zt + 2.0 * c * zt + 1.0)
    out = -2.0 * t * np.imag(q)
    return float(out) if out.ndim == 0 else out


def h_negative_axis(rho, p: FamilyParams):
    """h on the negative axis, from above, at x = rho^(1/t), for any pole-free p with t > 0.

    h(-x) = A sin(pi t) [cos(pi a) (rho^2 + 1) + 2 rho cos(pi t)] with A =
    2t rho^(-(1-t)/t) / |d|^2 >= 0, d = P(rho e^(i pi t)), so h has the sign
    of the bracket: >= 0 for every rho when alpha <= 1/2 (rho^2 + 1 >= 2 rho),
    < 0 outside its two roots when alpha > 1/2.  |h| is taken in logs, where
    rho^(-(1-t)/t) alone can overflow at small t, and clamped to the largest
    float: the sign is always right and every value finite.  No x is formed.
    """
    t, c = p.t, p.cos_pi_alpha
    if not 0.0 < t <= 1.0 - p.alpha:  # pole_locations(p) is empty iff t <= 1 - alpha
        raise ValueError("requires 0 < t <= 1 - alpha (a pole-free continuation)")
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise ValueError("rho must be positive")
    d = rho * rho * np.exp(2j * math.pi * t) + 2.0 * c * rho * np.exp(1j * math.pi * t) + 1.0
    bracket = c * (rho * rho + 1.0) + 2.0 * rho * math.cos(math.pi * t)
    with np.errstate(divide="ignore", over="ignore"):  # zero bracket: h = 0; tiny t: clamped
        log_h = (math.log(2.0 * t) + math.log(math.sin(math.pi * t)) - (1.0 - t) / t * np.log(rho)
                 - np.log(np.abs(d) ** 2) + np.log(np.abs(bracket)))
    out = np.copysign(np.exp(np.minimum(log_h, _LOG_X_MAX)), bracket)
    return float(out) if out.ndim == 0 else out


def ggc_pick_scan(p: FamilyParams, scan: HalfPlaneScan = DEFAULT_SCAN,
                  tol: float = 1e-6) -> Verdict:
    """Scan h over the upper half-plane; PASS iff pole-free and min h >= -tol.

    An immediate FAIL (with the principal pole, first in ``pole_locations``,
    as witness) is returned when the continuation has poles, i.e. when
    t > 1 - alpha.  Otherwise the verdict records the minimum of one h call
    on all the lines and one ``h_negative_axis`` call on the negative axis,
    over rho = x^t in [1e-4, 1e4]; the true infimum is 0.  For alpha > 1/2
    and t > 0 the cut's bracket is negative off [r, 1/r], which may contain
    that grid, so rho = r/2 is scanned too (|h| there beats past 1/r, as
    h(1/rho) = rho^(2/t + 2) h(rho)) and the verdict is FAIL by that sign.
    At small t, x and h leave the float range: the witness then clamps both
    to finite floats, and keeps the sign of h.
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
    c, negative_cut = p.cos_pi_alpha, p.cos_pi_alpha < 0.0 and p.t > 0.0
    if p.t > 0.0:  # at t = 0, f is constant and h vanishes on the cut too
        rho = np.geomspace(1e-4, 1e4, 400)
        if negative_cut:  # pole-free, so t < 1/2: the bracket's roots are r <= 1 <= 1/r
            ct = math.cos(math.pi * p.t)
            r = -c / (ct + math.sqrt(max(ct * ct - c * c, 0.0)))
            rho = np.append(rho, 0.5 * r)
        hb = h_negative_axis(rho, p)
        i = int(np.argmin(hb))
        if hb[i] < m:
            m = float(hb[i])
            with np.errstate(over="ignore", under="ignore"):
                x = rho[i] ** (1.0 / p.t)
            # x leaves the float range at small t: the witness clamps it
            marg = (-min(max(float(x), sys.float_info.min), sys.float_info.max), 0.0)
    if negative_cut:
        return Verdict(FAIL, tol, witness=(marg, m), detail=(
            f"cos(pi alpha) < 0: h on the cut has the sign of cos(pi a) (rho^2 + 1) + 2 rho "
            f"cos(pi t), negative off [r, 1/r], r = {r:.6g}; minimum {m:.3e} at z = {marg}"))
    if m >= -tol:
        return Verdict(PASS, tol, witness=(marg, m),
                       detail=f"scanned minimum m_hat = {m:.3e} >= -{tol:.1e} "
                              f"(analytic infimum: 0)")
    return Verdict(FAIL, tol, witness=(marg, m), detail=f"h < -tol at z = {marg}")


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


def stieltjes_probe(alpha: float, x_grid: ScanGrid | None = None) -> Verdict:
    """Probe whether f_alpha = f_{alpha,1-alpha} can be a Stieltjes transform.

    The Stieltjes inversion density -(1/pi) Im f(-x + i0) is -(1/pi)
    ``branch_cut_kernel``, with the sign of cos(pi a) (1 - x^t).  FAIL means
    a negative value was found, i.e. f is certified NOT Stieltjes (the
    expected outcome for alpha < 1/2); PASS means none on the grid,
    consistent with the Stieltjes property (alpha = 1/2, where f = 1/(1+x)).
    x = 1 is a pole (the point mass at alpha = 1/2): grid points where x^t
    rounds to 1 are skipped.
    """
    if not 0.0 < alpha <= 0.5:
        raise ValueError("alpha must lie in (0, 1/2]")
    x_grid, tol = x_grid or ScanGrid(1e-2, 1e2, 400), 1e-9
    p = FamilyParams(alpha, 1.0 - alpha)
    xs = x_grid.points()
    xs = xs[xs ** p.t != 1.0]
    vals = -branch_cut_kernel(xs, p) / math.pi
    i = int(np.argmin(vals))
    x, v = float(xs[i]), float(vals[i])
    if v < -tol:
        return Verdict(FAIL, tol, witness=(x, v), detail=(
            f"density -Im f(-x + i0)/pi = {v:.3e} < -{tol:.1e} at x = {x:.4g}; not Stieltjes"))
    return Verdict(PASS, tol, witness=(x, v), detail=(
        f"min density {v:.3e} at x = {x:.4g} on {x_grid}, consistent with Stieltjes"))
