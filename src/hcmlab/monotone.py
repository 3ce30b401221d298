"""Numerical complete-monotonicity and HCM predicates.

Two independent CM checkers are provided.  ``cm_check_by_inversion``
recovers the candidate Laplace density g = L^{-1} f numerically and looks
for certified negative values; ``cm_check_by_differences`` tests the
alternating finite-difference battery (-1)^k Delta_h^k f >= 0, a necessary
condition at every step size.  A certified FAIL from either checker is a
genuine counterexample up to roundoff; a PASS is evidence at the scanned
resolution, not a proof, and says so in its detail string.

The HCM predicate applies the difference battery in the variable
w = v + 1/v to the products f(uv) f(u/v).  For the two-parameter family
there is a sharper, family-aware verdict (``hcm_check_family``) that also
certifies failure through the two obstructions the analysis provides:
poles of the analytic continuation off the negative axis, and local
increase at 0+.  Both are needed: near the HCM boundary the difference
battery's signal drops below double-precision resolution, while the pole
locations stay exactly computable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import ConvergenceError
from .specfun import FamilyParams, pole_locations
from .laplace import bromwich_invert

__all__ = [
    "Verdict",
    "ScanGrid",
    "DEFAULT_LAMBDA_GRID",
    "InconclusiveError",
    "cm_check_by_inversion",
    "cm_check_by_differences",
    "hcm_check",
    "hcm_check_family",
    "hcm_product_rewrite",
    "estimate_critical_t",
]

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"
BATTERY_BLOCK = 1 << 15  # w-stencil points per f call of ``hcm_check``
BATTERY_STEPS = (0.05, 0.2, 1.0)  # difference steps h, relative to x (or w)


class InconclusiveError(RuntimeError):
    """A predicate needed by a search returned INCONCLUSIVE."""


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of a numerical property check.

    FAIL always carries a witness (point, value); PASS carries the grid
    and tolerance that were actually scanned in ``detail``.
    """

    status: str
    tolerance: float
    witness: tuple | None = None
    detail: str = ""

    def __post_init__(self):
        if self.status not in (PASS, FAIL, INCONCLUSIVE):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == FAIL and self.witness is None:
            raise ValueError("FAIL verdict requires a witness")

    @property
    def passed(self) -> bool:
        return self.status == PASS

    @property
    def failed(self) -> bool:
        return self.status == FAIL


@dataclass(frozen=True)
class ScanGrid:
    """A 1-d scan grid, geometric or linear."""

    lo: float
    hi: float
    n: int
    spacing: str = "geometric"

    def __post_init__(self):
        if self.spacing not in ("geometric", "linear"):
            raise ValueError(f"bad spacing {self.spacing!r}")
        if not -math.inf < self.lo < self.hi < math.inf:  # NaN too
            raise ValueError(f"need finite lo < hi, got [{self.lo}, {self.hi}]")
        if self.spacing == "geometric" and self.lo <= 0.0:
            raise ValueError("geometric grid needs lo > 0")
        if self.n < 2:
            raise ValueError("need n >= 2")

    def points(self) -> np.ndarray:
        if self.spacing == "geometric":
            return np.geomspace(self.lo, self.hi, self.n)
        return np.linspace(self.lo, self.hi, self.n)


DEFAULT_LAMBDA_GRID = ScanGrid(0.05, 50.0, 40)  # the CM predicate's lambda grid
DIFF_GRID = ScanGrid(0.01, 20.0, 40)  # the x grid of ``cm_check_by_differences``

# --------------------------------------------------------------------------
# CM via numerical inversion
# --------------------------------------------------------------------------

def cm_check_by_inversion(p: FamilyParams, lambda_grid: ScanGrid | None = None,
                          tol: float = 1e-8) -> Verdict:
    """CM test through Bernstein: g = L^{-1} f must be nonnegative.

    With thr = tol * max(1, ||g||_inf), PASS if g - err >= -thr on the
    whole grid, FAIL with the most negative (lambda, g) if there
    g + err < -thr, err being the inversion's own error estimate.
    Anything else (at large lambda the e^{lam c} factor can leave no
    digits) and inversion trouble map to INCONCLUSIVE.
    """
    lambda_grid = lambda_grid or DEFAULT_LAMBDA_GRID
    lams = lambda_grid.points()
    try:
        gs, errs = bromwich_invert(p, lams, return_err=True)
    except (ConvergenceError, ValueError) as exc:
        return Verdict(INCONCLUSIVE, tol, detail=f"inversion failed: {exc}")
    thr = tol * max(1.0, float(np.max(np.abs(gs))))
    i = int(np.argmin(gs))
    witness = (float(lams[i]), float(gs[i]))
    if np.all(gs - errs >= -thr):
        return Verdict(PASS, tol, witness=witness, detail=(
            f"min g = {gs[i]:.3e} >= -{thr:.1e} on {lambda_grid}; "
            "evidence at this resolution, not a proof"))
    if gs[i] + errs[i] < -thr:
        return Verdict(FAIL, tol, witness=witness,
                       detail=f"g({lams[i]:.6g}) = {gs[i]:.6e} < -{thr:.1e}")
    j = int(np.argmin(gs - errs))
    return Verdict(INCONCLUSIVE, tol, detail=(
        f"g({lams[j]:.6g}) = {gs[j]:.3e} +- {errs[j]:.1e} (inversion error "
        f"estimate) does not clear -{thr:.1e} either way"))


# --------------------------------------------------------------------------
# CM via alternating finite differences
# --------------------------------------------------------------------------

def _stencil(xs: np.ndarray, order: int) -> np.ndarray:
    """Points x (1 + h j), shape (order + 1, steps, x): j leads."""
    return xs * (1.0 + np.array(BATTERY_STEPS)[:, None] * np.arange(order + 1)[:, None, None])


def _require_order(order: int):
    if order < 1:
        raise ValueError(f"difference order must be >= 1, got {order}")


def _diff_battery_min(vals: np.ndarray):
    """Most negative normalized (-1)^k Delta_h^k f, as (value, index).

    ``vals`` is f on a stencil of shape (order + 1, ..., steps, x).  The
    differences, normalized by the largest |f| on each stencil, fill one
    (..., step, k, x) table (k from 0; NaN skipped) whose argmin in C order
    breaks ties as nested loops over those axes would.
    """
    scale = np.maximum(np.max(np.abs(vals), axis=0), 1e-300)
    table, d = np.empty((vals.shape[0] - 1,) + scale.shape), vals
    for k in range(table.shape[0]):
        d = d[:-1] - d[1:]
        np.divide(d[0], scale, out=table[k])
    table = np.moveaxis(table, 0, -2)
    table[np.isnan(table)] = np.inf
    i = np.unravel_index(np.argmin(table), table.shape)
    return float(table[i]), tuple(int(j) for j in i)


def cm_check_by_differences(f, tol: float = 1e-9) -> Verdict:
    """Necessary-condition battery (-1)^k Delta_h^k f(x) >= 0, 1 <= k <= 8, on ``DIFF_GRID``.

    The steps are ``BATTERY_STEPS`` relative to x (h = step * x).  f gets
    one call on a 1-d float array, the whole stencil of 3 * 40 * 9 = 1080
    points.  Roundoff in the alternating sums grows like 2^order * eps, so
    order 8 leaves the default tolerance two decades of headroom.
    """
    xs = DIFF_GRID.points()
    points = _stencil(xs, 8)
    worst, (s, k, i) = _diff_battery_min(f(points.ravel()).reshape(points.shape))
    if worst >= -tol:
        return Verdict(PASS, tol, detail=(
            f"min normalized difference {worst:.3e} over {DIFF_GRID}, order <= 8, "
            f"steps {BATTERY_STEPS}; evidence, not proof"))
    x, hrel = float(xs[i]), BATTERY_STEPS[s]
    return Verdict(FAIL, tol, witness=(x, worst),
                   detail=f"(-1)^k Delta^k f < 0 at x = {x:.6g}, h = {hrel:.3g} x, k = {k + 1}")


# --------------------------------------------------------------------------
# HCM battery
# --------------------------------------------------------------------------

def _v_of_w(w):
    return 0.5 * (w + np.sqrt(w * w - 4.0))


@functools.lru_cache(maxsize=8)
def _battery_grids(u_grid: ScanGrid, w_grid: ScanGrid, order: int):
    """u and w points and the w stencil, shape (order + 1, 1, steps, w); read-only, shared."""
    if w_grid.lo <= 2.0:
        raise ValueError("w grid must start above 2")
    us, ws = u_grid.points(), w_grid.points()
    w = _stencil(ws, order)[:, None]
    us.flags.writeable = ws.flags.writeable = w.flags.writeable = False
    return us, ws, w


def _hcm_battery(product, u_grid, w_grid, order, tol) -> Verdict:
    """CM-in-w battery of product(u, w) = f(uv) f(u/v), one call per block of u.

    ``product`` gets a block of u, shape (u, 1, 1), and the w stencil, shape
    (order + 1, 1, steps, w), and returns the (order + 1, u, steps, w) table;
    a block is as many u as fit ``BATTERY_BLOCK`` table entries, at least one.
    """
    u_grid, w_grid = u_grid or ScanGrid(1e-4, 1.0, 17), w_grid or ScanGrid(2.01, 200.0, 25)
    us, ws, w = _battery_grids(u_grid, w_grid, order)
    per_block = max(1, BATTERY_BLOCK // w.size)
    worst, warg = math.inf, None
    for lo in range(0, us.size, per_block):
        m, (iu, s, k, i) = _diff_battery_min(product(us[lo:lo + per_block, None, None], w))
        if m < worst:
            worst, warg = m, (float(us[lo + iu]), float(ws[i]), BATTERY_STEPS[s], k + 1)
    if worst >= -tol:
        return Verdict(PASS, tol, detail=(
            f"min normalized w-difference {worst:.3e} over u in {u_grid}, w in {w_grid}, "
            f"order <= {order}; evidence, not proof"))
    u, w, hrel, k = warg
    return Verdict(FAIL, tol, witness=((u, w), worst),
                   detail=f"CM-in-w violated at u = {u:.6g}, w = {w:.6g}, h = {hrel:.3g} w, k = {k}")


def hcm_check(f, u_grid: ScanGrid | None = None, w_grid: ScanGrid | None = None,
              order: int = 8, tol: float = 1e-9) -> Verdict:
    """Black-box HCM battery: CM-in-w test of f(uv) f(u/v) for each u.

    ``f`` must accept 1-d float arrays of positive reals; it gets one call
    per block of u, on the u v and u / v of at most ``BATTERY_BLOCK``
    w-stencil points (the default 17 u x 3 steps x 25 w x 9 is one block),
    so a check needs at most about 7 MB.  The map w -> v uses the root
    v >= 1; the other root gives the same product.  Near w = 2 the map has
    a square-root singularity, so the default grid starts at 2.01.  A
    certified negative difference is a genuine HCM counterexample; PASS is
    evidence only, and in particular this battery cannot resolve the
    exponentially weak failures just past the family's HCM boundary (use
    ``hcm_check_family`` for those).
    """
    _require_order(order)

    def product(u, w):
        v = _v_of_w(w)
        x = np.stack([u * v, u / v])  # (2, order + 1, u, steps, w)
        fx = f(x.ravel()).reshape(x.shape)
        return fx[0] * fx[1]

    return _hcm_battery(product, u_grid, w_grid, order, tol)


def hcm_check_family(p: FamilyParams, u_grid: ScanGrid | None = None,
                     w_grid: ScanGrid | None = None, order: int = 8,
                     tol: float = 1e-9) -> Verdict:
    """HCM verdict for the two-parameter family, all obstructions armed.

    Failure routes, in order of robustness:

    1. poles of the analytic continuation off the negative axis
       (present iff t > 1 - alpha; the witness is the principal pole
       e^{i(1-alpha)pi/t}, first in ``pole_locations``);
    2. increase at 0+ (iff alpha > 1/2 and t > 0): f - 1 = cot^2(pi alpha)
       at y = x^t = -cos(pi alpha), in closed form.  An HCM function with
       0 < f(0+) < inf is CM (Bondesson 1992: f = C x^{beta-1} h1(x)
       h2(1/x), h1 and h2 Laplace transforms of GGCs), so cannot rise;
    3. the battery of ``hcm_check`` on the closed form ``hcm_product_rewrite``
       (17 + 675 real powers for the default table, no f call).

    Routes 1 and 2 are the analytic obstructions; they certify failures
    the battery cannot see numerically.  At t = 0, f is the positive
    constant 1/(2 + 2 cos(pi alpha)): an exact PASS, without the battery.
    An order below 1 is a ValueError at any (alpha, t).
    """
    _require_order(order)
    poles = pole_locations(p)
    if poles:
        z = poles[0]
        return Verdict(FAIL, tol, witness=((z.real, z.imag), 0.0),
                       detail=(f"analytic continuation has poles e^(+-i(1-alpha)pi/t) "
                               f"at {z:.12g}; an HCM function is pole-free off the cut"))
    if p.t == 0.0:
        return Verdict(PASS, tol, detail=(f"t = 0: f is the constant 1/(2 + 2 cos(pi alpha)) = "
                                          f"{0.5 / (1.0 + p.cos_pi_alpha):.6g} > 0, which is HCM"))
    if p.cos_pi_alpha < 0.0:
        y, rise = -p.cos_pi_alpha, 1.0 / math.tan(math.pi * p.alpha) ** 2
        return Verdict(FAIL, tol, witness=(y, rise), detail=(
            f"f increasing from f(0+) = 1: f - 1 = cot^2(pi alpha) = {rise:.6e} at "
            f"x^t = {y:.6g} (log x = {math.log(y) / p.t:.6g}); not CM, hence not HCM"))
    return _hcm_battery(lambda u, w: hcm_product_rewrite(p, u, w),
                        u_grid, w_grid, order, tol)


def hcm_product_rewrite(p: FamilyParams, u, w):
    """Closed form of f(uv) f(u/v) in the hyperbolic variables, v + 1/v = w.

    With s = u^t, c = 2 cos(pi alpha) and w_t = v^t + v^-t it is, exactly,
    1/((s^2 - 1)^2 + c^2 s^2 + c (s + s^3) w_t + s^2 w_t^2).  u and w broadcast
    (a scalar pair gives a float); ValueError unless all finite, u > 0, w >= 2.
    Where the s^4 and c s^3 w_t terms overflow (to inf - inf when c < 0), the
    entry is recomputed from D(s) = s^4 D(1/s), as r^4 / D(r) with r = 1/s.
    """
    u, w = np.asarray(u, dtype=float), np.asarray(w, dtype=float)
    if not (0.0 < u.min() and u.max() < math.inf and 2.0 <= w.min() and w.max() < math.inf):
        raise ValueError("hcm_product_rewrite requires finite u > 0 and w >= 2")  # NaN too
    c, s = 2.0 * p.cos_pi_alpha, u ** p.t
    vt = _v_of_w(w) ** p.t
    w_t = vt + 1.0 / vt
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(1.0 / _product_denominator(s, w_t, c))
        if not np.isfinite(out).all():
            bad = ~np.isfinite(out)
            r = 1.0 / np.broadcast_to(s, out.shape)[bad]
            out[bad] = r ** 4 / _product_denominator(r, np.broadcast_to(w_t, out.shape)[bad], c)
    return float(out) if out.ndim == 0 else out


def _product_denominator(s, w_t, c):
    """D(s) = s^2 w_t^2 + c (s + s^3) w_t + (s^2 - 1)^2 + c^2 s^2, Horner in w_t."""
    s2 = s * s
    d = s2 * w_t + c * (s + s * s2)
    d *= w_t
    d += (s2 - 1.0) ** 2 + c * c * s2
    return d


# --------------------------------------------------------------------------
# Critical-index bracket
# --------------------------------------------------------------------------

def estimate_critical_t(alpha: float, bisect_tol: float = 0.01,
                        lambda_grid: ScanGrid | None = None, on_probe=None):
    """Bisection bracket [t_lo, t_hi] for the critical CM index on [1-alpha, 1].

    The predicate is ``cm_check_by_inversion`` at tol 1e-9; t_lo always
    carries a PASS and t_hi a FAIL.  Ambiguous verdicts (minimum within a factor 4 of the
    threshold) are retried on a 4x refined grid and resolved toward FAIL.
    The search is deterministic, so halving bisect_tol reproduces the same
    leading probes and yields a nested bracket.  It also stops once t_lo and
    t_hi are adjacent floats, where the midpoint rounds onto an end, so a
    bisect_tol below the float spacing returns that bracket.  ValueError,
    before any probe, unless bisect_tol > 0.  The bracket is numerical
    evidence about the open critical index, not its value.
    """
    if not 0.0 < alpha <= 0.5:
        raise ValueError("alpha must lie in (0, 1/2]")
    if not bisect_tol > 0.0:  # NaN too
        raise ValueError(f"bisect_tol must be positive, got {bisect_tol}")
    lambda_grid, tol = lambda_grid or DEFAULT_LAMBDA_GRID, 1e-9

    def predicate(t: float) -> bool:
        grid = lambda_grid
        verdict = None
        for attempt in range(2):
            verdict = cm_check_by_inversion(FamilyParams(alpha, t), grid, tol)
            if verdict.status == INCONCLUSIVE:
                raise InconclusiveError(f"CM predicate inconclusive at t = {t}: {verdict.detail}")
            # a PASS whose scanned minimum sits within 4x of the threshold is
            # a close call: refine the grid once, then resolve toward FAIL
            close_call = verdict.passed and verdict.witness[1] < -0.25 * tol
            if verdict.failed or not close_call:
                break
            if attempt == 0:
                grid = ScanGrid(grid.lo, grid.hi, 4 * grid.n, grid.spacing)
            else:
                verdict = Verdict(FAIL, tol, witness=verdict.witness,
                                  detail="ambiguous after refinement; resolved toward FAIL")
        if on_probe is not None:
            on_probe(t, verdict)
        return verdict.passed

    lo, hi = 1.0 - alpha, 1.0
    if not predicate(lo):
        raise InconclusiveError(f"expected PASS at t = 1 - alpha = {lo}")
    if predicate(hi):
        raise InconclusiveError("expected FAIL at t = 1")
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi
