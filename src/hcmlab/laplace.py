"""Two independent numerical Laplace-inversion routes.

For f(z) = 1/(z^2t + 2 cos(pi a) z^t + 1):

* ``bromwich_invert`` integrates e^{lam z} f(z) along a vertical line
  Re z = c.  Conjugate symmetry folds the line onto y >= 0, and one
  integration by parts trades f for f', whose |y|^{-2t-1} decay makes the
  folded integral absolutely convergent for every t > 0.  The head runs
  on the vectorized adaptive Gauss-Kronrod panel rule, starting from the
  half periods of e^{i lam y}; the oscillatory tail is rotated onto the ray
  where e^{i lam y} decays and taken on 147 fixed Gauss-Kronrod nodes.  Both
  hand f' whole node arrays, so no scalar integrand is called per node.  A
  whole lam grid goes through one batched pass: every lam keeps its own
  abscissa, panels and retire rule, but each adaptive pass is one f' call
  for the grid, and so are all its tails (grids too big for one pass are
  split into chunks of at most ``MAX_HEAD_PANELS`` panels).  The line
  geometry (the first pass's panels, log z and e^{i lam y} at its nodes,
  log z at the tail nodes) depends on (lam, c) alone; the last chunk's is
  kept, so the verdicts of a CM predicate or a critical-index search on one
  grid pay at most one complex exp per node for those passes.

* ``branch_cut_invert`` uses the real-axis representation obtained by
  collapsing the contour onto the negative axis (valid while the
  continuation is pole-free, t < 1 - alpha):

      g(lam) = -(1/pi) int_0^inf Im[1/P(x^t e^{i t pi})] e^{-lam x} dx.

  It runs on the same panel rule in u = log x, unit panels from
  x = 1e-16 to max(60/lam, 10) with edges at x = 1 and at the kernel's
  sign change; a whole lam grid is one call, one group per lam, and
  lam = 0 (the total integral) adds an exact series tail.

The two routes share no code path beyond f itself, so their agreement is
a genuine cross-check.  At t = 1 the inverse is elementary
(``closed_form_inverse_t1``) and pins down both signs and normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import (DEFAULT_QUAD, TAIL_NODES, TAIL_PANELS, ConvergenceError,
                         gauss_kronrod_panels, oscillatory_tail)
from .specfun import FamilyParams, f_family_prime, p_alpha, pole_locations

__all__ = [
    "InversionResult",
    "bromwich_invert",
    "branch_cut_kernel",
    "kernel_sign_change",
    "branch_cut_invert",
    "kernel_total_integral",
    "closed_form_inverse_t1",
    "invert_grid",
]


@dataclass(frozen=True, slots=True)
class InversionResult:
    """g = L^{-1} f sampled on a lambda grid, with the route's error estimate."""

    lambdas: np.ndarray
    values: np.ndarray
    est_error: float

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or np.any(np.diff(lam) <= 0.0):
            raise ValueError("lambda grid must be strictly increasing")
        if self.est_error < 0.0:
            raise ValueError("est_error must be >= 0")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


# --------------------------------------------------------------------------
# Bromwich line
# --------------------------------------------------------------------------

def default_abscissa(p: FamilyParams, lam: float | np.ndarray):
    """Abscissa clearing every pole, with e^{lam c} amplification kept ~e^2.

    A fixed abscissa loses about e^{lam c} digits of the quadrature
    estimate, so the margin beyond the rightmost pole shrinks like 1/lam.
    ``lam`` may be an array.
    """
    delta = np.minimum(1.0, np.maximum(2.0 / np.asarray(lam, dtype=float), 0.05))
    poles = pole_locations(p)
    return max(0.0, poles[0].real if poles else 0.0) + delta


# The default abscissa has c >= 0.05 and the overflow check keeps lam c <= 709,
# so it never needs more than ceil(4 * 709 / (0.05 pi)) = 18,055 head panels;
# only a user-set small c asks for more (c = 1e-6, lam = 1e8 would be 1.3e8).
# A grid is inverted in chunks of at most this many head plus tail panels.
MAX_HEAD_PANELS = 20_000


def bromwich_invert(p: FamilyParams, lam: float | np.ndarray,
                    c: float | np.ndarray | None = None, return_err: bool = False):
    """Inverse Laplace transform of f at lam > 0 along the line Re z = c.

    ``lam`` is a scalar or a 1-d array; an array gives arrays of g (and
    err), a scalar gives floats.  Each lam keeps its own abscissa, ``c``
    (a scalar or an array matching ``lam``) or ``default_abscissa`` when
    c = None.  The head [0, y0] is integrated by ``gauss_kronrod_panels``
    on the m = ceil(4 lam/pi) half-period panels of e^{i lam y} that end
    at y0, the tail by ``oscillatory_tail`` on the ray Im z = y0, Re z <= c,
    where e^{lam z} decays; every lam keeps its own panels, retire rule and
    bisection budget, but one adaptive pass makes one f' call for the whole
    grid, and all tails share one more.  A grid is split into consecutive
    chunks of at most ``MAX_HEAD_PANELS`` head plus tail panels, so no pass
    builds a bigger node array than one lam at the cap.  The first head pass
    and the tails of a chunk whose (lam, c, m) is the last chunk's (up to a
    512 kB geometry, the default 40-point grid taking 383 kB) reuse its log z
    and e^{i lam y}, with the same values to the bit.

    Raises ValueError if a line does not clear the poles of the
    continuation, ConvergenceError if the head rule exhausts its bisection
    budget (``DEFAULT_QUAD.max_subdivisions``) at some lam, a head would need more
    than ``MAX_HEAD_PANELS`` panels, or e^{lam c} overflows; the last two
    are checked for the whole grid before any node is built.  With
    ``return_err`` returns (g, err), err being the head and tail estimates
    scaled by e^{lam c}/(pi lam).
    """
    if p.t <= 0.0:
        raise ValueError("bromwich_invert requires t > 0")
    lams = np.asarray(lam, dtype=float)
    scalar = lams.ndim == 0
    bad = np.flatnonzero(~(lams > 0.0))[:1]
    if lams.ndim > 1 or bad.size:
        raise ValueError("bromwich_invert requires lam > 0, a scalar or a 1-d array; got " + (
            f"lam[{bad[0]}] = {lams.flat[bad[0]]:g}" if bad.size else f"shape {lams.shape}"))
    lams = lams.reshape(-1)
    cs = np.broadcast_to(default_abscissa(p, lams) if c is None else np.asarray(c, dtype=float),
                         lams.shape)
    if np.any(~(cs > 0.0)):
        raise ValueError("abscissa must be positive")
    poles = pole_locations(p)
    if poles and np.any(cs <= poles[0].real):
        raise ValueError(f"pole on or right of the line: Re pole = {poles[0].real}, "
                         f"c = {cs[np.argmax(cs <= poles[0].real)]}")

    with np.errstate(over="ignore"):
        amp = np.exp(lams * cs) / (np.pi * lams)
    if not np.all(np.isfinite(amp)):
        k = int(np.argmax(~np.isfinite(amp)))
        raise ConvergenceError(f"e^(lam c) overflows at lam c = {lams[k] * cs[k]:.6g}")
    # head [0, Y0] on m half-period panels, Y0 past the region where f' has structure
    m = np.maximum(1.0, np.ceil(4.0 * lams / np.pi))
    if np.any(m > MAX_HEAD_PANELS):
        k = int(np.argmax(m > MAX_HEAD_PANELS))
        raise ConvergenceError(f"the head needs {m[k]:.0f} half-period panels at "
                               f"lam = {lams[k]:.6g}, over the cap of {MAX_HEAD_PANELS}")
    m = m.astype(np.intp)
    y0 = m * np.pi / lams

    g, err = np.empty_like(lams), np.empty_like(lams)
    used = np.cumsum(m + TAIL_PANELS)
    lo = 0
    while lo < lams.size:
        base = used[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(used, base + MAX_HEAD_PANELS, side="right")))
        k = slice(lo, hi)
        g[k], err[k] = _bromwich_chunk(p, lams[k], cs[k], m[k], y0[k])
        lo = hi
    g, err = -amp * g, amp * err
    if scalar:
        g, err = float(g[0]), float(err[0])
    if return_err:
        return g, err
    return g


class _LineCache:
    """The line geometry of the last chunk whose geometry fits in ``cap`` bytes.

    That is what the chunk's first head pass and its tail read: the initial
    head panels and their lam index, log z and e^{i lam y} at that pass's
    nodes, and log z at the tail's nodes.  It depends on (lam, c, m) alone,
    and the key is the exact bytes of those arrays.
    """

    def __init__(self, cap: int):
        self.cap, self.key, self.geometry = cap, None, ()

    @staticmethod
    def size(panels: int, lams: int) -> int:
        """Bytes of a chunk's geometry: per head panel 2 edges, an index and 21
        Kronrod nodes' (log z, e^{i lam y}); per lam the tail nodes' log z."""
        return panels * (24 + 32 * 21) + 16 * TAIL_NODES * lams

    def get(self, key):
        return self.geometry if key == self.key else None

    def put(self, key, geometry):
        for a in geometry:  # a hit reads these arrays and must never change them
            a.flags.writeable = False
        self.key, self.geometry = key, geometry


# One entry serves a CM predicate's grid across verdicts and a search's probes.  The default
# 40-point grid's geometry takes 383 kB; a chunk over the cap (a refined 160-point grid would
# take 1.5 MB) is not kept and leaves the held one in place.
_LINE_CACHE = _LineCache(1 << 19)


def _head_panels(m, y0):
    """The panel edges of np.linspace(0, y0, m + 1), laid end to end for every lam, and each
    panel's lam index."""
    last = np.cumsum(m)
    group = np.repeat(np.arange(m.size), m)
    j = np.arange(last[-1]) - np.repeat(last - m, m)
    step = (y0 / m)[group]
    b = (j + 1) * step
    b[last - 1] = y0
    return np.stack([j * step, b], axis=1), group


def _bromwich_chunk(p, lams, cs, m, y0):
    """Unscaled head + tail for a chunk of lam: (Re int, error estimate) per lam.

    The first head pass runs on the initial panels' own nodes, so on a hit it
    and the tail read ``_LINE_CACHE``'s geometry; later passes compute theirs.
    """
    key = lams.tobytes() + cs.tobytes() + m.tobytes()
    cached = _LINE_CACHE.get(key)
    # log_z1, phase1: log z and e^{i lam y} at the first head pass's nodes
    panels, group, log_z1, phase1, tail_log_z = cached or (*_head_panels(m, y0), None, None, None)
    keep = cached is None and _LINE_CACHE.size(len(panels), len(lams)) <= _LINE_CACHE.cap
    first = True

    def head(y, k):
        nonlocal first, log_z1, phase1
        z = cs[k] + 1j * y
        if first and cached is not None:
            fz, phase = f_family_prime(z, p, log_z1), phase1
        else:
            log_z = np.log(z) if first and keep else None
            fz = f_family_prime(z, p, log_z)
            phase = np.exp(1j * (lams[k] * y))
            if log_z is not None:
                log_z1, phase1 = log_z, phase
        first = False
        fz *= phase
        return fz.real

    def tail(y):
        nonlocal tail_log_z
        z = cs[:, None] + 1j * y
        if keep:
            tail_log_z = np.log(z)
        return f_family_prime(z, p, tail_log_z)

    head_val, head_err = gauss_kronrod_panels(head, panels, DEFAULT_QUAD, group)
    # The tail's quarter plane is {Im z >= y0, Re z <= c} for phi(y) = f'(c + iy).  Every
    # pole has |z| = 1 and the cut lies on Im z = 0, while y0 = m pi/lam >= 4 for every lam
    # (m >= 4 lam/pi, m >= 1): f' is analytic there and decays, so the rotation is valid.
    tail_val, tail_err = oscillatory_tail(tail, lams, y0)
    if keep:
        _LINE_CACHE.put(key, (panels, group, log_z1, phase1, tail_log_z))
    return head_val + tail_val.real, head_err + tail_err


# --------------------------------------------------------------------------
# Branch-cut representation (t strictly below 1 - alpha)
# --------------------------------------------------------------------------

def _require_cut_regime(p: FamilyParams):
    if not p.t < 1.0 - p.alpha:
        raise ValueError(
            f"branch-cut representation requires t < 1 - alpha, got t={p.t}, alpha={p.alpha}")


def branch_cut_kernel(x, p: FamilyParams):
    """Im[1 / P(x^t e^{i t pi})] = Im f(-x + i0) for x > 0, the cut-side boundary kernel."""
    if not p.t <= 1.0 - p.alpha:  # at t = 1 - alpha, x = 1 is a pole
        raise ValueError(f"the cut kernel requires t <= 1 - alpha, got t={p.t}, alpha={p.alpha}")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("branch_cut_kernel requires x > 0")
    # P(z) = z^2 P(1/z): past x = 1 use w = 1/z, so |w| <= 1 and nothing overflows
    big = x > 1.0
    phase = np.exp(1j * math.pi * p.t)
    w = np.exp(-p.t * np.abs(np.log(x))) * np.where(big, phase.conjugate(), phase)
    out = np.imag(np.where(big, w * w, 1.0) / p_alpha(w, p.alpha))
    return float(out) if out.ndim == 0 else out


def kernel_sign_change(p: FamilyParams):
    """The unique sign change x0 of the kernel, or None when t <= 1/2.

    The kernel's sign is that of -(cos(pi a) + x^t cos(t pi)); a crossing
    exists iff cos(t pi) < 0, at x0 = (-cos(pi a)/cos(t pi))^(1/t).
    """
    _require_cut_regime(p)
    ct = math.cos(math.pi * p.t)
    if ct >= 0.0:
        return None
    return (-p.cos_pi_alpha / ct) ** (1.0 / p.t)


# The cut integrals start at x = 1e-16; |kernel| <= 1/|P| ~ 1 there, so the
# dropped piece (0, 1e-16) is below 1e-16 and is added to every error estimate.
_X_MIN = 1e-16
_LOG_X_MAX = math.log(np.finfo(float).max)


def _cut_integrals(p: FamilyParams, lams: np.ndarray, log_upper: np.ndarray):
    """int_{1e-16}^{e^log_upper} kernel(x) e^{-lam x} dx per lam, in one panel-rule call.

    Works in u = log x, integrand kernel(e^u) e^{-lam e^u} e^u, on unit
    panels in u with edges added at u = 0 (x = 1, where the kernel peaks as
    t -> 1 - alpha) and at the sign change x0.  Returns (values, errors).
    """
    u_lo = math.log(_X_MIN)
    x0 = kernel_sign_change(p)
    cuts = np.array([0.0] if x0 is None else [0.0, math.log(x0)])
    edges = [np.sort(np.concatenate([np.arange(math.ceil(u_lo), hi), [u_lo, hi],
                                     cuts[(cuts > u_lo) & (cuts < hi)]]))
             for hi in log_upper]
    # repeated edges dropped by hand: np.unique would import numpy.ma, 1 MB of a cold CLI run
    edges = [e[np.concatenate([[True], np.diff(e) > 0.0])] for e in edges]
    panels = np.concatenate([np.stack([e[:-1], e[1:]], axis=1) for e in edges])
    group = np.repeat(np.arange(lams.size), [e.size - 1 for e in edges])

    def integrand(u, k):
        x = np.exp(u)
        return branch_cut_kernel(x, p) * np.exp(-lams[k] * x) * x

    val, err = gauss_kronrod_panels(integrand, panels, DEFAULT_QUAD, group)
    return val, err + _X_MIN


def branch_cut_invert(lam: float | np.ndarray, p: FamilyParams, return_err: bool = False):
    """-(1/pi) int_0^inf kernel(x) e^{-lam x} dx; equals bromwich_invert.

    ``lam`` is a finite scalar or 1-d array, lam >= 0; an array gives arrays
    of g (and err), a scalar gives floats.  The whole grid is one
    ``gauss_kronrod_panels`` call in u = log x over [log 1e-16,
    log max(60/lam, 10)], one group per lam.  lam = 0 is the total kernel
    integral (and so needs t > 1/2): its head runs in the same call, up to
    max(20, 2 x0), and the algebraic tail beyond is summed exactly from the
    expansion 1/P(zeta) = sum_n U_n(-cos pi a) zeta^{-n-2} in Chebyshev
    polynomials of the second kind, term-integrated from that cutoff.

    Raises ValueError unless t < 1 - alpha and every lam is finite and
    >= 0, ConvergenceError if 60/lam overflows (lam below about 3e-307) or
    the panel rule exhausts its bisection budget at some lam.  With
    ``return_err`` returns (g, err), err being the panel rule's estimate
    plus the 1e-16 bound on the dropped (0, 1e-16) (and at lam = 0 the
    series envelope at truncation), scaled by 1/pi.
    """
    lams = np.asarray(lam, dtype=float)
    scalar = lams.ndim == 0
    if lams.ndim > 1 or not np.all(np.isfinite(lams) & (lams >= 0.0)):
        raise ValueError(f"branch_cut_invert requires finite lam >= 0, a scalar or a 1-d array, "
                         f"got lam = {lam}")
    _require_cut_regime(p)
    lams = lams.reshape(-1)
    zero = lams == 0.0
    log_upper = np.maximum(math.log(60.0) - np.log(np.where(zero, 1.0, lams)), math.log(10.0))
    if np.any(log_upper > _LOG_X_MAX):
        k = int(np.argmax(log_upper > _LOG_X_MAX))
        raise ConvergenceError(f"the cut range 60/lam overflows at lam = {lams[k]:.6g}")
    if zero.any():
        upper0 = _total_cutoff(p)
        log_upper[zero] = math.log(upper0)
    val, err = _cut_integrals(p, lams, log_upper)
    if zero.any():
        tail, envelope = _series_tail(p, upper0)
        val[zero] += tail
        err[zero] += envelope
    g, err = -val / math.pi, err / math.pi
    if scalar:
        g, err = float(g[0]), float(err[0])
    return (g, err) if return_err else g


def _total_cutoff(p: FamilyParams) -> float:
    """Where the total kernel integral hands its head over to the series tail."""
    if p.t <= 0.5:
        raise ValueError("total kernel integral diverges for t <= 1/2")
    return max(20.0, 2.0 * (kernel_sign_change(p) or 1.0))


def _series_tail(p: FamilyParams, upper: float):
    """int_upper^inf kernel(x) dx from the U_n series: (value, envelope at truncation)."""
    # -sum_n U_n(-c) sin((n+2) t pi) X^{1-(n+2)t} / ((n+2)t - 1)
    c = p.cos_pi_alpha
    tail = 0.0
    u_prev, u_cur = 0.0, 1.0  # U_{-1}, U_0 at -c
    # individual terms can vanish by resonance (sin(k t pi) = 0, or a zero
    # of U_n), so termination must use the geometric envelope of the series
    u_bound = 1.0 / math.sqrt(1.0 - c * c) if abs(c) < 1.0 - 1e-12 else None
    for n in range(400):
        k = n + 2
        term = -u_cur * math.sin(k * p.t * math.pi) * upper ** (1.0 - k * p.t) / (k * p.t - 1.0)
        tail += term
        envelope = ((u_bound if u_bound is not None else k - 1.0)
                    * upper ** (1.0 - k * p.t) / (k * p.t - 1.0))
        if envelope < 1e-16 * max(1.0, abs(tail)):
            break
        u_prev, u_cur = u_cur, -2.0 * c * u_cur - u_prev
    return tail, envelope


def kernel_total_integral(p: FamilyParams) -> float:
    """int_0^inf kernel(x) dx = -pi branch_cut_invert(0), forced to be 0 by the contour argument.

    Needs t > 1/2 (the tail decays like x^{-2t})."""
    return -math.pi * branch_cut_invert(0.0, p)


def closed_form_inverse_t1(lam: float, alpha: float) -> float:
    """Inverse transform at t = 1: e^{-lam cos(pi a)} sin(lam sin(pi a))/sin(pi a).

    Takes negative values (first at lam sin(pi a) just above pi), which is
    the elementary witness that f_{alpha,1} is not completely monotone.
    The first negative trough, where tan(lam sin(pi a)) = tan(pi a), is at
    lam = pi (1 + a)/sin(pi a).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if lam < 0.0:
        raise ValueError("lam must be >= 0")
    a = math.cos(math.pi * alpha)
    b = math.sin(math.pi * alpha)
    return math.exp(-lam * a) * math.sin(lam * b) / b


def invert_grid(p: FamilyParams, lambdas, method: str = "bromwich",
                c: float | None = None) -> InversionResult:
    """Evaluate the inverse transform on a grid and report an error estimate.

    est_error is the maximum of the per-point quadrature estimates (both
    numerical routes) and, for the Bromwich route, an abscissa-sensitivity
    probe |g_c - g_{1.3c}| at the grid ends.
    """
    lam = np.asarray(lambdas, dtype=float)
    if method == "closed_form":
        if p.t != 1.0:
            raise ValueError("closed form available only at t = 1")
        vals = np.array([closed_form_inverse_t1(x, p.alpha) for x in lam])
        return InversionResult(lam, vals, 0.0)
    if method == "branch_cut":
        vals, errs = branch_cut_invert(lam, p, return_err=True)
        return InversionResult(lam, vals, float(np.max(errs)))
    if method != "bromwich":
        raise ValueError(f"unknown method {method!r}")
    if np.any(~(lam > 0.0)):  # checked before default_abscissa divides by lam
        raise ValueError(f"the Bromwich route requires lam > 0, got lam = {lam[~(lam > 0.0)][0]:g}"
                         "; the branch-cut route (--method branch-cut) takes lam = 0")
    # one call: the grid, then its two ends again at 1.3 times their abscissa
    cs = default_abscissa(p, lam) if c is None else np.full_like(lam, c)
    ends = [0, -1]
    g, e = bromwich_invert(p, np.concatenate([lam, lam[ends]]),
                           np.concatenate([cs, 1.3 * cs[ends]]), return_err=True)
    n = lam.size
    err = max(float(np.max(e[:n])), float(np.max(np.abs(g[ends] - g[n:]))))
    return InversionResult(lam, g[:n].copy(), err)  # a view would keep the ends
