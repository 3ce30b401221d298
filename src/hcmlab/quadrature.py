"""Quadrature toolbox: tolerance spec, panel rules, oscillatory tails.

Every rule takes a vectorized integrand, one numpy call per pass.  An
adaptive Gauss-Kronrod panel rule (QUADPACK's G10/K21 pair on every active
panel at once, many integrals in one call by a group index) carries the
Bromwich head, the branch-cut integral and, after a double-exponential
change of variable that absorbs endpoint singularities and an infinite
range, ``tanh_sinh``.  A tail rule takes semi-infinite Fourier-type
integrals, rotated onto the ray where the oscillation decays (147 fixed
G10/K21 nodes), for arrays of frequency and start.  ``quad_checked``, the
scalar-integrand form of ``tanh_sinh``, has no caller in the package; the
benchmark in perfbench/ traces it by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureSpec", "ConvergenceError", "gauss_kronrod_panels", "tanh_sinh",
           "oscillatory_tail", "quad_checked"]


class ConvergenceError(RuntimeError):
    """An adaptive scheme exhausted its budget, or left too much out at an end."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets shared by the integration routines."""

    abs_tol: float = 1e-11
    rel_tol: float = 1e-10
    max_subdivisions: int = 400

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUAD = QuadratureSpec()


# --------------------------------------------------------------------------
# Adaptive Gauss-Kronrod over panels.  The G10/K21 pair is QUADPACK's qk21
# (Piessens et al., QUADPACK, 1983): the positive Kronrod nodes, largest
# first, of which the odd-numbered ones are the Gauss nodes; their Kronrod
# weights; the Gauss weights.  Expanded below to ascending nodes on [-1, 1].
# --------------------------------------------------------------------------

_K21_X = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
          0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
          0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
          0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
          0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_K21_W = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
          0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
          0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
          0.123491976262065851077208980491850, 0.134709217311473325928054001771707,
          0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
          0.149445554002916905664936468389821)
_G10_W = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
          0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
          0.295524224714752870173892994651338)


def _mirror(half):
    """Values on the 11 nonnegative nodes (largest first) -> all 21, ascending."""
    half = np.asarray(half, dtype=float)
    return np.concatenate([half[:-1], half[::-1]])


_GK_NODES = np.concatenate([-np.asarray(_K21_X[:-1]), _K21_X[::-1]])
_g10 = np.zeros(len(_K21_X))
_g10[1::2] = _G10_W
_GK_WEIGHTS = np.stack([_mirror(_K21_W), _mirror(_g10)], axis=1)  # columns: K21, G10
_ROUNDOFF = 50.0 * np.finfo(float).eps


def gauss_kronrod_panels(f, panels, spec: QuadratureSpec, group):
    """Integrate a real, vectorized ``f`` over the (n, 2) array of ``panels``.

    ``group`` names each panel's integral, 0..G-1.  Each pass calls ``f(x,
    g)`` once, on the 21 Kronrod nodes of every active panel and the integral
    of each.  A panel retires when |K21 - G10| is within its length share
    (among its integral's active panels) of max(abs_tol, rel_tol |I|) less
    what that integral's retired panels used, and is bisected otherwise; a
    share of the whole length would ask for less than roundoff wherever a long
    range has its structure in one corner.  err adds max(|K21 - G10|, 50 eps
    int |f|) per retired panel: QUADPACK's roundoff floor without its (200
    delta)^1.5 rescaling, so it is conservative.  All of this is per
    integral, so each value is the one it would get alone.  Raises
    ConvergenceError once an integral's bisections (not counting the initial
    panels) exceed ``spec.max_subdivisions``.  Returns length-G (value, err).
    """
    a0, b0 = np.asarray(panels, dtype=float).T  # ValueError unless two columns
    grp0 = np.asarray(group, dtype=np.intp)
    if not np.all(b0 > a0) or grp0.shape != a0.shape or np.any(grp0 < 0):
        raise ValueError("panels need b > a and one nonnegative group index each")
    ng = int(grp0.max()) + 1
    a, b, grp = a0, b0, grp0
    value, spent, err = np.zeros(ng), np.zeros(ng), np.zeros(ng)
    bisections = np.zeros(ng, dtype=np.intp)
    while True:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x = (mid[:, None] + half[:, None] * _GK_NODES).ravel()
        fx = f(x, np.repeat(grp, _GK_NODES.size)).reshape(-1, _GK_NODES.size)
        kron, gauss = (half[:, None] * (fx @ _GK_WEIGHTS)).T
        diff = np.abs(kron - gauss)
        tol = np.maximum(spec.abs_tol,
                         spec.rel_tol * np.abs(value + np.bincount(grp, kron, ng))) - spent
        done = diff <= tol[grp] * half / np.bincount(grp, half, ng)[grp]
        kept = grp[done]
        value += np.bincount(kept, kron[done], ng)
        spent += np.bincount(kept, diff[done], ng)
        # QUADPACK's roundoff floor, 50 eps int |f|, enters the estimate only
        floor = _ROUNDOFF * half[done] * (np.abs(fx[done]) @ _GK_WEIGHTS[:, 0])
        err += np.bincount(kept, np.maximum(diff[done], floor), ng)
        if done.all():
            return value, err
        a, b, mid, grp = a[~done], b[~done], mid[~done], grp[~done]
        bisections += np.bincount(grp, minlength=ng)
        if np.any(bisections > spec.max_subdivisions):
            k = int(np.argmax(bisections > spec.max_subdivisions))
            raise ConvergenceError(
                f"gauss_kronrod_panels: {bisections[k]} bisections exceed the budget of "
                f"{spec.max_subdivisions} on [{a0[grp0 == k].min()}, {b0[grp0 == k].max()}]")
        a, b, grp = np.concatenate([a, mid]), np.concatenate([mid, b]), np.concatenate([grp, grp])


# --------------------------------------------------------------------------
# The double-exponential rule (Takahasi-Mori) of quad_checked and tanh_sinh:
# nodes are offsets from the nearer end, so they never round onto an end at 0.
# --------------------------------------------------------------------------

def _de_map(u, a, b):
    """Nodes x(u) on (a, b) and dx/du: x = a + (b - a) s, or a + s/(1 - s) for
    b = inf, where s = (1 + tanh(pi/2 sinh u))/2 and min(s, 1 - s) = 1/(1 + e^{pi |sinh u|})."""
    sh = 0.5 * math.pi * np.sinh(u)
    near = 1.0 / (1.0 + np.exp(2.0 * np.abs(sh)))  # min(s, 1 - s)
    s, r = np.where(sh < 0.0, near, 1.0 - near), np.where(sh < 0.0, 1.0 - near, near)
    ds = math.pi * np.cosh(u) * s * r
    if math.isinf(b):
        return a + s / r, ds / r / r
    return np.where(sh < 0.0, a + (b - a) * s, b - (b - a) * r), (b - a) * ds


def _de_rule(name, f, a, b, spec):
    """int_a^b f for a vectorized ``f``, a finite and b finite or inf: (value, err).

    ``_de_map`` turns endpoint singularities and the infinite range into
    decay in u, taken on ``gauss_kronrod_panels`` over 0.5-wide panels of u in
    [-6, hi]: hi = 6, less where f overflows at the far end of [a, inf).  f is
    called once per pass, on the nodes inside (a, b), with numpy's overflow
    and invalid warnings off (an inf or NaN stops convergence); nodes that
    round onto an end are dropped.  Beyond the last node kept at each end, F =
    f dx/du is taken to decay at its log-slope over the panel inward, both
    read off the first pass: err adds that mass, and a mass above
    max(abs_tol, rel_tol |value|) raises ConvergenceError naming its end.
    """
    if not (math.isfinite(a) and a < b):
        raise ValueError(f"{name} needs finite a < b, got [{a}, {b}]")
    passes = []

    def mapped(u):  # F on the nodes kept, 0 on those dropped
        x, dx = _de_map(u, a, b)
        kept, out = (a < x) & (x < b), np.zeros(u.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            out[kept] = f(x[kept]) * dx[kept]
        passes.append(out[kept])
        return out

    hi = 6.0  # pulled in while f overflows there, as x^2 e^-x does at x ~ 1e275
    while math.isinf(b) and not np.isfinite(mapped(np.array([hi]))).all() and hi > 3.0:
        hi -= 0.5
    probes, lo = len(passes), np.arange(-6.0, hi, 0.5)  # the panels' left ends
    try:
        value, err = gauss_kronrod_panels(lambda u, g: mapped(u), np.stack([lo, lo + 0.5], 1),
                                          spec, np.zeros(lo.size, dtype=np.intp))
    except ConvergenceError as exc:
        msg = f"{name}: no convergence on [{a}, {b}] ({exc}, in the mapped u)"
        raise ConvergenceError(msg) from exc
    value, err, n = float(value[0]), float(err[0]), _GK_NODES.size
    first = passes[probes]  # F on the first pass's kept nodes, u ascending
    for end, F in ((a, first), (b, first[::-1])):
        # |F| at the last node kept and one panel (0.5 in u) inward; a missing node reads 0
        f0, f1 = np.abs(np.r_[F, np.zeros(n + 1)][[0, n]])
        rate = 2.0 * (math.log(f1) - math.log(f0)) if f0 > 0.0 and f1 > 0.0 else 0.0
        cut = f0 / rate if rate > 0.0 else 0.0 if f0 == 0.0 else math.inf
        if not cut <= max(spec.abs_tol, spec.rel_tol * abs(value)):
            raise ConvergenceError(f"{name}: an estimated {cut:.3e} on [{a}, {b}] is left out "
                                   f"at the end {end}, above the tolerance")
        err += cut
    return value, err


def quad_checked(f, a, b, spec: QuadratureSpec = DEFAULT_QUAD):
    """int_a^b f(x) dx by ``_de_rule`` for a scalar ``f``, called once a node with a float.

    No module of the package calls it; perfbench/tracing.py wraps it by name.

    NaN where f raises OverflowError.  An end raises as left out for a tail
    too slow for x up to ~1e275, a singularity at a nonzero end (place it at
    0) or a range narrower than ~1e-4 |a|.  err is no bound for an integrand
    that oscillates on [a, inf), whose far u-panels hold many periods.
    """
    def vectorized(x):
        try:
            return np.array([f(v) for v in x.tolist()], dtype=float)
        except OverflowError:  # as x ** k does at x ~ 1e275
            return np.full(x.shape, math.nan)

    return _de_rule("quad_checked", vectorized, a, b, spec)


def tanh_sinh(f, a: float, b: float, tol: float = 1e-12):
    """int_a^b f by ``_de_rule`` at abs_tol = rel_tol = ``tol``, for a vectorized ``f``.

    ``f`` gets one ndarray of abscissae strictly inside (a, b) per pass, and
    ConvergenceError is raised as there.  Integrable endpoint singularities
    are fine, but one at a nonzero end is resolved only to the rounding of
    ``end - offset`` (~1e-8 relative for an inverse-square-root blowup), so
    place singularities at 0.
    """
    return _de_rule("tanh_sinh", f, a, b, QuadratureSpec(tol, tol))[0]


# --------------------------------------------------------------------------
# Oscillatory semi-infinite tails, rotated onto the ray where they decay.
# --------------------------------------------------------------------------

_TAIL_EDGES = np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 50.0])
TAIL_PANELS = _TAIL_EDGES.size - 1
_TAIL_HALF = 0.5 * np.diff(_TAIL_EDGES)
_TAIL_X = (_TAIL_EDGES[:-1, None] + _TAIL_HALF[:, None] * (1.0 + _GK_NODES)).ravel()
TAIL_NODES = _TAIL_X.size


def oscillatory_tail(phi, omega, start):
    """int_start^inf e^{i omega y} phi(y) dy, phi analytic in a quarter plane.

    For phi analytic and decaying in {Re y >= start, Im y >= 0}, the path
    rotates onto y = start + i x/omega: (i e^{i omega start}/omega) times
    int_0^50 phi e^{-x} dx on ``TAIL_PANELS`` fixed G10/K21 panels (edges 0,
    1, 2, 4, ..., 32, 50).  err, over omega: per panel max(|K21 - G10|, 50 eps
    int |phi e^{-x}|), plus e^{-50} max|phi| for x > 50.  ``omega`` > 0 and
    ``start`` broadcast: for shape S, ``phi`` is called once, on complex y of
    shape S + (TAIL_NODES,); value and err have shape S (scalars for scalar
    input, ``phi`` then receiving a 1-d ndarray).  Returns (value, err).
    """
    omega, start = np.broadcast_arrays(np.asarray(omega, dtype=float),
                                       np.asarray(start, dtype=float))
    y = start[..., None] + 1j * _TAIL_X / omega[..., None]
    fx = phi(y)
    vals = (fx * np.exp(-_TAIL_X)).reshape(omega.shape + (TAIL_PANELS, -1))
    kron, gauss = np.moveaxis(_TAIL_HALF[:, None] * (vals @ _GK_WEIGHTS), -1, 0)
    floor = _ROUNDOFF * _TAIL_HALF * (np.abs(vals) @ _GK_WEIGHTS[:, 0])
    best = 1j * np.exp(1j * omega * start) * kron.sum(axis=-1) / omega
    err = (np.maximum(np.abs(kron - gauss), floor).sum(axis=-1)
           + math.exp(-_TAIL_EDGES[-1]) * np.abs(fx).max(axis=-1)) / omega
    if best.ndim == 0:
        return complex(best), float(err)
    return best, err
