"""Quadrature toolbox: tolerance spec, panel rules, oscillatory tails.

Three schemes that take a vectorized integrand, one numpy call per pass:
an adaptive Gauss-Kronrod panel rule (QUADPACK's G10/K21 pair, applied to
every active panel at once; the Bromwich head and the branch-cut integral
run on it), a tanh-sinh rule that tolerates integrable endpoint
singularities, and a tail rule for semi-infinite Fourier-type integrals,
rotated onto the ray where the oscillation decays (147 fixed G10/K21 nodes).
Both also take many integrals at once (panels tagged with a group index;
arrays of frequency and start), still with one integrand call per pass,
which is how the Bromwich and branch-cut routes invert a whole lam grid.
``quad_checked`` maps the scalar integrands elsewhere in the package onto
the panel rule by a double-exponential change of variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureSpec", "ConvergenceError", "gauss_kronrod_panels", "tanh_sinh",
           "oscillatory_tail", "quad_checked"]


class ConvergenceError(RuntimeError):
    """An adaptive scheme exhausted its subdivision or level budget."""


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


def gauss_kronrod_panels(f, edges, spec: QuadratureSpec = DEFAULT_QUAD, group=None):
    """Integrate a real, vectorized ``f`` over the panels between ``edges``.

    Each pass calls ``f`` once, on a 1-d ndarray holding the 21 Kronrod
    nodes of every active panel.  A panel is retired when |K21 - G10| is
    within its length share (among the active panels) of the budget
    max(abs_tol, rel_tol |I|) less what the retired panels used, and is
    bisected otherwise; a share of the whole length would ask for less
    than roundoff wherever a long range has its structure in one corner.
    Each retired panel adds max(|K21 - G10|, 50 eps int |f|) to the error
    estimate: QUADPACK's roundoff floor, but not its (200 delta)^1.5
    rescaling, so the estimate is conservative.  Raises ConvergenceError
    once the bisections exceed ``spec.max_subdivisions``; the initial
    panels are not counted.

    Returns (value, error_estimate).

    Several integrals at once: ``edges`` is then an (n, 2) array of panel
    ends [a, b] and ``group`` names, for each panel, the integral 0..G-1 it
    belongs to.  Every pass still makes one call, ``f(x, g)``, with ``g``
    the integral of each node, and the retire rule, the budget and the
    bisection count are kept per integral, so each value is the one the
    integral would get alone.  Returns two length-G arrays (value, err).
    """
    if group is None:
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0.0):
            raise ValueError("edges must be strictly increasing, at least two of them")
        value, err = gauss_kronrod_panels(lambda x, g: f(x), np.stack([edges[:-1], edges[1:]], 1),
                                          spec, np.zeros(edges.size - 1, dtype=np.intp))
        return float(value[0]), float(err[0])
    a0, b0 = np.asarray(edges, dtype=float).T
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
# Double-exponential rules (Takahasi-Mori), quad_checked and tanh-sinh: nodes
# are offsets from the nearer end, so they never round onto an end at 0.
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


def quad_checked(f, a, b, spec: QuadratureSpec = DEFAULT_QUAD):
    """int_a^b f(x) dx for a scalar ``f``, a finite and b finite or inf.

    ``_de_map`` turns endpoint singularities and the infinite range into
    decay in u, taken on ``gauss_kronrod_panels`` over 0.5-wide panels of u in
    [-6, hi]: hi = 6, less where f overflows at the far end of [a, inf).  f is
    called once per node inside (a, b); nodes that round onto a nonzero end
    are dropped.  The mapped integrand |F| at the last node kept at each end
    stands for what is left out: err adds it, and above max(abs_tol, rel_tol
    |value|) it raises ConvergenceError, as for a tail too slow for x up to
    ~1e275, a singularity at a nonzero end (place it at 0) or a range narrower
    than ~1e-4 |a|.  err is no bound for an integrand that oscillates on
    [a, inf), whose far u-panels hold many periods.  Returns (value, err).
    """
    if not (math.isfinite(a) and a < b):
        raise ValueError(f"quad_checked needs finite a < b, got [{a}, {b}]")

    def mapped(u):  # NaN where f overflows
        x, dx = _de_map(u, a, b)
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # x * x overflows at x ~ 1e275
                return np.array([f(v) if a < v < b else 0.0 for v in x.tolist()], dtype=float) * dx
        except OverflowError:
            return np.full(x.shape, math.nan)

    end = lambda u: abs(float(mapped(np.array([u]))[0]))  # |F(u)|
    # |u| <= 6 of the last node kept at each end c: its offset span e^{-pi sinh|u|} >= ulp(c)
    span = b - a if math.isfinite(b) else 1.0
    lo, top = (min(6.0, math.asinh(max(math.log(span) - math.log(math.ulp(c)), 0.0) / math.pi))
               for c in (a, b if math.isfinite(b) else 0.0))
    hi = 6.0  # pulled in while f overflows there, as x^2 e^-x does at x ~ 1e275
    while not math.isfinite(end(hi)) and hi > 3.0:
        hi -= 0.5
    try:
        value, err = gauss_kronrod_panels(mapped, np.arange(-6.0, hi + 0.25, 0.5), spec)
    except ConvergenceError as exc:
        msg = f"quad_checked: no convergence on [{a}, {b}] ({exc}, in the mapped u)"
        raise ConvergenceError(msg) from exc
    cut = end(-lo) + end(min(hi, top))
    if not cut <= max(spec.abs_tol, spec.rel_tol * abs(value)):
        raise ConvergenceError(f"quad_checked: the mapped integrand is {cut:.3e} at the ends "
                               f"of [{a}, {b}] left out, above the tolerance")
    return value, err + cut


_TS_UMAX = 6.1  # beyond this the weights are ~e^-700


def tanh_sinh(f, a: float, b: float, tol: float = 1e-12):
    """Integrate a vectorized callable on (a, b) by the tanh-sinh rule.

    ``f`` receives an ndarray of abscissae strictly inside (a, b) and must
    return the integrand values; integrable endpoint singularities are
    fine.  The step is halved, at most ten times, until two refinements
    agree to ``tol`` (mixed absolute/relative).  A singularity at a nonzero
    end is resolved only to the rounding of ``end - offset`` (~1e-8 relative
    for an inverse-square-root blowup), so place singularities at 0.
    """
    prev = None
    for level in range(11):
        h = 0.5 ** level
        kmax = int(math.floor(_TS_UMAX / h))
        k = np.arange(-kmax, kmax + 1)
        if level > 0:
            k = k[k % 2 != 0]
        x, w = _de_map(k * h, a, b)
        good = (x > a) & (x < b) & (w > 1e-290)
        s = float(np.sum(w[good] * f(x[good])))
        total = h * s if level == 0 else 0.5 * prev + h * s
        if prev is not None and abs(total - prev) <= tol * max(1.0, abs(total)):
            return total
        prev = total
    raise ConvergenceError("tanh_sinh: level budget exhausted")


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
