"""Quadrature toolbox: tolerance spec, panel rules, oscillatory tails.

Three schemes that take a vectorized integrand, one numpy call per pass:
an adaptive Gauss-Kronrod panel rule (QUADPACK's G10/K21 pair, applied to
every active panel at once; the Bromwich head and the branch-cut integral
run on it), a tanh-sinh rule that tolerates integrable endpoint
singularities, and an accelerated half-period panel sum for semi-infinite
Fourier-type integrals with algebraic decay.  The panel rule and the tail
sum also take many integrals at once (panels tagged with a group index;
arrays of frequency and start), still with one integrand call per pass,
which is how the Bromwich and branch-cut routes invert a whole lam grid.
``quad_checked`` wraps scipy's QUADPACK for the scalar integrands
elsewhere in the package (the forward transform, density normalizations).
scipy is imported on the first ``quad_checked`` call, not with this
module, so ``import hcmlab`` and every path that never reaches QUADPACK
load numpy only.
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


def quad_checked(f, a, b, spec: QuadratureSpec = DEFAULT_QUAD):
    """scipy.integrate.quad under a QuadratureSpec; raises on failure.

    scipy.integrate is imported here, on the first call, so only the
    processes that reach QUADPACK pay for its import (most of a cold CLI
    start).  Returns (value, error_estimate).
    """
    from scipy.integrate import quad

    out = quad(f, a, b, limit=spec.max_subdivisions, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
               full_output=1)
    if len(out) > 3:
        raise ConvergenceError(f"quad did not converge on [{a}, {b}]: {out[3]}")
    return out[0], out[1]


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
# tanh-sinh on a finite interval.  Nodes are generated as offsets from the
# nearest endpoint (1 +- tanh(s) computed in stable form), so integrable
# endpoint singularities are handled without the abscissa ever rounding
# onto the endpoint.
# --------------------------------------------------------------------------

_TS_UMAX = 6.1  # beyond this the weights are ~e^-700


def tanh_sinh(f, a: float, b: float, tol: float = 1e-12):
    """Integrate a vectorized callable on (a, b) by the tanh-sinh rule.

    ``f`` receives an ndarray of abscissae strictly inside (a, b) and must
    return the integrand values; integrable endpoint singularities are
    fine.  The step is halved, at most ten times, until two refinements
    agree to ``tol`` (mixed absolute/relative).

    Abscissae are generated as offsets from the nearest endpoint, which is
    exact when that endpoint is 0; a singularity at a nonzero endpoint is
    resolved only to the rounding of ``endpoint - offset`` (~1e-8 relative
    for an inverse-square-root blowup), so place singularities at 0.
    """
    d = 0.5 * (b - a)
    total = 0.0
    prev = None
    for level in range(11):
        h = 0.5 ** level
        kmax = int(math.floor(_TS_UMAX / h))
        k = np.arange(-kmax, kmax + 1)
        if level > 0:
            k = k[k % 2 != 0]
        u = k * h
        sh = 0.5 * math.pi * np.sinh(u)
        w = (0.5 * math.pi * np.cosh(u)) / np.cosh(sh) ** 2
        off = 2.0 * d / (1.0 + np.exp(2.0 * np.abs(sh)))
        x = np.where(sh < 0, a + off, b - off)
        good = (x > a) & (x < b) & (w > 1e-290)
        s = float(np.sum(w[good] * f(x[good])))
        total = d * h * s if level == 0 else 0.5 * prev + d * h * s
        if prev is not None and abs(total - prev) <= tol * max(1.0, abs(total)):
            return total
        prev = total
    raise ConvergenceError("tanh_sinh: level budget exhausted")


# --------------------------------------------------------------------------
# Oscillatory semi-infinite tails: sum of half-period panels, iterated
# averaging of the partial sums (Euler-type acceleration of the
# alternating panel series).
# --------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
TAIL_PANELS = 48


def oscillatory_tail(phi, omega, start):
    """int_start^inf e^{i omega y} phi(y) dy for smooth, decaying phi.

    Sums ``TAIL_PANELS`` half-period panels of 16 Gauss-Legendre nodes.
    ``start`` must be a multiple of pi/omega so consecutive panels carry
    alternating phase.  ``omega`` and ``start`` broadcast: for arrays of
    shape S, ``phi`` is called once, on an ndarray of shape S + (16 TAIL_PANELS,)
    whose leading index follows omega and start, and the value and error
    come back with shape S.  With scalars ``phi`` receives a 1-d ndarray.
    Returns (value, error_estimate).
    """
    omega, start = np.broadcast_arrays(np.asarray(omega, dtype=float),
                                       np.asarray(start, dtype=float))
    w = (np.pi / omega)[..., None]
    edges = start[..., None] + w * np.arange(TAIL_PANELS + 1)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    ys = mid[..., None] + (0.5 * w[..., None]) * _GL_NODES
    flat = ys.reshape(omega.shape + (-1,))
    vals = phi(flat).reshape(ys.shape) * np.exp(1j * omega[..., None, None] * ys)
    panels = (0.5 * w) * (vals * _GL_WEIGHTS).sum(axis=-1)
    partial = np.cumsum(panels, axis=-1)
    best = partial[..., -1]
    err = np.abs(panels[..., -1])
    cur = partial
    while cur.shape[-1] >= 2:
        cur = 0.5 * (cur[..., 1:] + cur[..., :-1])
        est = cur[..., -1]
        err = np.abs(est - best)
        best = est
    if best.ndim == 0:
        return complex(best), float(err)
    return best, err
