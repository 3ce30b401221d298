import contextlib
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hcmlab.laplace
import hcmlab.monotone
from hcmlab.monotone import (ScanGrid, Verdict, cm_check_by_differences,
                             cm_check_by_inversion, estimate_critical_t, hcm_check,
                             hcm_check_family, hcm_product_rewrite)
from hcmlab.laplace import branch_cut_invert
from hcmlab.cli import main
from hcmlab.specfun import FamilyParams, f_family


def f_real(p):
    return lambda x: np.asarray(f_family(np.asarray(x, dtype=complex), p)).real


class TestVerdictAndGrid:
    def test_fail_needs_witness(self):
        with pytest.raises(ValueError):
            Verdict("FAIL", 1e-9)

    def test_status_checked(self):
        with pytest.raises(ValueError):
            Verdict("MAYBE", 1e-9)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ScanGrid(2.0, 1.0, 10)
        with pytest.raises(ValueError):
            ScanGrid(-1.0, 1.0, 10, "geometric")
        with pytest.raises(ValueError):
            ScanGrid(0.1, 1.0, 1)
        assert len(ScanGrid(-1.0, 1.0, 5, "linear").points()) == 5


class TestCmByInversion:
    def test_cm_region_pass(self):
        v = cm_check_by_inversion(FamilyParams(0.3, 0.65))
        assert v.passed, v.detail

    def test_t_one_fails_with_first_trough_witness(self):
        alpha = 0.3
        b = math.sin(math.pi * alpha)
        v = cm_check_by_inversion(FamilyParams(alpha, 1.0),
                                  ScanGrid(0.1, 3.0 * math.pi / b, 80), tol=1e-10)
        assert v.failed
        lam_w, g_w = v.witness
        # witness sits in the first negative lobe, at the damped minimum
        assert math.pi / b < lam_w < 2.0 * math.pi / b
        assert abs(lam_w - math.pi * (1.0 + alpha) / b) <= 0.05 * math.pi * (1.0 + alpha) / b
        assert g_w < 0

    def test_prototype_pass(self):
        v = cm_check_by_inversion(FamilyParams(0.5, 0.5))
        assert v.passed

    @pytest.mark.parametrize("lam_max", [700.0, 1000.0, 3000.0])
    def test_unresolved_large_lambda_is_inconclusive(self, lam_max):
        # pole-free, hence CM; past lam ~ 600 the e^{lam c} factor leaves g
        # inside its own error estimate: no certified negative, and at 3000
        # the noise inflates ||g|| so far that g >= -thr alone would PASS
        v = cm_check_by_inversion(FamilyParams(0.3, 0.5), ScanGrid(0.05, lam_max, 40))
        assert v.status == "INCONCLUSIVE", v.detail

    def test_pass_carries_minimum(self):
        v = cm_check_by_inversion(FamilyParams(0.5, 0.5))
        lam, g = v.witness
        assert g >= -1e-10

    @pytest.mark.parametrize("t", [0.65, 1.0])
    def test_default_grid_makes_one_prime_call_per_pass(self, monkeypatch, t):
        # the 40 lam are batched: one f' call per adaptive pass plus one for the tails
        calls = []
        prime = hcmlab.laplace.f_family_prime
        monkeypatch.setattr(hcmlab.laplace, "f_family_prime",
                            lambda z, p, log_z=None: calls.append(z.size) or prime(z, p, log_z))
        cm_check_by_inversion(FamilyParams(0.3, t))
        assert 0 < len(calls) <= 16

    def test_default_grid_prime_points(self, monkeypatch):
        # 40 rotated tails of 147 nodes plus the heads: ~17,200 points per check
        points = []
        prime = hcmlab.laplace.f_family_prime
        monkeypatch.setattr(hcmlab.laplace, "f_family_prime",
                            lambda z, p, log_z=None: points.append(z.size) or prime(z, p, log_z))
        for t in (0.65, 1.0):
            points.clear()
            cm_check_by_inversion(FamilyParams(0.3, t))
            assert sum(points) <= 20_000, t

    def test_refined_grid_peak_memory(self):
        grid = ScanGrid(0.05, 50.0, 160)
        cm_check_by_inversion(FamilyParams(0.3, 0.65), grid)  # imports and caches out of the count
        tracemalloc.start()
        try:
            for t in (0.65, 0.8, 1.0):
                cm_check_by_inversion(FamilyParams(0.3, t), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e6


class TestCmByDifferences:
    def test_exponential_passes(self):
        v = cm_check_by_differences(lambda x: np.exp(-x), order=8)
        assert v.passed

    def test_family_t1_fails(self):
        v = cm_check_by_differences(f_real(FamilyParams(0.3, 1.0)), order=8)
        assert v.failed
        x, val = v.witness
        assert val < -1e-9

    def test_kanter_function_passes(self):
        alpha = 0.4
        p = FamilyParams(alpha, 1.0 - alpha)
        f = f_real(p)
        v = cm_check_by_differences(lambda x: np.asarray(x) ** (-alpha) * f(x), order=8)
        assert v.passed, v.detail

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    def test_scale_invariance_of_verdicts(self, sigma):
        for p, expect_fail in ((FamilyParams(0.3, 1.0), True), (FamilyParams(0.3, 0.6), False)):
            f = f_real(p)
            v = cm_check_by_differences(lambda x: f(sigma * np.asarray(x)), order=8)
            assert v.failed == expect_fail, (p, v.detail)


class TestCheckerConsistency:
    def test_certified_fail_direction(self):
        # a certified difference FAIL must be confirmed by inversion; the
        # converse does not hold (inversion sees deeper than order-8 stencils)
        for alpha in (0.1, 0.3, 0.5):
            for t in np.arange(0.3, 1.01, 0.1):
                p = FamilyParams(alpha, float(t))
                d = cm_check_by_differences(f_real(p), order=8)
                if d.failed:
                    i = cm_check_by_inversion(p, ScanGrid(0.05, 60.0, 50))
                    assert i.failed, (alpha, t, i.detail)


class TestSignChangeLemma:
    def test_branch_cut_kernel_passes(self):
        # the lemma's conclusion for the kernel: every e^{-lam x}-weighted integral
        # -pi g(lam) is <= 0 (its single sign change and zero total: test_laplace)
        assert np.all(branch_cut_invert(np.geomspace(1e-2, 1e2, 9), FamilyParams(0.2, 0.7)) >= 0)


class TestHcmCheck:
    def test_prototype_passes(self):
        v = hcm_check(lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float)))
        assert v.passed, v.detail

    def test_family_inside_region_passes(self):
        v = hcm_check_family(FamilyParams(0.2, 0.75))
        assert v.passed, v.detail

    def test_family_beyond_t_fails_via_pole(self):
        p = FamilyParams(0.2, 0.9)
        v = hcm_check_family(p)
        assert v.failed
        (re, im), _ = v.witness
        theta = (1.0 - p.alpha) * math.pi / p.t
        assert re == pytest.approx(math.cos(theta), abs=1e-12)
        assert abs(im) == pytest.approx(math.sin(theta), abs=1e-12)

    @pytest.mark.parametrize("alpha,t", [(0.3, 1.5), (0.0, 3.0)])
    def test_family_pole_witness_is_principal_pole(self, alpha, t):
        v = hcm_check_family(FamilyParams(alpha, t))
        assert v.failed and "poles" in v.detail
        theta = (1.0 - alpha) * math.pi / t
        assert v.witness == (pytest.approx((math.cos(theta), math.sin(theta)), abs=1e-15), 0.0)

    def test_family_alpha_above_half_fails(self):
        v = hcm_check_family(FamilyParams(0.6, 0.3))
        assert v.failed
        assert "increasing" in v.detail or "CM-in-w" in v.detail

    def test_battery_detects_alpha_above_half(self):
        # the pure battery also certifies this regime, at larger magnitude
        v = hcm_check(f_real(FamilyParams(0.6, 0.3)))
        assert v.failed

    def test_w_grid_guard(self):
        with pytest.raises(ValueError):
            hcm_check(lambda x: 1.0 / (1.0 + x), w_grid=ScanGrid(1.5, 100.0, 10))

    @pytest.mark.parametrize("a,b", [(0.5, 0.7), (-0.25, -0.8), (1.0, 0.4)])
    def test_power_transform_preserves_battery(self, a, b):
        # x^a f(x^b) stays HCM for |b| <= 1 when f is; battery agrees
        def g(x):
            x = np.asarray(x, dtype=float)
            return x ** a / (1.0 + x ** b)
        v = hcm_check(g, u_grid=ScanGrid(1e-2, 1.0, 7),
                      w_grid=ScanGrid(2.01, 80.0, 12), order=6)
        assert v.passed, v.detail

    def test_u_reciprocal_symmetry(self):
        # f(uv) f(u/v) at 1/u equals u^{4t} times the value at u
        p = FamilyParams(0.3, 0.6)
        f = f_real(p)
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = rng.uniform(0.05, 1.0)
            w = rng.uniform(2.05, 50.0)
            v = 0.5 * (w + math.sqrt(w * w - 4.0))
            g_u = f(u * v) * f(u / v)
            g_inv = f(v / u) * f(1.0 / (u * v))
            assert g_inv == pytest.approx(u ** (4.0 * p.t) * g_u, rel=1e-12)


class TestHcmProductRewrite:
    def test_identity_with_direct_product(self):
        p = FamilyParams(0.2, 0.5)
        u, w = 1.3, 2.5
        v = 0.5 * (w + math.sqrt(w * w - 4.0))
        f = f_real(p)
        direct = float(f(u * v) * f(u / v))
        assert hcm_product_rewrite(p, u, w) == pytest.approx(direct, rel=1e-12)

    def test_unit_v(self):
        p = FamilyParams(0.37, 0.44)
        f1 = f_family(1.0, p).real
        assert hcm_product_rewrite(p, 1.0, 2.0) == pytest.approx(f1 * f1, rel=1e-12)

    def test_broadcast_matches_scalar_calls_and_direct_product(self):
        p = FamilyParams(0.3, 0.6)
        u, w = np.array([[0.01], [0.4], [1.3]]), np.array([2.0, 2.5, 7.0, 150.0])
        got = hcm_product_rewrite(p, u, w)
        assert got.shape == (3, 4)
        v = 0.5 * (w + np.sqrt(w * w - 4.0))
        f = f_real(p)
        np.testing.assert_allclose(got, f(u * v) * f(u / v), rtol=1e-12)
        for i, j in np.ndindex(got.shape):
            scalar = hcm_product_rewrite(p, float(u[i, 0]), float(w[j]))
            assert type(scalar) is float and scalar == pytest.approx(got[i, j], rel=1e-15)

    @pytest.mark.parametrize("u,w", [(1.0, math.nan), (math.nan, 2.5), (1.0, math.inf),
                                     (math.inf, 2.5), (0.0, 2.5), (1.0, 1.999),
                                     (np.array([0.5, -1.0]), 3.0),
                                     (np.array([0.5, 1.0]), np.array([3.0, math.nan]))])
    def test_rejects_bad_or_non_finite_input(self, u, w):
        with pytest.raises(ValueError, match="finite u > 0 and w >= 2"):
            hcm_product_rewrite(FamilyParams(0.2, 0.5), u, w)

    def test_overflowing_terms_give_zero_not_nan(self):
        # s = u^t = 1e200: s^4 and c s^3 w_t overflow to inf - inf for c < 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hcm_product_rewrite(FamilyParams(0.7, 2.0), 1e100, 3.0) == 0.0
            u = np.array([[0.5], [math.sqrt(2e77)], [1e100]])
            got = hcm_product_rewrite(FamilyParams(0.7, 2.0), u, np.array([2.0, 3.0]))
        assert np.all(np.isfinite(got))
        first = hcm_product_rewrite(FamilyParams(0.7, 2.0), u[:1], np.array([2.0, 3.0]))
        assert np.array_equal(got[:1], first)
        # f(uv) f(u/v) ~ s^-4 = (2e77)^-4, a subnormal: D(s) = s^4 D(1/s) keeps it
        assert got[1] == pytest.approx(2e77 ** -2 * 2e77 ** -2, rel=1e-6)
        assert np.all(got[2] == 0.0)

    def test_alpha_half_reduction(self):
        # c = 2 cos(pi/2) = 0 kills the cross term
        p = FamilyParams(0.5, 0.3)
        u, w = 0.7, 3.0
        v = 0.5 * (w + math.sqrt(w * w - 4.0))
        ut = u ** p.t
        w2t = v ** (2 * p.t) + v ** (-2 * p.t)
        assert hcm_product_rewrite(p, u, w) == pytest.approx(
            1.0 / (ut ** 4 + 1.0 + ut ** 2 * w2t), rel=1e-12)


class TestCriticalT:
    def test_alpha_half_bracket(self):
        t_lo, t_hi = estimate_critical_t(0.5, bisect_tol=0.02)
        assert 0.5 - 1e-9 <= t_lo < t_hi <= 1.0
        assert t_hi - t_lo <= 0.02 + 1e-12

    def test_alpha_03_starts_passing(self):
        t_lo, t_hi = estimate_critical_t(0.3, bisect_tol=0.05)
        assert t_lo >= 0.7 - 1e-9
        assert t_hi <= 1.0

    def test_nested_under_halving(self):
        a, b = estimate_critical_t(0.4, bisect_tol=0.04)
        a2, b2 = estimate_critical_t(0.4, bisect_tol=0.02)
        assert a - 1e-12 <= a2 and b2 <= b + 1e-12

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            estimate_critical_t(0.7)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_bisect_tol_must_be_positive(self, tol):
        probes = []
        with pytest.raises(ValueError, match="bisect_tol must be positive"):
            estimate_critical_t(0.3, tol, on_probe=lambda t, v: probes.append(t))
        assert probes == []

    def test_tol_below_float_spacing_ends_at_adjacent_floats(self):
        grid = ScanGrid(0.05, 50.0, 10)
        lo, hi = estimate_critical_t(0.3, 1e-17, grid)
        assert hi == np.nextafter(lo, 2)
        a, b = estimate_critical_t(0.3, 1e-3, grid)
        assert a <= lo < hi <= b


# --------------------------------------------------------------------------
# The difference battery as a loop over u and steps: the reference that the
# batched battery must reproduce bit for bit.
# --------------------------------------------------------------------------

def _loop_battery_min(f, xs, order, rel_steps):
    worst = math.inf
    arg = None
    js = np.arange(order + 1)
    for hrel in rel_steps:
        stencil = xs[:, None] * (1.0 + hrel * js[None, :])
        vals = f(stencil.ravel()).reshape(stencil.shape)
        scale = np.maximum(np.max(np.abs(vals), axis=1), 1e-300)
        d = vals
        for k in range(1, order + 1):
            d = d[:, :-1] - d[:, 1:]
            norm = d[:, 0] / scale
            i = int(np.argmin(norm))
            if norm[i] < worst:
                worst = float(norm[i])
                arg = (float(xs[i]), float(hrel), k)
    return worst, arg


def _loop_cm_check_by_differences(f, grid=None, order=8, steps=(0.05, 0.2, 1.0), tol=1e-9):
    if grid is None:
        grid = ScanGrid(0.01, 20.0, 40)
    worst, arg = _loop_battery_min(f, grid.points(), order, steps)
    if worst >= -tol:
        return Verdict("PASS", tol, detail=(
            f"min normalized difference {worst:.3e} over {grid}, order <= {order}, "
            f"steps {tuple(steps)}; evidence, not proof"))
    x, hrel, k = arg
    return Verdict("FAIL", tol, witness=(x, worst),
                   detail=f"(-1)^k Delta^k f < 0 at x = {x:.6g}, h = {hrel:.3g} x, k = {k}")


def _loop_hcm_min(f, u_grid, w_grid, order, steps):
    ws = w_grid.points()
    worst = math.inf
    warg = None
    for u in u_grid.points():
        def g_u(w):
            v = 0.5 * (w + np.sqrt(w * w - 4.0))
            return f(u * v) * f(u / v)
        m, arg = _loop_battery_min(g_u, ws, order, steps)
        if m < worst:
            worst = m
            warg = (float(u), arg)
    return worst, warg


def _loop_hcm_check(f, u_grid=None, w_grid=None, order=8, steps=(0.05, 0.2, 1.0), tol=1e-9):
    u_grid = u_grid or ScanGrid(1e-4, 1.0, 17)
    w_grid = w_grid or ScanGrid(2.01, 200.0, 25)
    worst, warg = _loop_hcm_min(f, u_grid, w_grid, order, steps)
    if worst >= -tol:
        return Verdict("PASS", tol, detail=(
            f"min normalized w-difference {worst:.3e} over u in {u_grid}, w in {w_grid}, "
            f"order <= {order}; evidence, not proof"))
    u, (w, hrel, k) = warg
    return Verdict("FAIL", tol, witness=((u, w), worst),
                   detail=f"CM-in-w violated at u = {u:.6g}, w = {w:.6g}, h = {hrel:.3g} w, k = {k}")


@st.composite
def _pole_free_family(draw):
    """(alpha, t) with 0 < t <= 1 - alpha: no poles, either side of alpha = 1/2."""
    alpha = draw(st.floats(0.0, 0.95))
    return FamilyParams(alpha, (1.0 - alpha) * draw(st.floats(0.02, 1.0)))


def _power_ratio(x):
    x = np.asarray(x, dtype=float)
    return x ** 0.5 / (1.0 + x ** 0.7)


_BLACK_BOXES = {
    "prototype": lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float)),
    "exponential": lambda x: np.exp(-np.asarray(x)),
    "power_ratio": _power_ratio,
    "kanter": lambda x: np.asarray(x) ** (-0.4) * f_real(FamilyParams(0.4, 0.6))(x),
    "family_t1": f_real(FamilyParams(0.3, 1.0)),
    "alpha_above_half": f_real(FamilyParams(0.6, 0.3)),
}


def _same(a, b):
    return (a.status, a.witness, a.detail) == (b.status, b.witness, b.detail)


class TestBatchedBatteryMatchesLoop:
    @settings(max_examples=25, deadline=None)
    @given(_pole_free_family())
    def test_hcm_check_family_evaluator(self, p):
        f = f_real(p)
        assert _same(hcm_check(f), _loop_hcm_check(f))

    @settings(max_examples=25, deadline=None)
    @given(_pole_free_family())
    def test_cm_check_by_differences_family(self, p):
        f = f_real(p)
        assert _same(cm_check_by_differences(f), _loop_cm_check_by_differences(f))

    @pytest.mark.parametrize("name", sorted(_BLACK_BOXES))
    def test_black_boxes(self, name):
        f = _BLACK_BOXES[name]
        assert _same(hcm_check(f), _loop_hcm_check(f))
        small = (ScanGrid(1e-2, 1.0, 7), ScanGrid(2.01, 80.0, 12))
        assert _same(hcm_check(f, *small, order=6), _loop_hcm_check(f, *small, order=6))
        assert _same(cm_check_by_differences(f), _loop_cm_check_by_differences(f))

    def test_u_blocks_match_loop(self, monkeypatch):
        # a block of 2 u splits the 17 u into 9 calls; the verdict stays the
        # loop's, also when the witness u (0.01 at t = 1) sits in a later block
        monkeypatch.setattr(hcmlab.monotone, "BATTERY_BLOCK", 2 * 3 * 25 * 9)
        for p in (FamilyParams(0.3, 0.6), FamilyParams(0.6, 0.3), FamilyParams(0.3, 1.0)):
            calls = []
            f = f_real(p)
            v = hcm_check(lambda x: calls.append(x.size) or f(x))
            assert len(calls) == 9
            assert _same(v, _loop_hcm_check(f))

    @pytest.mark.parametrize("block", [hcmlab.monotone.BATTERY_BLOCK, 3 * 25 * 9])
    def test_ties_break_in_loop_order(self, monkeypatch, block):
        # f constant: every difference is 0, so the loop keeps the first entry
        monkeypatch.setattr(hcmlab.monotone, "BATTERY_BLOCK", block)
        f = lambda x: np.ones_like(np.asarray(x, dtype=float))
        assert _same(hcm_check(f, tol=-1.0), _loop_hcm_check(f, tol=-1.0))
        assert _same(cm_check_by_differences(f, tol=-1.0), _loop_cm_check_by_differences(f, tol=-1.0))

    def test_nan_values_never_certify(self):
        # f undefined past x = 10: the NaN differences are skipped, not reported
        f = lambda x: np.where(np.asarray(x) > 10.0, np.nan, np.exp(-np.asarray(x)))
        for v in (cm_check_by_differences(f), hcm_check(f)):
            assert v.passed and v.witness is None, v.detail



class TestBatteryCalls:
    def test_default_hcm_check_calls_f_once(self):
        calls = []
        f = f_real(FamilyParams(0.3, 0.6))
        hcm_check(lambda x: calls.append((x.ndim, x.dtype, x.size)) or f(x))
        assert calls == [(1, np.float64, 2 * 17 * 3 * 25 * 9)]

    def test_cm_check_by_differences_calls_f_once(self):
        calls = []
        cm_check_by_differences(lambda x: calls.append((x.ndim, x.dtype, x.size)) or np.exp(-x))
        assert calls == [(1, np.float64, 3 * 40 * 9)]

    def test_large_battery_peak_memory(self):
        # the CLI's --u-n 400 --w-n 400: 4.3e6 w-stencil points, several hundred
        # MB if stacked at once; blocks keep the peak to a few MB
        f = f_real(FamilyParams(0.3, 0.6))
        hcm_check(f, ScanGrid(1e-4, 1.0, 3), ScanGrid(2.01, 200.0, 5))
        tracemalloc.start()
        try:
            v = hcm_check(f, ScanGrid(1e-4, 1.0, 400), ScanGrid(2.01, 200.0, 400))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.passed, v.detail
        assert peak <= 16e6


    def test_family_battery_peak_memory(self):
        # the closed-form table goes in the same blocks as the black-box battery
        grids = ScanGrid(1e-4, 1.0, 400), ScanGrid(2.01, 200.0, 400)
        hcm_check_family(FamilyParams(0.3, 0.6), ScanGrid(1e-4, 1.0, 3), ScanGrid(2.01, 200.0, 5))
        tracemalloc.start()
        try:
            v = hcm_check_family(FamilyParams(0.3, 0.6), *grids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.passed, v.detail
        assert peak <= 16e6

    def test_family_table_is_one_rewrite_call_per_block(self, monkeypatch):
        # the default 17 u are one block; a block of 2 u splits them into 9 calls
        shapes = []
        rewrite = hcmlab.monotone.hcm_product_rewrite
        monkeypatch.setattr(hcmlab.monotone, "hcm_product_rewrite", lambda p, u, w: shapes.append(
            np.broadcast_shapes(u.shape, w.shape)) or rewrite(p, u, w))
        ps = (FamilyParams(0.3, 0.6), FamilyParams(0.45, 0.13))
        whole = [hcm_check_family(p) for p in ps]
        assert shapes == [(9, 17, 3, 25)] * 2
        shapes.clear()
        monkeypatch.setattr(hcmlab.monotone, "BATTERY_BLOCK", 2 * 3 * 25 * 9)
        assert all(_same(hcm_check_family(p), v) for p, v in zip(ps, whole))
        assert shapes == ([(9, 2, 3, 25)] * 8 + [(9, 1, 3, 25)]) * 2


def _family_battery_min(monkeypatch, p):
    """The battery minimum over hcm_check_family's closed-form table, and its verdict."""
    seen = []
    battery_min = hcmlab.monotone._diff_battery_min

    def spy(vals):
        seen.append(battery_min(vals))
        return seen[-1]

    monkeypatch.setattr(hcmlab.monotone, "_diff_battery_min", spy)
    v = hcm_check_family(p)
    return min(m for m, _ in seen), v


class TestRealEvaluator:
    """The family battery's closed-form table against the complex direct path."""

    @pytest.mark.parametrize("alpha,t", [(0.1, 0.25), (0.3, 0.5), (0.4, 0.6), (0.5, 0.5),
                                         (0.2, 0.8), (0.45, 0.13)])
    def test_battery_minimum_matches_complex_path(self, monkeypatch, alpha, t):
        p = FamilyParams(alpha, t)
        m_closed, _ = _family_battery_min(monkeypatch, p)
        grids = (ScanGrid(1e-4, 1.0, 17), ScanGrid(2.01, 200.0, 25), 8, (0.05, 0.2, 1.0))
        m_complex, _ = _loop_hcm_min(f_real(p), *grids)
        assert abs(m_closed - m_complex) <= 1e-13

    def test_statuses_match_complex_path_on_c04_grid(self):
        for alpha in (0.1, 0.2, 0.3, 0.4, 0.5):
            for t in (0.25, 0.5, round(1.0 - alpha, 2)):
                p = FamilyParams(alpha, t)
                assert hcm_check_family(p).status == hcm_check(f_real(p)).status == "PASS", (alpha, t)
        for alpha, t in ((0.55, 0.3), (0.6, 0.3), (0.7, 0.3)):
            # these fail before the battery; the closed-form and complex batteries still agree
            p = FamilyParams(alpha, t)
            closed = hcmlab.monotone._hcm_battery(lambda u, w: hcm_product_rewrite(p, u, w),
                                                  None, None, 8, 1e-9)
            assert closed.status == hcm_check(f_real(p)).status, (alpha, t)


class TestIncreaseAtZero:
    @pytest.mark.parametrize("alpha,t", [(0.51, 0.1), (0.55, 0.1), (0.52, 0.2), (0.5001, 0.01),
                                         (0.6, 0.3)])
    def test_alpha_above_half_fails_with_exact_witness(self, alpha, t):
        with np.errstate(all="raise"):
            v = hcm_check_family(FamilyParams(alpha, t))
        assert v.failed and "increasing" in v.detail
        y, rise = v.witness
        c, s = math.cos(math.pi * alpha), math.sin(math.pi * alpha)
        assert y == pytest.approx(-c, rel=1e-15)
        assert rise == pytest.approx(c * c / (s * s), rel=1e-13)
        assert rise > 1e-10  # computed directly, not as f - 1
        # f at x^t = y, from the witness: 1/sin^2, a rise above f(0+) = 1
        assert 1.0 / (y * y + 2.0 * c * y + 1.0) - 1.0 == pytest.approx(rise, rel=1e-6)

    def test_cli_exits_one_above_half(self, capsys):
        assert main(["hcm-check", "--alpha", "0.51", "--t", "0.1"]) == 1
        assert "increasing" in capsys.readouterr().out

    def test_t_zero_is_constant(self):
        # x^0 = 1: f is the constant 1/(2 + 2 cos pi alpha), which is HCM; near
        # alpha = 1 the battery's product form cancelled to 1/0 and read PASS on inf
        for alpha in (0.3, 0.7, 0.99999, 1.0 - 1e-8):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                v = hcm_check_family(FamilyParams(alpha, 0.0))
            const = 0.5 / (1.0 + math.cos(math.pi * alpha))
            assert v.passed and v.witness is None, alpha
            assert "constant" in v.detail and f"{const:.6g}" in v.detail and "inf" not in v.detail


@st.composite
def _off_boundary_family(draw):
    """(alpha, t) in [0, 1] x (0, 3], at least 1e-3 from alpha = 1/2 and from t = 1 - alpha."""
    alpha = draw(st.floats(0.0, 1.0))
    t = draw(st.floats(0.0, 3.0, exclude_min=True))
    assume(abs(alpha - 0.5) >= 1e-3 and abs(t - (1.0 - alpha)) >= 1e-3)
    return alpha, t


def _theorem_says_hcm(alpha, t):
    return alpha <= 0.5 and t <= 1.0 - alpha


class TestTheorem:
    @settings(max_examples=100, deadline=None)
    @given(_off_boundary_family())
    def test_family_verdict_passes_iff_in_hcm_region(self, at):
        v = hcm_check_family(FamilyParams(*at))
        assert v.passed == _theorem_says_hcm(*at), v.detail
        assert v.status != "INCONCLUSIVE"

    @settings(max_examples=15, deadline=None)
    @given(_off_boundary_family())
    def test_cli_exit_code_follows_theorem(self, at):
        alpha, t = at
        assume(0.0 < alpha < 1.0)  # the CLI's domain for --alpha
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["hcm-check", "--alpha", repr(alpha), "--t", repr(t)])
        assert code == (0 if _theorem_says_hcm(alpha, t) else 1), out.getvalue()
        assert "Traceback" not in err.getvalue() + out.getvalue()
