import math

import numpy as np
import pytest

import hcmlab.laplace
from hcmlab.monotone import (ScanGrid, SignChangeError, Verdict,
                             cm_check_by_differences, cm_check_by_inversion,
                             estimate_critical_t, hcm_check, hcm_check_family,
                             hcm_product_rewrite, sign_change_lemma_check)
from hcmlab.laplace import branch_cut_kernel
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
                            lambda z, p: calls.append(z.size) or prime(z, p))
        cm_check_by_inversion(FamilyParams(0.3, t))
        assert 0 < len(calls) <= 16


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
        p = FamilyParams(0.2, 0.7)
        v = sign_change_lemma_check(lambda x: branch_cut_kernel(x, p), (1e-2, 1e2))
        assert v.passed, v.detail

    def test_shifted_exponential(self):
        # h(x) = (x-1) e^{-x}: total integral 0; weighted ones are
        # -lam/(1+lam)^2 <= 0 (elementary antiderivative oracle)
        v = sign_change_lemma_check(lambda x: (x - 1.0) * math.exp(-x), (0.1, 10.0))
        assert v.passed, v.detail
        for lam in (0.5, 2.0):
            from scipy.integrate import quad
            got, _ = quad(lambda x: (x - 1.0) * math.exp(-(1.0 + lam) * x), 0.0, 60.0)
            assert got == pytest.approx(-lam / (1.0 + lam) ** 2, abs=1e-12)

    def test_two_sign_changes_rejected(self):
        h = lambda x: math.sin(x) if x < 3.0 * math.pi else 0.0
        with pytest.raises(SignChangeError):
            sign_change_lemma_check(h, (0.5, 20.0))


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
