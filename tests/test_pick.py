import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import hcmlab.pick
from hcmlab.monotone import ScanGrid
from hcmlab.pick import (DEFAULT_SCAN, HalfPlaneScan, figure2_data, ggc_pick_scan,
                         h_negative_axis, h_value, stieltjes_probe, write_figure2_csv)
from hcmlab.laplace import branch_cut_kernel
from hcmlab.monotone import cm_check_by_inversion, hcm_check_family
from hcmlab.specfun import FamilyParams, f_family, p_alpha

P_FIG2 = FamilyParams.from_eps(0.2, 0.1)  # alpha = 1/5, eps = 1/10


class TestHValue:
    def test_matches_log_derivative(self):
        z = 1.0 + 1.0j
        h = 1e-7
        fp = (f_family(z + h, P_FIG2) - f_family(z - h, P_FIG2)) / (2.0 * h)
        ref = (fp / f_family(z, P_FIG2)).imag
        assert h_value(z, P_FIG2) == pytest.approx(ref, abs=1e-8)

    def test_decay_at_infinity(self):
        for re in (1e4, -1e4):
            assert abs(h_value(re + 1j, P_FIG2)) < 1e-3

    def test_vanishes_towards_positive_axis(self):
        assert abs(h_value(2.0 + 1e-6j, P_FIG2)) < 1e-4

    def test_requires_upper_half_plane(self):
        with pytest.raises(ValueError):
            h_value(1.0 - 1e-9j, P_FIG2)

    def test_harmonicity_five_point(self):
        d = 1e-3
        for z0 in (0.5 + 0.8j, -1.2 + 0.5j, 2.0 + 2.0j):
            center = h_value(z0, P_FIG2)
            ring = [h_value(z0 + d, P_FIG2), h_value(z0 - d, P_FIG2),
                    h_value(z0 + 1j * d, P_FIG2), h_value(z0 - 1j * d, P_FIG2)]
            scale = max(abs(v) for v in ring + [center])
            assert abs(sum(ring) - 4.0 * center) <= 1e-4 * max(scale, 1e-12)


    @pytest.mark.parametrize("alpha,t", [(0.9999999999999999, 5.551115123125783e-17),
                                         (0.9999999999, 1e-13)])
    def test_cos_near_minus_one_at_tiny_t(self, alpha, t):
        # z^t + cos(pi a) and the denominator cancel where z^t ~ 1 and cos(pi a) ~ -1; the
        # scan's lines held -inf and values off by 2e12, now h matches 50-digit mpmath
        p = FamilyParams(alpha, t)
        re = np.linspace(*DEFAULT_SCAN.re_range, DEFAULT_SCAN.n_per_level)
        z = (re + 1j * np.asarray(DEFAULT_SCAN.im_levels)[:, None]).ravel()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = ggc_pick_scan(p)
            hs = h_value(z, p)
        (x, y), m = v.witness
        assert v.failed and math.isfinite(x) and math.isfinite(y) and -math.inf < m < 0.0
        assert np.all(np.isfinite(hs))
        k = np.r_[np.argmin(hs), np.arange(0, z.size, 199)]
        with mpmath.workdps(50):
            c, tm = mpmath.cos(mpmath.pi * mpmath.mpf(alpha)), mpmath.mpf(t)

            def h_ref(zk):
                zk = mpmath.mpc(zk.real, zk.imag)
                zt = mpmath.exp(tm * mpmath.log(zk))
                return float(-2 * tm * mpmath.im(zt / zk * (zt + c) / (zt * zt + 2 * c * zt + 1)))

            ref = np.array([h_ref(zk) for zk in z[k]])
        assert np.all(np.abs(hs[k] - ref) <= 1e-12 * np.abs(ref).max())
        assert hs[k[0]] == pytest.approx(ref[0], rel=1e-12)


class TestHNegativeAxis:
    def test_nonnegative_on_wide_grid(self):
        for p in (P_FIG2, FamilyParams.from_eps(0.3, 0.05)):
            rho = np.geomspace(1e-4, 1e4, 300)
            assert np.all(h_negative_axis(rho, p) >= 0.0)

    def test_boundary_limit_of_h(self):
        for rho in np.geomspace(1e-3, 1e3, 13):
            x = rho ** (1.0 / P_FIG2.t)
            near = h_value(x * np.exp(1j * (math.pi - 1e-9)), P_FIG2)
            assert near == pytest.approx(h_negative_axis(rho, P_FIG2), abs=1e-6)

    def test_bracket_minimum_location_and_value(self):
        # the quadratic bracket is minimized at rho* = cos(phi)/cos(pi a)
        # with value 1 - (rho*)^2 > 0
        p = P_FIG2
        phi = (p.alpha + p.eps) * math.pi
        c = p.cos_pi_alpha
        rstar = math.cos(phi) / c
        rho = np.linspace(rstar - 0.2, rstar + 0.2, 4001)
        d = rho[:, None] ** 2 * np.exp(2j * math.pi * p.t) \
            + 2.0 * c * rho[:, None] * np.exp(1j * math.pi * p.t) + 1.0
        amp = (2.0 * p.t * rho ** (-(p.alpha + p.eps) / p.t) / np.abs(d[:, 0]) ** 2)
        bracket = h_negative_axis(rho, p) / (amp * c * math.sin(phi))
        i = int(np.argmin(bracket))
        assert rho[i] == pytest.approx(rstar, abs=1e-3)
        assert bracket[i] == pytest.approx(1.0 - rstar ** 2, abs=1e-6)
        assert 1.0 - rstar ** 2 > 0.0

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            h_negative_axis(1.0, FamilyParams(0.2, 0.9))  # eps < 0: poles
        with pytest.raises(ValueError):
            h_negative_axis(1.0, FamilyParams(0.2, 0.0))  # t = 0: f is constant

    def test_boundary_limit_second_parameters(self):
        p = FamilyParams.from_eps(0.35, 0.08)
        for rho in (1e-2, 0.7, 1.0, 1.4, 50.0):
            x = rho ** (1.0 / p.t)
            near = h_value(x * np.exp(1j * (math.pi - 1e-9)), p)
            assert near == pytest.approx(h_negative_axis(rho, p), abs=1e-6)


class TestGgcPickScan:
    def test_scan_validation(self):
        with pytest.raises(ValueError):
            HalfPlaneScan(im_levels=(0.0, 1.0))
        with pytest.raises(ValueError):
            HalfPlaneScan(re_range=(5.0, -5.0))
        with pytest.raises(ValueError):
            HalfPlaneScan(im_levels=())

    @pytest.mark.parametrize("alpha,t", [(0.2, 0.7), (0.4, 0.55), (0.1, 0.85), (0.3, 0.0)])
    def test_one_call_scan_matches_level_loop(self, monkeypatch, alpha, t):
        # reference: one h call per level, z^(t-1) as a power, strict < across levels
        p, scan = FamilyParams(alpha, t), HalfPlaneScan(n_per_level=501)
        re = np.linspace(*scan.re_range, scan.n_per_level)
        m, marg = math.inf, None
        for level in scan.im_levels:
            z = re + 1j * level
            zt = z ** t
            hs = -2.0 * t * np.imag(z ** (t - 1.0) * (zt + p.cos_pi_alpha) / p_alpha(zt, alpha))
            i = int(np.argmin(hs))
            if hs[i] < m:
                m, marg = float(hs[i]), (float(re[i]), float(level))
        # the negative axis (closed form here) usually holds the minimum: hide it
        calls = []
        monkeypatch.setattr(hcmlab.pick, "h_negative_axis", lambda rho, p: np.full(rho.shape, np.inf))
        monkeypatch.setattr(hcmlab.pick, "h_value", lambda z, p: calls.append(z.shape) or h_value(z, p))
        loc, got = ggc_pick_scan(p, scan).witness
        assert calls == [(4, 501)]
        assert loc == marg
        assert got == pytest.approx(m, rel=0, abs=1e-14 * max(1.0, abs(m)))

    def test_ties_break_to_the_first_level(self, monkeypatch):
        # equal minima on levels 0 and 2: the level loop kept the first level's
        def h_ties(z, p):
            hs = np.zeros(z.shape)
            hs[0, 5] = hs[2, 1] = -1.0
            return hs
        monkeypatch.setattr(hcmlab.pick, "h_negative_axis", lambda rho, p: np.full(rho.shape, np.inf))
        monkeypatch.setattr(hcmlab.pick, "h_value", h_ties)
        scan = HalfPlaneScan(re_range=(0.0, 10.0), n_per_level=11)
        assert ggc_pick_scan(FamilyParams(0.2, 0.7), scan).witness == ((5.0, 0.01), -1.0)

    def test_fig2_parameters_pass(self):
        v = ggc_pick_scan(P_FIG2)
        assert v.passed
        _, m_hat = v.witness
        assert m_hat >= -1e-6

    def test_poles_fail_with_witness(self):
        p = FamilyParams(0.3, 0.8)
        v = ggc_pick_scan(p)
        assert v.failed
        (re, im), _ = v.witness
        theta = 0.7 * math.pi / 0.8
        assert re == pytest.approx(math.cos(theta), abs=1e-10)
        assert im == pytest.approx(math.sin(theta), abs=1e-10)

    @pytest.mark.parametrize("alpha,t", [(0.3, 1.5), (0.0, 3.0)])
    def test_pole_witness_is_principal_pole(self, alpha, t):
        v = ggc_pick_scan(FamilyParams(alpha, t))
        assert v.failed and "poles" in v.detail
        theta = (1.0 - alpha) * math.pi / t
        assert v.witness == (pytest.approx((math.cos(theta), math.sin(theta)), abs=1e-15), 0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 0.99999, 1.0 - 1e-8])
    def test_t_zero_is_constant_pass(self, alpha):
        # f is constant at t = 0, so h vanishes everywhere, the cut included
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = ggc_pick_scan(FamilyParams(alpha, 0.0))
        assert v.passed
        _, m_hat = v.witness
        assert m_hat == 0.0

    def test_alpha_above_half_fails_by_negative_h(self):
        v = ggc_pick_scan(FamilyParams(0.6, 0.3))
        assert v.failed
        _, m = v.witness
        assert m < -1e-6

    def test_near_boundary_pass(self):
        v = ggc_pick_scan(FamilyParams.from_eps(0.49, 0.005))
        assert v.passed
        _, m_hat = v.witness
        assert -1e-6 <= m_hat < 1e-2

    @pytest.mark.parametrize("alpha,t", [(0.6, 0.3), (0.3, 0.65), (0.5, 0.4), (0.9, 0.05),
                                         (0.45, 0.5), (0.0, 0.9), (0.2, 0.02)])
    def test_cut_closed_form_matches_h_just_above_the_cut(self, alpha, t):
        # the closed form on the cut against h at arg z = pi - 1e-8
        p = FamilyParams(alpha, t)
        rho = np.geomspace(1e-2, 1e2, 41)
        near = h_value(rho ** (1.0 / t) * np.exp(1j * (math.pi - 1e-8)), p)
        got = h_negative_axis(rho, p)
        assert np.all(np.abs(got - near) <= 1e-6 * np.maximum(1.0, np.abs(near)))

    @pytest.mark.parametrize("alpha,t", [(0.3, 0.012), (0.3, 0.005), (0.3, 1e-4), (0.5, 0.005),
                                         (0.5, 1e-4), (0.7, 0.012), (0.7, 0.005), (0.7, 1e-4),
                                         (0.51, 1e-3)])
    def test_small_t_has_a_finite_witness(self, alpha, t):
        # x = rho^(1/t) overflows below t ~ 0.013; the sign is still decided on
        # rho in [1e-4, 1e4], where h < 0 below the bracket's small root for
        # alpha > 1/2 (0.33 at alpha = 0.7), and only the witness is clamped
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = ggc_pick_scan(FamilyParams(alpha, t))
        (re, im), m_hat = v.witness
        assert math.isfinite(re) and math.isfinite(im) and math.isfinite(m_hat)
        assert v.status == ("FAIL" if alpha > 0.5 else "PASS")

    def test_negative_axis_form_keeps_its_grid(self, monkeypatch):
        # alpha + eps < 1/2 still scans h_negative_axis on rho in [1e-4, 1e4]
        seen = []
        original = hcmlab.pick.h_negative_axis
        monkeypatch.setattr(hcmlab.pick, "h_negative_axis",
                            lambda rho, p: seen.append(rho) or original(rho, p))
        assert ggc_pick_scan(P_FIG2).passed
        (rho,) = seen
        assert np.array_equal(rho, np.geomspace(1e-4, 1e4, 400))

    @pytest.mark.parametrize("alpha,t", [(0.50002, 0.3), (0.5000001, 0.45), (0.6, 0.4)])
    def test_alpha_above_half_fails_by_the_cut_sign(self, alpha, t):
        # at (0.50002, 0.3) both roots of the cut's bracket lie off rho in [1e-4, 1e4]
        # (r = 5.3e-5), where the scan read PASS; rho = r/2 holds h ~ -7e5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = ggc_pick_scan(FamilyParams(alpha, t))
        (re, im), m = v.witness
        assert v.failed and m < 0.0 and re < 0.0 and im == 0.0
        assert "has the sign of cos(pi a) (rho^2 + 1) + 2 rho cos(pi t)" in v.detail

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.floats(0.0, 1.0), st.floats(0.4999, 0.5001)), st.floats(0.0, 1.0))
    def test_pick_status_is_hcm_status(self, alpha, frac):
        # Bondesson: GGC iff the Laplace transform is HCM, so the two verdicts agree
        try:
            p = FamilyParams(alpha, (1.0 - alpha) * frac)  # pole-free: t <= 1 - alpha
        except ValueError:  # t = 0 where cos pi alpha rounds to -1: f = 1/0
            reject()
        assert ggc_pick_scan(p).status == hcm_check_family(p).status

    def test_ggc_implies_cm(self):
        p = FamilyParams.from_eps(0.25, 0.1)
        assert ggc_pick_scan(p).passed
        assert cm_check_by_inversion(p).passed


class TestFigure2:
    def test_lines_nonnegative(self):
        grid = ScanGrid(-50.0, 50.0, 1000, "linear")
        for level in (1.0, 0.1):
            table = figure2_data(P_FIG2, level, grid)
            assert table.shape == (1000, 2)
            assert np.all(table[:, 1] >= -1e-9)

    def test_csv_roundtrip(self, tmp_path):
        grid = ScanGrid(-5.0, 5.0, 11, "linear")
        table = figure2_data(P_FIG2, 1.0, grid)
        path = write_figure2_csv(tmp_path / "fig2.csv", table)
        lines = open(path).read().splitlines()
        assert lines[0] == "re,h"
        back = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.allclose(back, table, rtol=1e-14)

    def test_level_guard(self):
        with pytest.raises(ValueError):
            figure2_data(P_FIG2, 0.0, ScanGrid(-1.0, 1.0, 5, "linear"))


class TestStieltjesProbe:
    @pytest.mark.parametrize("alpha,status", [(0.2, "FAIL"), (0.3, "FAIL"), (0.45, "FAIL"),
                                              (0.5, "PASS")])
    def test_pole_on_the_cut_is_skipped(self, alpha, status):
        # at t = 1 - alpha, x = 1 is a pole of f: that grid point never decides
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = stieltjes_probe(alpha, ScanGrid(0.5, 1.5, 3, "linear"))
        assert v.status == status
        assert v.witness[0] != 1.0 and math.isfinite(v.witness[1])

    def test_alpha_03_not_stieltjes(self):
        v = stieltjes_probe(0.3)
        assert v.failed
        x, val = v.witness
        assert val < 0

    def test_alpha_half_is_stieltjes(self):
        # f = 1/(1+x) is the Stieltjes transform of a point mass
        v = stieltjes_probe(0.5)
        assert v.passed

    def test_eps_sequence_stability(self):
        # oracle: -Im f(-x + i eps)/pi, eps -> 0+, tends to the density the probe
        # reads: at its witness and on x away from the pole at x = 1
        for alpha in (0.1, 0.3, 0.45, 0.5):
            p = FamilyParams(alpha, 1.0 - alpha)
            x_w, v_w = stieltjes_probe(alpha).witness
            xs = np.concatenate([np.geomspace(1e-2, 0.5, 9), np.geomspace(2.0, 1e2, 9), [x_w]])
            exact = -branch_cut_kernel(xs, p) / math.pi
            assert exact[-1] == v_w
            gaps = [np.abs(-np.imag(f_family(-xs + 1j * eps, p)) / math.pi - exact)
                    for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
            for coarse, fine in zip(gaps, gaps[1:]):
                assert np.all(fine <= coarse + 1e-15)
            assert np.all(gaps[-1] <= 1e-2 * gaps[0] + 1e-15)  # O(eps): 1000x smaller eps
            assert np.all(gaps[-1] <= 1e-2 * np.maximum(1.0, np.abs(exact)))
