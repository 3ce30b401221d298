import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kv

from hcmlab.densities import (DensitySpec, HcmProductForm, cdf_T_alpha,
                              density_sqrt_Z_one_third, density_sqrt_gamma_product,
                              density_T_alpha, eval_hcm_product_form,
                              mellin_gamma_mixture_ratio, mellin_T_alpha)
from hcmlab.monotone import ScanGrid, cm_check_by_differences
from hcmlab.quadrature import ConvergenceError
from tests_support_mellin import mellin_by_quadrature


class TestDensityT:
    def test_half_at_one(self):
        assert density_T_alpha(1.0, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_integrates_to_one(self, alpha):
        head, _ = quad(lambda x: density_T_alpha(x, alpha), 0.0, 1.0,
                       epsabs=1e-12, limit=200)
        tail, _ = quad(lambda u: density_T_alpha(math.exp(u), alpha) * math.exp(u),
                       0.0, 60.0, epsabs=1e-12, limit=200)
        assert head + tail == pytest.approx(1.0, abs=1e-9)

    def test_alpha_to_zero_limit(self):
        for x in (0.3, 1.0, 4.0):
            assert density_T_alpha(x, 1e-8) == pytest.approx(1.0 / (x + 1.0) ** 2, rel=1e-6)

    def test_reciprocal_symmetry(self):
        # g(x) = x^-2 g(1/x) is an algebraic identity of the density
        for alpha in (0.2, 0.5, 0.8):
            for x in (0.05, 0.7, 3.0, 40.0):
                lhs = density_T_alpha(x, alpha)
                rhs = density_T_alpha(1.0 / x, alpha) / (x * x)
                assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            density_T_alpha(-1.0, 0.5)
        with pytest.raises(ValueError):
            density_T_alpha(1.0, 1.5)


class TestCdfT:
    def test_half_at_one(self):
        assert cdf_T_alpha(1.0, 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_at_zero(self):
        for alpha in (0.2, 0.5, 0.8):
            assert cdf_T_alpha(0.0, alpha) == pytest.approx(0.0, abs=1e-14)

    def test_limit_one(self):
        assert cdf_T_alpha(1e6, 1.0 / 3.0) == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("alpha", [0.15, 0.5, 0.85])
    def test_derivative_is_density(self, alpha):
        h = 1e-5
        for x in np.geomspace(0.1, 10.0, 12):
            num = (cdf_T_alpha(x + h, alpha) - cdf_T_alpha(x - h, alpha)) / (2.0 * h)
            assert num == pytest.approx(density_T_alpha(x, alpha), abs=1e-8, rel=1e-8)


class TestMellinT:
    def test_at_zero(self):
        assert mellin_T_alpha(0.0, 0.3) == pytest.approx(1.0, rel=1e-14)

    def test_sqrt2_value(self):
        assert mellin_T_alpha(0.5, 0.5) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_sqrt2_by_quadrature(self):
        assert mellin_by_quadrature(0.5, 0.5) == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_symmetry_in_s(self):
        for alpha in (0.2, 0.45):
            for s in (0.1, 0.35, 0.8):
                assert mellin_T_alpha(s, alpha) == pytest.approx(
                    mellin_T_alpha(-s, alpha), rel=1e-13)

    def test_matches_quadrature(self):
        for alpha in (0.25, 0.5):
            for s in (-0.5, 0.3):
                assert mellin_T_alpha(s, alpha) == pytest.approx(
                    mellin_by_quadrature(s, alpha), abs=1e-9)

    def test_divergence_guard(self):
        with pytest.raises(ValueError):
            mellin_T_alpha(1.0, 0.3)

    def test_gamma_mixture_ratio_consistency(self):
        # ratio(s; alpha, t) * Gamma(t+s)/Gamma(t) == E[T^(s/t)]
        from hcmlab.specfun import log_gamma
        alpha, t, s = 0.3, 0.7, 0.2
        lhs = mellin_gamma_mixture_ratio(s, alpha, t)
        corr = np.exp(log_gamma(t + s) - log_gamma(t)).real
        assert lhs * corr == pytest.approx(mellin_T_alpha(s / t, alpha), rel=1e-12)


class TestSqrtGammaProduct:
    def test_integrates_to_one_unit_shapes(self):
        val, _ = quad(lambda x: density_sqrt_gamma_product(x, 1.0, 1.0), 0.0, 30.0,
                      epsabs=1e-11, limit=300)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_value_against_bessel(self):
        got = density_sqrt_gamma_product(1.0, 0.5, 0.5)
        assert got == pytest.approx(4.0 / math.pi * kv(0, 2.0), rel=1e-10)
        assert got == pytest.approx(4.0 / math.pi * 0.1138938727, rel=1e-8)

    def test_second_moment_unit_shapes(self):
        # E[gamma_1 gamma_1] = 1
        val, _ = quad(lambda x: x * x * density_sqrt_gamma_product(x, 1.0, 1.0),
                      0.0, 40.0, epsabs=1e-11, limit=300)
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("t,s", [(20.0, 1.0), (1.0, 20.0), (5.0, 0.2), (2.5, 1.0)])
    def test_tiny_x_against_mpmath(self, t, s):
        # x^(t+s-1) underflows or K_(t-s)(2x) overflows here; the density is ~2x/19 at (20, 1)
        x = np.geomspace(1e-300, 1e-10, 60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = density_sqrt_gamma_product(x, t, s)
        with mpmath.workdps(30):
            ref = [float(4 * mpmath.mpf(v) ** (t + s - 1) * mpmath.besselk(t - s, 2 * mpmath.mpf(v))
                         / (mpmath.gamma(t) * mpmath.gamma(s))) for v in x]
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            density_sqrt_gamma_product(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            density_sqrt_gamma_product(1.0, 0.0, 1.0)


class TestSqrtZOneThird:
    def test_integrates_to_one(self):
        head, _ = quad(lambda x: density_sqrt_Z_one_third(x), 0.0, 1.0,
                       epsabs=1e-11, limit=400)
        tail, _ = quad(lambda u: density_sqrt_Z_one_third(math.exp(u)) * math.exp(u),
                       0.0, 45.0, epsabs=1e-11, limit=400)
        assert head + tail == pytest.approx(1.0, abs=1e-8)

    def test_vanishes_at_origin(self):
        assert density_sqrt_Z_one_third(1e-4) < 1e-30

    def test_zero_where_x_squared_underflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert density_sqrt_Z_one_third(1e-155) == 0.0
            assert density_sqrt_Z_one_third(1e-300) == 0.0
            assert np.all(density_sqrt_Z_one_third(np.array([1e-155, 1e-300])) == 0.0)


class TestHcmProductForm:
    def test_prototype(self):
        form = HcmProductForm(c=1.0, a=0.0, factors=[(1.0, 1.0)])
        assert eval_hcm_product_form(form, 4.0) == pytest.approx(0.2)

    def test_squared_factor_limit_at_zero(self):
        form = HcmProductForm(c=1.0, a=0.0, factors=[(1.0, 2.0)])
        assert eval_hcm_product_form(form, 1e-12) == pytest.approx(1.0, rel=1e-10)

    def test_bare_power(self):
        form = HcmProductForm(c=2.0, a=1.0)
        assert eval_hcm_product_form(form, 3.0) == pytest.approx(6.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            HcmProductForm(c=-1.0, a=0.0)
        with pytest.raises(ValueError):
            HcmProductForm(c=1.0, a=0.0, factors=[(0.0, 1.0)])
        with pytest.raises(ValueError):
            eval_hcm_product_form(HcmProductForm(c=1.0, a=0.0), -2.0)

    @pytest.mark.parametrize("form", [
        HcmProductForm(c=1.0, a=0.0, factors=[(1.0, 1.0)]),
        HcmProductForm(c=2.0, a=-0.5, factors=[(0.5, 1.5), (3.0, 0.7)]),
    ])
    def test_product_forms_pass_hcm_battery(self, form):
        # f(uv) f(u/v) must be CM in w for these by construction
        for u in (0.5, 1.0, 2.0):
            def g_u(w):
                w = np.asarray(w, dtype=float)
                v = 0.5 * (w + np.sqrt(w * w - 4.0))
                return (eval_hcm_product_form(form, u * v)
                        * eval_hcm_product_form(form, u / v))
            verdict = cm_check_by_differences(g_u, ScanGrid(2.01, 100.0, 15), order=6)
            assert verdict.passed, verdict.detail


class TestDensitySpec:
    @pytest.mark.parametrize("spec", [
        DensitySpec("T_alpha", (0.3,)),
        DensitySpec("gamma", (0.5,)),
        DensitySpec("sqrt_gamma_product", (1.0, 1.0)),
        DensitySpec("sqrt_Z_one_third"),
        DensitySpec("f_family_normalized", (0.3, 0.75)),
    ])
    def test_mass_is_one(self, spec):
        assert spec.mass() == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("t", [0.501, 0.51, 0.55, 0.75, 2.0, 3.0])
    def test_f_family_normalization_closed_form(self, t):
        # int_0^inf dx / (x^2t + 2 cos(pi a) x^t + 1)
        #   = (pi/t) sin((1 - 1/t) pi a) / (sin(pi/t) sin(pi a)); f(1) = 1 / (2 + 2 cos(pi a))
        a = 0.3
        norm = (math.pi / t) * math.sin((1.0 - 1.0 / t) * math.pi * a) / (
            math.sin(math.pi / t) * math.sin(math.pi * a))
        got = DensitySpec("f_family_normalized", (a, t)).pdf(1.0)
        assert got == pytest.approx(1.0 / ((2.0 + 2.0 * math.cos(math.pi * a)) * norm), rel=1e-12)

    @pytest.mark.parametrize("a", [0.0, 0.3])
    def test_f_family_normalization_at_t1(self, a):
        # int_0^inf dx / (x^2 + 2 cos(phi) x + 1) = phi / sin(phi), phi = pi a (1 at a = 0)
        norm = math.pi * a / math.sin(math.pi * a) if a else 1.0
        got = DensitySpec("f_family_normalized", (a, 1.0)).pdf(1.0)
        assert got == pytest.approx(1.0 / ((2.0 + 2.0 * math.cos(math.pi * a)) * norm), rel=1e-14)

    def test_f_family_normalization_mpmath(self):
        # y = x^t: (1/t) int_0^inf y^(1/t - 1) / (y^2 + 2 cos(pi a) y + 1) dy
        a, t = 0.7, 0.8
        with mpmath.workdps(30):
            norm = mpmath.quad(lambda y: y ** (1 / mpmath.mpf(t) - 1)
                               / (y * y + 2 * mpmath.cospi(a) * y + 1), [0, 1, mpmath.inf]) / t
        got = DensitySpec("f_family_normalized", (a, t)).pdf(1.0)
        assert got == pytest.approx(1.0 / ((2.0 + 2.0 * math.cos(math.pi * a)) * float(norm)),
                                    rel=1e-13)

    @pytest.mark.parametrize("params", [(0.3, 0.5), (1.0, 0.75)])
    def test_f_family_infinite_mass(self, params):
        with pytest.raises(ValueError):
            DensitySpec("f_family_normalized", params).pdf(1.0)

    @pytest.mark.parametrize("t", [0.501, 0.51])
    def test_mass_with_tail_beyond_reach_raises(self, t):
        # the tail x^-2t left past x ~ 1e275 is 3e-6 (t = 0.51) to 28% (t = 0.501) of the mass
        with pytest.raises(ConvergenceError, match="left out"):
            DensitySpec("f_family_normalized", (0.3, t)).mass()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DensitySpec("cauchy", ())
