import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kv

from hcmlab.densities import (cdf_T_alpha, density_sqrt_Z_one_third,
                              density_sqrt_gamma_product, density_T_alpha, mellin_T_alpha)
from hcmlab.monotone import hcm_check
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
    @pytest.mark.parametrize("form", [
        (1.0, 0.0, ((1.0, 1.0),)),
        (2.0, -0.5, ((0.5, 1.5), (3.0, 0.7))),
    ])
    def test_product_forms_pass_hcm_battery(self, form):
        # c x^a prod (1 + c_i x)^(-b_i) is HCM by construction
        c, a, factors = form
        f = lambda x: c * x ** a * math.prod((1.0 + ci * x) ** -bi for ci, bi in factors)
        verdict = hcm_check(f)
        assert verdict.passed, verdict.detail
