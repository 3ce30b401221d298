import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import kv

import hcmlab.specfun
from hcmlab.specfun import (BESSEL_BLOCK, FamilyParams, bessel_k, f_family, f_family_prime,
                            p_alpha, pole_locations)


class TestFamilyParams:
    def test_eps(self):
        p = FamilyParams(0.2, 0.7)
        assert p.eps == pytest.approx(0.1)
        assert FamilyParams.from_eps(0.2, 0.1).t == pytest.approx(0.7)

    def test_eps_may_be_negative(self):
        assert FamilyParams(0.3, 0.9).eps == pytest.approx(-0.2)

    @pytest.mark.parametrize("alpha,t", [(-0.1, 0.5), (1.2, 0.5), (0.5, -1.0)])
    def test_validation(self, alpha, t):
        with pytest.raises(ValueError):
            FamilyParams(alpha, t)

    def test_nan_t_is_rejected(self):
        with pytest.raises(ValueError):
            FamilyParams(0.3, math.nan)

    @pytest.mark.parametrize("alpha", [1.0 - 1e-9, 1.0])
    def test_t_zero_is_rejected_where_f_is_one_over_zero(self, alpha):
        # f = 1/(2 + 2 cos pi alpha) at t = 0, and cos pi alpha rounds to -1 here
        with pytest.raises(ValueError, match="1/0"):
            FamilyParams(alpha, 0.0)
        assert FamilyParams(0.99999, 0.0).t == 0.0 and FamilyParams(alpha, 1e-3).t == 1e-3


class TestBesselK:
    def test_half_order_closed_form(self):
        # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
        for x in (0.3, 1.0, 7.5):
            exact = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
            assert bessel_k(0.5, x) == pytest.approx(exact, rel=1e-12)

    def test_k0_quadrature_oracle(self):
        # independent oracle: adaptive quadrature of the defining integral
        val, _ = quad(lambda y: math.exp(-math.cosh(y)), 0.0, 25.0,
                      epsabs=1e-14, epsrel=1e-13, limit=300)
        assert bessel_k(0.0, 1.0) == pytest.approx(val, rel=1e-11)
        assert bessel_k(0.0, 1.0) == pytest.approx(0.4210244382, abs=1e-10)

    def test_even_in_order(self):
        for nu in (1.0 / 3.0, 1.7, 5.0):
            for x in (0.01, 2.0, 30.0):
                a, b = bessel_k(nu, x), bessel_k(-nu, x)
                assert abs(a - b) <= 1e-12 * abs(a)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel_k(0.5, 0.0)
        with pytest.raises(ValueError):
            bessel_k(0.5, -1.0)

    def test_against_scipy_grid(self):
        for nu in (-5.0, -1.5, 0.0, 0.25, 1.0 / 3.0, 2.0, 5.0):
            for x in (1e-3, 0.05, 1.0, 10.0, 50.0):
                ref = kv(nu, x)
                assert bessel_k(nu, x) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("nu,x", [(0.3, math.nan), (math.nan, 1.0), (math.inf, 1.0),
                                      (0.3, np.array([1.0, 2.0, math.nan])),
                                      (0.3, np.array([[1.0, -2.0]])), (0.0, 1e-308)])
    def test_nan_and_bad_elements_raise(self, nu, x):
        with pytest.raises(ValueError):
            bessel_k(nu, x)

    def test_infinite_x_is_the_limit(self):
        assert bessel_k(0.3, math.inf) == 0.0
        got = bessel_k(0.3, np.array([math.inf, 1.0]))
        assert got[0] == 0.0 and got[1] == bessel_k(0.3, 1.0)

    def test_array_path_against_mpmath(self):
        # from the smallest nodes 2 xi^5 of the sqrt(gamma_1 gamma_1) CDF table up to 700
        mpmath = pytest.importorskip("mpmath")
        xi = np.linspace(0.0, 11.0 ** 0.2, 6001)[1:4]
        xs = np.concatenate([2.0 * xi ** 5, np.geomspace(1e-12, 700.0, 37)])
        for nu in (0.0, 1.0 / 6.0, 1.0 / 3.0, -1.0 / 3.0, 0.5, 2.0 / 3.0):
            got = bessel_k(nu, xs)
            with mpmath.workdps(30):
                ref = np.array([float(mpmath.besselk(nu, mpmath.mpf(x))) for x in xs])
            normal = ref >= np.finfo(float).tiny
            assert normal.sum() >= len(xs) - 1
            rel = np.abs(got - ref)[normal] / ref[normal]
            # Temme's series below 2, one trapezoid pass from 2
            bound = np.where(xs[normal] < 2.0, 1e-13, 2e-15)
            assert np.all(rel <= bound), (nu, rel.max())

    @pytest.mark.parametrize("nu", [0.0, 1.0 / 6.0, 1.0 / 3.0, 0.5, 1.0, 2.5, 5.0])
    def test_trapezoid_against_mpmath(self, nu):
        mpmath = pytest.importorskip("mpmath")
        xs = np.geomspace(2.0, 700.0, 41)
        got = bessel_k(nu, xs)
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.besselk(nu, mpmath.mpf(x))) for x in xs])
        assert np.all(np.abs(got - ref) <= 2e-15 * ref), (nu, np.max(np.abs(got / ref - 1.0)))

    @pytest.mark.parametrize("nu,x,ref", [(100.0, 2.0, 4.619415977601274e+155),
                                          (300.0, 300.0, 2.2981695359309458e-71),
                                          (1000.0, 400.0, 1.6439657245629032e+246),
                                          (1100.0, 700.0, 4.765343081218261e+21),
                                          (1000.0, 750.0, 6.3498015737830994e-68),
                                          (1100.0, 750.0, 1.5927924333631647e-18)])
    def test_large_orders_keep_their_range(self, nu, x, ref):
        # references from 30-digit mpmath; K e^x overflows or e^-x underflows
        # at most of these points, K itself does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(bessel_k(nu, x) - ref) <= 1e-12 * ref


_X = st.floats(-12.0, 2.8).map(lambda e: 10.0 ** e)


class TestBesselKArray:
    """An array x is one call of the same code; each value is the scalar call's."""

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-3.0, 3.0), st.lists(_X, min_size=1, max_size=12))
    def test_array_equals_scalar_calls(self, nu, xs):
        got = bessel_k(nu, np.array(xs))
        for x, gx in zip(xs, got):
            one = bessel_k(nu, x)
            assert isinstance(one, float)
            assert abs(gx - one) <= 1e-14 * abs(one)

    def test_shapes(self):
        assert isinstance(bessel_k(0.2, np.float64(1.5)), float)
        assert isinstance(bessel_k(0.2, np.array(1.5)), float)
        x = np.geomspace(0.1, 10.0, 6).reshape(2, 3)
        got = bessel_k(0.2, x)
        assert got.shape == (2, 3)
        assert np.array_equal(got.ravel(), bessel_k(0.2, x.ravel()))
        empty = bessel_k(0.2, np.zeros(0))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)

    @settings(max_examples=10, deadline=None)
    @given(st.floats(-1.0, 1.0), st.integers(BESSEL_BLOCK + 1, 3 * BESSEL_BLOCK),
           st.integers(1, 2 * BESSEL_BLOCK))
    def test_blocks_equal_pieces(self, nu, n, cut):
        x = np.geomspace(1e-10, 300.0, n)
        cut = min(cut, n - 1)
        whole = bessel_k(nu, x)
        assert np.array_equal(whole, np.concatenate([bessel_k(nu, x[:cut]),
                                                     bessel_k(nu, x[cut:])]))



class TestBesselKBoundedWork:
    """One trapezoid pass per block at a step set per point, and no trapezoid
    at all below x = 2: the work per point is bounded."""

    @pytest.mark.parametrize("nu", [0.0, 1.0 / 3.0, 0.5, 0.99, -0.99, 2.5])
    def test_tiny_x_against_mpmath(self, nu):
        mpmath = pytest.importorskip("mpmath")
        xs = np.geomspace(1e-300, 1e-18, 41)
        with np.errstate(over="ignore"):
            got = bessel_k(nu, xs)
        with mpmath.workdps(30):
            ref = [mpmath.besselk(nu, mpmath.mpf(x)) for x in xs]
        finite = [r < np.finfo(float).max for r in ref]
        assert sum(finite) >= 10
        for x, g, r, fin in zip(xs, got, ref, finite):
            if fin and r >= np.finfo(float).tiny:
                assert abs(g - float(r)) <= 1e-13 * float(r), (nu, x)
            elif not fin:
                assert g == math.inf, (nu, x)

    def test_block_of_tiny_x_is_small(self):
        x = np.full(256, 1e-280)
        tracemalloc.start()
        try:
            got = bessel_k(1.0 / 3.0, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20
        assert np.all(got == got[0]) and math.isfinite(got[0])

    @pytest.fixture
    def passes(self, monkeypatch):
        """The node counts (one per row) of every ``_node_sums`` pass."""
        seen = []
        original = hcmlab.specfun._node_sums

        def counting(nu, x, y0, dy, n):
            seen.append(n)
            return original(nu, x, y0, dy, n)

        monkeypatch.setattr(hcmlab.specfun, "_node_sums", counting)
        return seen

    @pytest.mark.parametrize("x", [1e-300, 1e-100, 1e-17, 1e-3, 1.0, 2.0, 10.0, 100.0, 700.0,
                                   1e100, 1e275, math.inf])
    def test_nodes_per_point_are_bounded(self, x, passes):
        # one pass of at most 60 nodes from x = 2, none below; before, a point
        # took up to 4 x 88 nodes over up to 12 levels
        bessel_k(1.0 / 3.0, x)
        if x < 2.0:
            assert passes == []
        else:
            assert len(passes) == 1 and passes[0].size == 1 and passes[0][0] <= 60

    def test_huge_order_is_refused_before_the_pass(self, passes):
        # K_1e5(x) overflows for every 2 <= x <= 745; its step would need ~1e5 nodes a point
        for x in (2.0, 745.0, np.full(BESSEL_BLOCK, 50.0)):
            with pytest.raises(ValueError, match="too large"):
                bessel_k(1e5, x)
        assert passes == []

    def test_overflow_is_inf_without_warning(self, passes):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bessel_k(2.5, 1e-200) == math.inf
            got = bessel_k(2.5, np.array([1e-200, 1.0, 1e-300]))
        assert got[0] == got[2] == math.inf
        assert got[1] == bessel_k(2.5, 1.0) and math.isfinite(got[1])
        # an overflowing tiny x is a series point: it makes no trapezoid pass
        passes.clear()
        bessel_k(2.5, np.full(4, 1e-200))
        assert passes == []

    def test_step_is_already_converged(self, monkeypatch):
        # the same rows at half the step move each value by <= 2e-15 relative
        rows = []
        original = hcmlab.specfun._node_sums
        monkeypatch.setattr(hcmlab.specfun, "_node_sums",
                            lambda *args: rows.append(args) or original(*args))
        x = np.geomspace(2.0, 700.0, 60)
        for nu in (0.0, 0.25, 1.0 / 3.0, 0.5, 1.0, 2.5, 5.0, -5.0):
            rows.clear()
            got = bessel_k(nu, x)
            nu_, xs, y0, h, n = rows[0]
            half = 0.5 * h * (original(nu_, xs, y0, 0.5 * h, 2 * n) - 0.5 * np.exp(-xs))
            assert np.all(np.abs(half - got) <= 2e-15 * got), (nu, np.max(np.abs(half / got - 1)))


class TestBesselKSeries:
    """Below x = 2, Temme's series: K_mu and K_mu+1 from a fixed number of terms,
    then upward recurrence; no trapezoid pass."""

    NUS = (0.0, 1e-4, 2e-3, 0.01, 0.03, 1.0 / 6.0, 1.0 / 3.0, 0.49999, 0.5, 0.50001,
           0.9, 1.5, 2.5)
    XS = np.concatenate([np.geomspace(1e-300, 1.9, 61), np.linspace(1.0, 1.99, 12),
                         [1.999, 1.9999999, 2.0 - 1e-12, np.nextafter(2.0, 0.0)]])

    @pytest.mark.parametrize("nu", NUS)
    def test_against_mpmath(self, nu, passes):
        mpmath = pytest.importorskip("mpmath")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bessel_k(nu, self.XS)
        assert passes == []
        with mpmath.workdps(30):
            ref = [mpmath.besselk(nu, mpmath.mpf(x)) for x in self.XS]
        checked = 0
        for x, g, r in zip(self.XS, got, ref):
            if r >= np.finfo(float).max:
                assert g == math.inf, (nu, x)
            elif r >= np.finfo(float).tiny:
                assert abs(g - float(r)) <= 1e-13 * float(r), (nu, x, g, r)
                checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("nu", [1.0 / 3.0, 0.49999, -0.49999, 0.7, 0.9])
    def test_tiny_x_keeps_the_power_to_an_ulp(self, nu):
        # (x/2)^-mu is one pow call and sinh(sigma) comes from it at |sigma| >= 1;
        # exp(mu log(2/x)) would carry the log's error times |mu log(2/x)| ~ 345
        mpmath = pytest.importorskip("mpmath")
        xs = np.geomspace(1e-300, 1e-100, 9)
        got = bessel_k(nu, xs)
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.besselk(nu, mpmath.mpf(x))) for x in xs])
        assert np.all(np.abs(got - ref) <= 2e-14 * ref), np.max(np.abs(got / ref - 1.0))

    @pytest.mark.parametrize("nu", NUS + (-0.3, 5.0))
    def test_agrees_across_two(self, nu):
        below, above = np.nextafter(2.0, 0.0), 2.0
        lo, hi = bessel_k(nu, np.array([below, above]))
        # K_nu is smooth: one ulp of x moves it by ~|K'/K| 4e-16 <= 2e-15 here
        assert abs(lo - hi) <= 3e-14 * hi

    def test_gammas_keep_their_digits_near_zero_order(self):
        # Gamma_1 = (1/Gamma(1-mu) - 1/Gamma(1+mu)) / 2 mu cancels as mu -> 0;
        # the series form keeps it to an ulp or so
        mpmath = pytest.importorskip("mpmath")
        for mu in (1e-12, 1e-6, 1e-3, 0.01, 0.2, -0.37, 0.4999):
            _, _, _, g1, g2, rgp, rgm, _ = hcmlab.specfun._temme_coefficients(mu)
            with mpmath.workdps(40):
                m = mpmath.mpf(mu)
                ref1 = (mpmath.rgamma(1 - m) - mpmath.rgamma(1 + m)) / (2 * m)
                ref2 = (mpmath.rgamma(1 - m) + mpmath.rgamma(1 + m)) / 2
            assert abs(g1 - float(ref1)) <= 4e-16 * abs(float(ref1)), mu
            assert abs(g2 - float(ref2)) <= 4e-16 * float(ref2), mu
            assert rgp == pytest.approx(float(mpmath.rgamma(1 + m)), rel=1e-15)
            assert rgm == pytest.approx(float(mpmath.rgamma(1 - m)), rel=1e-15)

    def test_huge_order_overflows_fast(self):
        # K grows with the order, so the recurrence stops once every point is inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(bessel_k(1e12, np.array([1e-3, 1.0, 1.99])) == math.inf)

    def test_coefficients_only_for_x_below_two(self, monkeypatch):
        built = []
        original = hcmlab.specfun._temme_coefficients
        monkeypatch.setattr(hcmlab.specfun, "_temme_coefficients",
                            lambda nu: built.append(nu) or original(nu))
        bessel_k(0.3, np.array([2.0, 5.0, 40.0]))
        assert built == []
        bessel_k(0.3, np.array([1.0, 5.0] * BESSEL_BLOCK))
        assert built == [0.3]

    def test_subnormal_x_is_refused(self):
        with pytest.raises(ValueError, match="subnormal"):
            bessel_k(0.3, np.array([1.0, 5e-309]))
        assert math.isfinite(bessel_k(0.0, 2.3e-308))

    @pytest.fixture
    def passes(self, monkeypatch):
        seen = []
        original = hcmlab.specfun._node_sums
        monkeypatch.setattr(hcmlab.specfun, "_node_sums",
                            lambda *args: seen.append(args[-1]) or original(*args))
        return seen


class TestPAlpha:
    def test_root(self):
        z = np.exp(1j * (1.0 - 1.0 / 3.0) * math.pi)
        assert abs(p_alpha(z, 1.0 / 3.0)) < 1e-14

    def test_at_zero(self):
        assert p_alpha(0.0, 0.77) == pytest.approx(1.0)

    def test_at_one_half_alpha(self):
        assert p_alpha(1.0, 0.5) == pytest.approx(2.0, abs=1e-15)


class TestFFamily:
    def test_prototype_value(self):
        assert f_family(4.0, FamilyParams(0.5, 0.5)) == pytest.approx(0.2)

    def test_one_third_value(self):
        # 1/(1 + 2 cos(pi/3) + 1) = 1/3
        assert f_family(1.0, FamilyParams(1.0 / 3.0, 2.0 / 3.0)) == pytest.approx(1.0 / 3.0)

    def test_alpha_zero_limit(self):
        p = FamilyParams(0.0, 1.0)
        for x in (0.2, 1.0, 9.0):
            assert f_family(x, p).real == pytest.approx(1.0 / (x + 1.0) ** 2, rel=1e-14)

    def test_pole_error(self):
        with pytest.raises(ZeroDivisionError):
            f_family(1j, FamilyParams(0.5, 1.0))

    def test_conjugate_symmetry(self):
        p = FamilyParams(0.27, 0.6)
        rng = np.random.default_rng(3)
        zs = rng.uniform(-5, 5, 40) + 1j * rng.uniform(1e-3, 5, 40)
        for z in zs:
            assert f_family(np.conj(z), p) == pytest.approx(np.conj(f_family(z, p)), rel=1e-13)

    @pytest.mark.parametrize("t", [0.3, 0.65, 1.0])
    def test_decay_rate_on_rays(self, t):
        p = FamilyParams(0.3, t)
        for theta in (0.0, 0.5 * math.pi, -0.5 * math.pi, 0.75 * math.pi, -0.75 * math.pi):
            for r in (1e3, 1e4):
                z = r * np.exp(1j * theta)
                ratio = abs(z) ** (2.0 * t) * abs(f_family(z, p))
                assert 0.5 <= ratio <= 2.0

    def test_limit_one_at_origin(self):
        p = FamilyParams(0.3, 0.6)
        for theta in (0.0, 0.9 * math.pi, -0.5 * math.pi):
            z = 1e-9 * np.exp(1j * theta)
            assert abs(f_family(z, p) - 1.0) < 1e-5

    def test_derivative_matches_finite_differences(self):
        p = FamilyParams(0.35, 0.55)
        for z in (0.7 + 0.4j, 2.0 + 1e-3j, -1.5 + 2.2j):
            h = 1e-6
            num = (f_family(z + h, p) - f_family(z - h, p)) / (2.0 * h)
            assert f_family_prime(z, p) == pytest.approx(num, rel=1e-7)

    def test_derivative_matches_two_power_formula(self):
        # f' forms z^{t-1} as z^t / z; the direct power z^{t-1} is the reference
        rng = np.random.default_rng(11)
        im = np.geomspace(1e-8, 1e6, 4000) * rng.choice([-1, 1], 4000)
        z = rng.uniform(0.05, 2.0, 4000) + 1j * im
        for alpha, t in ((0.3, 0.5), (0.3, 0.85), (0.1, 0.2), (0.5, 1.0), (0.45, 0.05)):
            p = FamilyParams(alpha, t)
            zt = z ** t
            q = zt * zt + 2.0 * p.cos_pi_alpha * zt + 1.0
            ref = -2.0 * t * z ** (t - 1.0) * (zt + p.cos_pi_alpha) / (q * q)
            np.testing.assert_allclose(f_family_prime(z, p), ref, rtol=1e-13, atol=0.0)


class TestPoleLocations:
    def test_no_poles_inside(self):
        assert pole_locations(FamilyParams(0.5, 0.5)) == []

    def test_boundary_is_pole_free(self):
        assert pole_locations(FamilyParams(1.0 / 3.0, 2.0 / 3.0)) == []

    def test_half_alpha_t_one(self):
        poles = pole_locations(FamilyParams(0.5, 1.0))
        got = sorted(poles, key=lambda z: z.imag)
        assert got[1] == pytest.approx(1j, abs=1e-12)
        assert got[0] == pytest.approx(-1j, abs=1e-12)

    def test_poles_annihilate_f(self):
        p = FamilyParams(0.3, 0.8)
        for z in pole_locations(p):
            # approach the pole: |f| blows up
            assert abs(f_family(z * (1.0 + 1e-6), p)) > 1e4

    @settings(max_examples=400, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 4.0))
    def test_every_pole_listed_once_principal_first(self, alpha, t):
        try:
            p = FamilyParams(alpha, t)
        except ValueError:  # t = 0 where cos pi alpha rounds to -1: f = 1/0
            reject()
        poles = pole_locations(p)
        assert (poles == []) == (t <= 1.0 - alpha)
        assert len(set(poles)) == len(poles)
        for z in poles:
            assert z.imag != 0.0 or z.real > 0.0  # |arg z| < pi: off the cut
            zt = complex(np.asarray(z) ** t)
            assert abs(p_alpha(zt, alpha)) <= 1e-12 * (1.0 + abs(zt)) ** 2
            assert min(abs(w - z.conjugate()) for w in poles) <= 1e-15
        if poles:
            assert poles[0].imag >= 0.0
            assert all(poles[0].real >= z.real for z in poles)

    def test_poles_that_round_together_are_listed_once(self):
        # m = 1 - alpha and 1 + alpha give the same double-precision pole at alpha = 1e-16
        poles = pole_locations(FamilyParams(1e-16, 1.5))
        assert poles == pole_locations(FamilyParams(0.0, 1.5)) and len(poles) == 2

    def test_four_poles_past_one_plus_alpha(self):
        # 1 + alpha < t: the second pair m = 1 + alpha joins the principal one
        poles = pole_locations(FamilyParams(0.3, 1.5))
        expect = [math.pi * m / 1.5 for m in (0.7, -0.7, 1.3, -1.3)]
        assert len(poles) == 4
        for z, theta in zip(poles, expect):
            assert z == pytest.approx(complex(math.cos(theta), math.sin(theta)), abs=1e-15)

    def test_huge_t_is_refused(self):
        # about t poles: t = inf (or 1e9) would build an endless (or 1e9-long) list
        for t in (2e4, math.inf):
            with pytest.raises(ValueError, match="above 1e4"):
                pole_locations(FamilyParams(0.3, t))

    def test_alpha_zero_has_no_duplicate_poles(self):
        # m = 2k +- 1 hits each odd integer twice; s^3 = -1 lists e^{+-i pi/3} only
        poles = pole_locations(FamilyParams(0.0, 3.0))
        assert poles == pytest.approx([complex(0.5, math.sqrt(3.0) / 2.0),
                                       complex(0.5, -math.sqrt(3.0) / 2.0)], abs=1e-15)
