import contextlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hcmlab.laplace
from hcmlab.laplace import (MAX_HEAD_PANELS, InversionResult, branch_cut_invert,
                            branch_cut_kernel, bromwich_invert, closed_form_inverse_t1,
                            default_abscissa, invert_grid, kernel_sign_change,
                            kernel_total_integral)
from hcmlab.monotone import DEFAULT_LAMBDA_GRID, ScanGrid, cm_check_by_inversion
from hcmlab.quadrature import (TAIL_PANELS, ConvergenceError, QuadratureSpec, oscillatory_tail,
                               quad_checked)
from hcmlab.specfun import FamilyParams, f_family, f_family_prime


class TestLaplaceForward:
    def test_prop8_density_reproduces_f(self):
        # forward transform of e^{-lam a} sin(lam b)/b equals f_(1/3,1)
        alpha = 1.0 / 3.0
        g = lambda lam: math.exp(-lam) * closed_form_inverse_t1(lam, alpha)
        got = quad_checked(g, 0.0, np.inf)[0]
        assert got == pytest.approx(1.0 / 3.0, abs=1e-9)


class TestBromwich:
    @pytest.mark.parametrize("lam", [1.0, 5.0, 10.0])
    def test_alpha_zero_clears_every_pole(self, lam):
        # f = 1/(1 + s^3)^2; g is the sum of its three double-pole residues
        roots = [complex(math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)) for k in (1, 3, 5)]
        ref = sum(np.exp(lam * s) * (lam - 2.0 / s) / (9.0 * s ** 4) for s in roots).real
        assert bromwich_invert(FamilyParams(0.0, 3.0), lam) == pytest.approx(ref, rel=1e-9)

    def test_half_alpha_t_one(self):
        p = FamilyParams(0.5, 1.0)
        lam = 0.5 * math.pi
        assert bromwich_invert(p, lam) == pytest.approx(1.0, abs=1e-10)
        # explicit unit abscissa clears the imaginary-axis poles
        assert bromwich_invert(p, lam, c=1.0) == pytest.approx(1.0, abs=1e-9)

    def test_prototype_exponential(self):
        p = FamilyParams(0.5, 0.5)
        for lam in (0.2, 1.0, 5.0):
            assert bromwich_invert(p, lam) == pytest.approx(math.exp(-lam), abs=1e-11)

    def test_c_independence(self):
        p = FamilyParams(0.3, 0.65)
        a = bromwich_invert(p, 1.0, c=0.5)
        b = bromwich_invert(p, 1.0, c=2.0)
        assert abs(a - b) < 1e-6

    def test_pole_on_line_raises(self):
        with pytest.raises(ValueError):
            bromwich_invert(FamilyParams(0.8, 1.0), 1.0, c=0.5)

    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            bromwich_invert(FamilyParams(0.3, 0.65), 0.0)

    @pytest.mark.parametrize("lam,named", [(np.array([1.0, math.nan]), "lam[1] = nan"),
                                           (np.array([2.0, 1.0, -3.0]), "lam[2] = -3"),
                                           (0.0, "lam[0] = 0"),
                                           (np.ones((2, 2)), "shape (2, 2)")])
    def test_bad_lambda_is_named_with_its_index(self, lam, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            bromwich_invert(FamilyParams(0.25, 0.7), lam)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_matches_closed_form_t1(self, alpha):
        p = FamilyParams(alpha, 1.0)
        for lam in (0.1, 1.7, 8.0, 20.0):
            exact = closed_form_inverse_t1(lam, alpha)
            got = bromwich_invert(p, lam)
            assert abs(got - exact) <= 1e-9 * max(1.0, abs(exact))

    def test_small_t_cross_route(self):
        # t below 1/2 exercises the integration-by-parts regularization
        p = FamilyParams(0.3, 0.2)
        for lam in (0.3, 2.0):
            a = bromwich_invert(p, lam)
            b = branch_cut_invert(lam, p)
            assert a == pytest.approx(b, abs=1e-8)


class TestBromwichErrorEstimate:
    """The returned err must bound the true error, checked against independent values."""

    # pole-free (t <= 1 - alpha); lam = 500 loses ~11 digits to e^{lam c}, and
    # lam = 1e-7 needs a deep bisection toward y = 0 of a head 3e7 long
    ORACLE_POINTS = [(0.3, 0.5, 500.0), (0.3, 0.5, 1e-7), (0.3, 0.65, 1.0),
                     (0.2, 0.75, 0.3), (0.45, 0.5, 5.0), (0.1, 0.3, 2.0)]

    @pytest.mark.parametrize("alpha,t,lam", ORACLE_POINTS)
    def test_err_bounds_talbot_oracle(self, alpha, t, lam):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            c = mpmath.cos(mpmath.pi * alpha)
            exact = float(mpmath.invertlaplace(lambda s: 1 / (s ** (2 * t) + 2 * c * s ** t + 1),
                                               lam, method="talbot"))
        g, err = bromwich_invert(FamilyParams(alpha, t), lam, return_err=True)
        assert abs(g - exact) <= err
        assert err <= 1e-6 * max(1.0, abs(g))

    @pytest.mark.parametrize("alpha,t,lam", [(0.3, 0.7, 0.05), (0.3, 1.5, 2.0),
                                             (0.45, 0.98, 0.713)])
    def test_tail_err_bounds_unrotated_quadosc_oracle(self, alpha, t, lam):
        # the reference integrates the tail on the real y axis, not on the rotated ray
        mpmath = pytest.importorskip("mpmath")
        p = FamilyParams(alpha, t)
        c = float(default_abscissa(p, lam))
        y0 = max(1, math.ceil(4.0 * lam / math.pi)) * math.pi / lam
        tail, err = oscillatory_tail(lambda y: f_family_prime(c + 1j * y, p), lam, y0)
        with mpmath.workdps(20):
            cpa = mpmath.cos(mpmath.pi * alpha)

            def integrand(y):
                z = c + 1j * y
                w = z ** t
                return (-2 * t * (w / z) * (w + cpa) / (w * w + 2 * cpa * w + 1) ** 2
                        * mpmath.expj(lam * y))

            ref = complex(mpmath.quadosc(integrand, [y0, mpmath.inf], omega=lam))
        assert abs(tail - ref) <= err

    def test_err_bounds_closed_form_t1_on_c02_grid(self):
        for alpha in [round(0.05 * j, 2) for j in range(1, 11)]:
            p = FamilyParams(alpha, 1.0)
            for lam in np.geomspace(0.1, 3.0 * math.pi / math.sin(math.pi * alpha), 80):
                g, err = bromwich_invert(p, lam, return_err=True)
                assert abs(g - closed_form_inverse_t1(lam, alpha)) <= err, (alpha, lam)

    def test_overflow_is_convergence_error(self):
        with pytest.raises(ConvergenceError):
            bromwich_invert(FamilyParams(0.3, 0.5), 3e4)

    def test_head_panel_cap_is_convergence_error(self):
        # a tiny user abscissa keeps e^{lam c} finite but asks for 1.3e8 head
        # panels; the cap must raise before any node array is built
        with pytest.raises(ConvergenceError, match="half-period panels"):
            bromwich_invert(FamilyParams(0.3, 0.5), 1e8, c=1e-6)

    def test_head_panel_cap_clears_default_abscissa(self):
        # the largest lam before e^{lam c} overflows at c = 0.05 needs 18,054 panels
        lam = 709.0 / 0.05 - 1.0
        assert math.ceil(4.0 * lam / math.pi) <= MAX_HEAD_PANELS
        g, err = bromwich_invert(FamilyParams(0.3, 0.5), lam, return_err=True)
        assert math.isfinite(g) and err > abs(g)  # unresolved, but no cap error


def _counting(monkeypatch, name):
    """Replace hcmlab.laplace.<name> by a wrapper; returns its list of call arguments."""
    calls = []
    original = getattr(hcmlab.laplace, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(hcmlab.laplace, name, wrapper)
    return calls


@st.composite
def _family_and_grid(draw):
    """(alpha, t) pole-free or in the strip 1 - alpha < t <= 1, and an increasing lam grid."""
    alpha = draw(st.floats(0.05, 0.5))
    if draw(st.booleans()):
        t = draw(st.floats(0.2, 1.0 - alpha))
    else:
        t = draw(st.floats(1.0 - alpha, 1.0, exclude_min=True))
    lams = draw(st.lists(st.floats(0.05, 50.0), min_size=1, max_size=8, unique=True))
    return FamilyParams(alpha, t), np.array(sorted(lams))


class TestBromwichGrid:
    """An array of lam is inverted in one batched pass; each value is the scalar call's."""

    @settings(max_examples=100, deadline=None)
    @given(_family_and_grid())
    def test_grid_equals_scalar_calls(self, case):
        p, lams = case
        g, err = bromwich_invert(p, lams, return_err=True)
        assert g.shape == err.shape == lams.shape
        for x, gx, ex in zip(lams, g, err):
            g1, e1 = bromwich_invert(p, float(x), return_err=True)
            assert isinstance(g1, float) and isinstance(e1, float)
            assert abs(gx - g1) <= 1e-13 * max(1.0, abs(g1))
            assert ex == pytest.approx(e1, rel=1e-6, abs=1e-13)

    def test_grid_over_one_chunk(self, monkeypatch):
        # three heads of 6,366 + 10,186 + 14,006 panels: two chunks, two tail calls
        p, c = FamilyParams(0.3, 0.5), 5e-4
        lams = np.array([5000.0, 8000.0, 11000.0])
        assert np.sum(np.ceil(4.0 * lams / math.pi) + TAIL_PANELS) > MAX_HEAD_PANELS
        tails = _counting(monkeypatch, "oscillatory_tail")
        g, err = bromwich_invert(p, lams, c=c, return_err=True)
        assert len(tails) == 2
        for x, gx, ex in zip(lams, g, err):
            g1, e1 = bromwich_invert(p, x, c=c, return_err=True)
            assert abs(gx - g1) <= 1e-13 * max(1.0, abs(g1)) and ex <= 1e-12

    @pytest.mark.parametrize("lams,c,match", [([1.0, 2.0, 3e4], None, "overflows"),
                                              ([1.0, 1e8], 1e-6, "half-period panels")])
    def test_one_bad_lambda_fails_the_grid_before_any_node(self, monkeypatch, lams, c, match):
        primes = _counting(monkeypatch, "f_family_prime")
        with pytest.raises(ConvergenceError, match=match):
            bromwich_invert(FamilyParams(0.3, 0.5), np.array(lams), c=c)
        assert primes == []

    def test_one_bad_lambda_makes_cm_check_inconclusive(self):
        v = cm_check_by_inversion(FamilyParams(0.3, 0.5), ScanGrid(0.05, 3e4, 5))
        assert v.status == "INCONCLUSIVE" and "overflows" in v.detail

    def test_talbot_oracle_through_grid_call(self):
        mpmath = pytest.importorskip("mpmath")
        cases = {}
        for alpha, t, lam in TestBromwichErrorEstimate.ORACLE_POINTS:
            cases.setdefault((alpha, t), []).append(lam)
        for (alpha, t), lams in cases.items():
            g, err = bromwich_invert(FamilyParams(alpha, t), np.array(sorted(lams)),
                                     return_err=True)
            with mpmath.workdps(30):
                c = mpmath.cos(mpmath.pi * alpha)
                exact = [float(mpmath.invertlaplace(
                    lambda s: 1 / (s ** (2 * t) + 2 * c * s ** t + 1), lam, method="talbot"))
                    for lam in sorted(lams)]
            assert np.all(np.abs(g - exact) <= err)
            assert np.all(err <= 1e-6 * np.maximum(1.0, np.abs(g)))

    def test_closed_form_t1_through_grid_call(self):
        for alpha in [round(0.05 * j, 2) for j in range(1, 11)]:
            lams = np.geomspace(0.1, 3.0 * math.pi / math.sin(math.pi * alpha), 80)
            g, err = bromwich_invert(FamilyParams(alpha, 1.0), lams, return_err=True)
            exact = np.array([closed_form_inverse_t1(lam, alpha) for lam in lams])
            assert np.all(np.abs(g - exact) <= err), alpha


@contextlib.contextmanager
def _line_cache(cap=hcmlab.laplace._LINE_CACHE.cap):
    """A fresh Bromwich line-geometry cache of ``cap`` bytes in place of the module's."""
    saved = hcmlab.laplace._LINE_CACHE
    hcmlab.laplace._LINE_CACHE = cache = hcmlab.laplace._LineCache(cap)
    try:
        yield cache
    finally:
        hcmlab.laplace._LINE_CACHE = saved


class TestLineCache:
    """The first head pass and the tails read a cached line geometry; a hit changes no value."""

    @staticmethod
    def _calls(p):
        def grid():
            try:
                g, err = bromwich_invert(p, np.array([0.3, 2.0, 9.0]), return_err=True)
                return g.tobytes() + err.tobytes()
            except ConvergenceError as exc:
                return repr(exc)
        return grid, lambda: repr(cm_check_by_inversion(p))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.floats(0.0, 1.5, exclude_min=True))
    # the principal pole's Re is 6.1e-17 > 0 here, so the abscissa and the key are not lam's alone
    @example(0.5, 1.0)
    def test_warm_cache_gives_the_same_bits(self, alpha, t):
        calls = self._calls(FamilyParams(alpha, t))
        # where cos(pi alpha) ~ -1 and t ~ 0, P(z^t) ~ 0 and f' divides by 0: only bits count here
        with np.errstate(all="ignore"), _line_cache(cap=0) as off:
            uncached = [call() for call in calls]
        assert off.key is None
        with np.errstate(all="ignore"), _line_cache() as cache:
            for call, bits in zip(calls, uncached):
                assert call() == bits  # a miss, which stores the geometry unless it fails
                key, geometry = cache.key, cache.geometry
                assert geometry or isinstance(bits, str) and (
                    "ConvergenceError" in bits or "INCONCLUSIVE" in bits)
                assert call() == bits  # a hit
                assert cache.key == key and cache.geometry is geometry

    def test_held_bytes_stay_within_the_cap(self):
        with _line_cache() as cache:
            cm_check_by_inversion(FamilyParams(0.3, 0.8))
            lams = DEFAULT_LAMBDA_GRID.points()
            geometry = cache.geometry
            # the default grid's geometry is kept, and the size bound counts its bytes
            panels = int(np.sum(np.ceil(4.0 * lams / math.pi)))
            held = sum(a.nbytes for a in geometry)
            assert held == cache.size(panels, lams.size) <= cache.cap
            assert not any(a.flags.writeable for a in geometry)
            cm_check_by_inversion(FamilyParams(0.3, 0.8), ScanGrid(0.05, 50.0, 160))
            assert cache.geometry is geometry  # 1.5 MB: not kept, and the held one stays
            # one lam whose head and tail panels fill a whole chunk
            lam = (MAX_HEAD_PANELS - TAIL_PANELS - 0.5) * math.pi / 4.0
            assert math.ceil(4.0 * lam / math.pi) + TAIL_PANELS == MAX_HEAD_PANELS
            bromwich_invert(FamilyParams(0.3, 0.5), lam, c=0.02)
            assert cache.geometry is geometry
            bromwich_invert(FamilyParams(0.3, 0.5), 2.0)  # a point that fits replaces it
            assert cache.geometry is not geometry
            assert 0 < sum(a.nbytes for a in cache.geometry) <= cache.cap


class TestBranchCutKernel:
    def test_im_part_identity(self):
        # Im(1/P(z)) = -2 Im(z) (cos(pi a) + Re z) / |P(z)|^2
        rng = np.random.default_rng(5)
        alpha = 0.27
        c = math.cos(math.pi * alpha)
        for _ in range(25):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            P = z * z + 2.0 * c * z + 1.0
            lhs = (1.0 / P).imag
            rhs = -2.0 * z.imag * (c + z.real) / abs(P) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)

    def test_single_sign_change(self):
        p = FamilyParams.from_eps(0.2, 0.1)
        x0 = kernel_sign_change(p)
        xs = np.geomspace(1e-3, 1e3, 800)
        signs = np.sign(branch_cut_kernel(xs, p))
        assert int(np.sum(np.diff(signs) != 0)) == 1
        assert branch_cut_kernel(0.5 * x0, p) < 0 < branch_cut_kernel(2.0 * x0, p)

    def test_sign_change_location(self):
        p = FamilyParams.from_eps(0.2, 0.1)
        x0 = kernel_sign_change(p)
        assert x0 ** p.t * math.cos(math.pi * p.t) == pytest.approx(-p.cos_pi_alpha, rel=1e-12)

    def test_no_sign_change_below_half(self):
        assert kernel_sign_change(FamilyParams(0.3, 0.4)) is None

    def test_vanishes_at_origin(self):
        p = FamilyParams.from_eps(0.2, 0.1)
        assert abs(branch_cut_kernel(1e-10, p)) < 1e-6

    def test_regime_guard(self):
        with pytest.raises(ValueError):
            branch_cut_kernel(1.0, FamilyParams(0.3, 0.8))
        # t = 1 - alpha is in the kernel's domain (x = 1 a pole), not in the inversion's
        assert branch_cut_kernel(2.0, FamilyParams(0.3, 0.7)) > 0.0
        with pytest.raises(ValueError):
            branch_cut_invert(1.0, FamilyParams(0.3, 0.7))


class TestBranchCutInvert:
    def test_agrees_with_bromwich(self):
        p = FamilyParams.from_eps(0.2, 0.1)
        for lam in (0.3, 1.0, 4.0):
            assert abs(branch_cut_invert(lam, p) - bromwich_invert(p, lam)) < 1e-6

    def test_lambda_zero_vanishes(self):
        p = FamilyParams.from_eps(0.2, 0.1)
        assert abs(branch_cut_invert(0.0, p)) < 1e-7

    def test_err_bounds_route_gap(self):
        # the two routes share no quadrature, so their gap must sit inside both estimates
        for p in (FamilyParams.from_eps(0.25, 0.05), FamilyParams(0.3, 0.2)):
            for lam in (0.1, 1.0, 10.0):
                b, b_err = branch_cut_invert(lam, p, return_err=True)
                g, g_err = bromwich_invert(p, lam, return_err=True)
                assert b == branch_cut_invert(lam, p)
                assert 0.0 < b_err and abs(b - g) <= b_err + g_err

    def test_lambda_zero_err(self):
        p = FamilyParams.from_eps(0.2, 0.1)
        g, err = branch_cut_invert(0.0, p, return_err=True)
        assert abs(g) <= err < 1e-9

    def test_nonnegative_in_cm_region(self):
        p = FamilyParams.from_eps(0.3, 0.05)
        for lam in np.geomspace(1e-2, 1e2, 25):
            assert branch_cut_invert(lam, p) >= -1e-8

    def test_tiny_lambda_matches_bromwich(self):
        # the cut runs out to 60/lam = 6e8; a scalar QUADPACK pass used to give up there
        p = FamilyParams(0.3, 0.5)
        g = branch_cut_invert(1e-7, p)
        assert g == pytest.approx(bromwich_invert(p, 1e-7), abs=1e-9)
        assert g == pytest.approx(0.99958056547638, abs=1e-12)

    def test_grid_equals_scalar_calls(self):
        p = FamilyParams(0.25, 0.7)
        lams = np.array([0.0, 1e-7, 0.3, 1.0, 40.0])
        g, err = branch_cut_invert(lams, p, return_err=True)
        assert g.shape == err.shape == lams.shape
        for x, gx, ex in zip(lams, g, err):
            g1, e1 = branch_cut_invert(float(x), p, return_err=True)
            assert isinstance(g1, float) and isinstance(e1, float)
            assert abs(gx - g1) <= 1e-13 * max(1.0, abs(g1))
            assert ex == pytest.approx(e1, rel=1e-6, abs=1e-13)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0, [1.0, math.nan], [[1.0]]])
    def test_bad_lambda_names_lambda(self, lam):
        with pytest.raises(ValueError, match="lam"):
            branch_cut_invert(lam, FamilyParams(0.3, 0.5))

    def test_subnormal_lambda_is_convergence_error(self):
        # 60/lam overflows a double; past x = 1 the kernel itself stays finite
        p = FamilyParams(0.3, 0.69)
        assert math.isfinite(branch_cut_invert(1e-300, p))
        with pytest.raises(ConvergenceError, match="overflows"):
            branch_cut_invert(np.array([1.0, 5e-324]), p)


class TestBranchCutErrorEstimate:
    """The returned err must bound the true error, checked against mpmath on the cut."""

    # tiny and huge lam, the kernel's peak at x = 1 as t -> 1 - alpha, both
    # sides of t = 1/2 (with and without the sign change x0)
    ORACLE_POINTS = [(0.3, 0.5, 1e-7), (0.3, 0.5, 700.0), (0.49, 0.505, 1.0),
                     (0.25, 0.7, 0.3), (0.1, 0.89, 10.0), (0.05, 0.2, 0.1)]

    @pytest.mark.parametrize("alpha,t,lam", ORACLE_POINTS)
    def test_err_bounds_mpmath_oracle(self, alpha, t, lam):
        mpmath = pytest.importorskip("mpmath")
        p = FamilyParams(alpha, t)
        splits = [0, 1] + ([kernel_sign_change(p)] if kernel_sign_change(p) else [])
        with mpmath.workdps(20):
            c = mpmath.cos(mpmath.pi * alpha)
            zeta = lambda x: x ** t * mpmath.expjpi(t)
            kernel = lambda x: mpmath.im(1 / (zeta(x) ** 2 + 2 * c * zeta(x) + 1))
            exact = float(-mpmath.quad(lambda x: kernel(x) * mpmath.exp(-lam * x),
                                       sorted(splits) + [mpmath.inf]) / mpmath.pi)
        g, err = branch_cut_invert(lam, p, return_err=True)
        assert abs(g - exact) <= err
        assert err <= 1e-10 * max(1.0, abs(g))


class TestKernelTotalIntegral:
    def test_fifth(self):
        assert abs(kernel_total_integral(FamilyParams.from_eps(0.2, 0.1))) < 1e-6

    def test_slow_decay(self):
        assert abs(kernel_total_integral(FamilyParams.from_eps(0.45, 0.02))) < 1e-5

    def test_alpha_zero_degenerate(self):
        assert abs(kernel_total_integral(FamilyParams(0.0, 0.7))) < 1e-6

    def test_divergence_guard(self):
        with pytest.raises(ValueError):
            kernel_total_integral(FamilyParams(0.2, 0.45))

    @pytest.mark.parametrize("alpha,t", [(0.2, 0.7), (0.45, 0.53), (0.0, 0.7), (0.3, 0.69)])
    def test_is_the_lambda_zero_inversion(self, alpha, t):
        p = FamilyParams(alpha, t)
        g, err = branch_cut_invert(0.0, p, return_err=True)
        assert kernel_total_integral(p) == -math.pi * g
        assert kernel_total_integral(p, return_err=True) == (-math.pi * g, math.pi * err)


class TestStressRegimes:
    def test_near_half_alpha_thin_margin(self):
        # alpha close to 1/2 with a thin eps: both routes still agree
        p = FamilyParams.from_eps(0.49, 0.005)
        for lam in (0.2, 1.0, 6.0):
            a = bromwich_invert(p, lam)
            b = branch_cut_invert(lam, p)
            assert a == pytest.approx(b, abs=2e-7)

    def test_slowest_tail_total_integral(self):
        # t barely above 1/2: the x^(-2t) tail decays at rate 0.06 in log-x
        p = FamilyParams(0.45, 0.53)
        assert abs(kernel_total_integral(p)) < 2e-5

    def test_tail_handoff_independent_of_cutoff(self, monkeypatch):
        # the analytic tail must splice seamlessly onto the quadrature head
        p = FamilyParams.from_eps(0.2, 0.1)
        vals = []
        for u in (12.0, 20.0, 50.0):
            monkeypatch.setattr(hcmlab.laplace, "_total_cutoff", lambda p: u)
            vals.append(kernel_total_integral(p))
        assert max(vals) - min(vals) < 1e-9


class TestClosedFormT1:
    def test_negative_witness(self):
        assert closed_form_inverse_t1(1.5 * math.pi, 0.5) == pytest.approx(-1.0, rel=1e-13)

    def test_small_lambda_slope(self):
        lam = 1e-8
        assert closed_form_inverse_t1(lam, 0.3) / lam == pytest.approx(1.0, rel=1e-6)
        assert closed_form_inverse_t1(0.0, 0.3) == 0.0


class TestInvertGrid:
    def test_round_trip_through_forward(self):
        p = FamilyParams.from_eps(0.3, 0.05)
        spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)
        for x in (0.5, 1.0, 2.0):
            got = quad_checked(lambda lam: math.exp(-x * lam) * branch_cut_invert(lam, p, spec),
                               0.0, np.inf, QuadratureSpec(abs_tol=1e-8, rel_tol=1e-8))[0]
            assert got == pytest.approx(f_family(x, p).real, abs=1e-5)

    def test_grid_result_fields(self):
        p = FamilyParams(0.3, 0.65)
        lams = np.geomspace(0.1, 5.0, 7)
        res = invert_grid(p, lams, method="bromwich")
        assert res.method == "bromwich"
        assert res.values.shape == lams.shape
        assert res.est_error < 1e-8

    def test_methods_agree(self):
        p = FamilyParams.from_eps(0.25, 0.05)
        lams = np.geomspace(0.1, 10.0, 5)
        a = invert_grid(p, lams, method="bromwich")
        b = invert_grid(p, lams, method="branch_cut")
        assert np.max(np.abs(a.values - b.values)) < 1e-6

    def test_branch_cut_grid_error_is_measured(self):
        p = FamilyParams.from_eps(0.25, 0.05)
        lams = np.geomspace(0.1, 10.0, 5)
        res = invert_grid(p, lams, method="branch_cut")
        vals, errs = np.array([branch_cut_invert(x, p, return_err=True) for x in lams]).T
        # one batched panel-rule call: the values are the scalar calls', but the
        # estimates (differences of near-equal sums) move by roundoff
        assert np.all(np.abs(res.values - vals) <= 1e-13)
        assert res.est_error == pytest.approx(max(errs), rel=1e-6, abs=1e-13)
        assert res.est_error != QuadratureSpec().abs_tol

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_bromwich_rejects_lambda_before_the_abscissa(self, bad):
        with pytest.raises(ValueError, match=f"got lam = {bad:g}; the branch-cut route"):
            invert_grid(FamilyParams(0.25, 0.7), [bad, 1.0])

    def test_closed_form_method_guard(self):
        with pytest.raises(ValueError):
            invert_grid(FamilyParams(0.3, 0.65), [1.0, 2.0], method="closed_form")

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            InversionResult(np.array([1.0, 0.5]), np.array([0.0, 0.0]), "bromwich", 0.0)
