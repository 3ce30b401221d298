import math

import mpmath
import numpy as np
import pytest
from scipy.special import sici

from hcmlab.quadrature import (_GK_NODES, _GK_WEIGHTS, DEFAULT_QUAD, TAIL_NODES,
                               ConvergenceError, QuadratureSpec, gauss_kronrod_panels,
                               oscillatory_tail, quad_checked, tanh_sinh)


class TestQuadratureSpec:
    def test_defaults_valid(self):
        q = QuadratureSpec()
        assert q.abs_tol > 0 and q.max_subdivisions >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)


class TestTanhSinh:
    def test_smooth(self):
        assert tanh_sinh(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-14)

    def test_inverse_sqrt_singularity(self):
        assert tanh_sinh(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0) == pytest.approx(2.0, abs=1e-13)

    def test_log_singularity(self):
        assert tanh_sinh(np.log, 0.0, 1.0) == pytest.approx(-1.0, abs=1e-13)

    def test_both_endpoints_singular(self):
        # int_0^1 x^-1/2 (1-x)^-1/2 dx = pi; fold at 1/2 so each singular
        # endpoint sits at 0, where the node offsets are exact
        val = 2.0 * tanh_sinh(lambda x: 1.0 / np.sqrt(x * (1.0 - x)), 0.0, 0.5)
        assert val == pytest.approx(math.pi, abs=1e-12)

    def test_right_endpoint_singularity_documented_accuracy(self):
        val = tanh_sinh(lambda x: 1.0 / np.sqrt(x * (1.0 - x)), 0.0, 1.0, tol=1e-7)
        assert val == pytest.approx(math.pi, abs=1e-6)


def _erf_oracle(complement):
    with mpmath.workdps(30):
        r = mpmath.sqrt(3)
        return float(mpmath.sqrt(mpmath.pi / 3) * (mpmath.erfc(r) if complement else mpmath.erf(r)))


class TestQuadChecked:
    def test_basic(self):
        val, err = quad_checked(lambda x: math.exp(-x), 0.0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_scalar_float_nodes(self):
        seen = set()
        quad_checked(lambda x: seen.add(type(x)) or math.exp(-x) * math.sqrt(x), 0.0, 3.0)
        assert seen == {float}

    @pytest.mark.parametrize("f,a,b,exact", [
        (lambda x: x ** -0.5 * math.exp(-3.0 * x), 0.0, 1.0, _erf_oracle(False)),
        (lambda x: x ** -0.5 * math.exp(-3.0 * x), 1.0, np.inf, _erf_oracle(True)),
        (lambda x: x ** -0.9, 0.0, 1.0, 10.0),
        (lambda x: x ** -1.4, 1.0, np.inf, 2.5),
        (lambda x: math.exp(-x), 0.0, np.inf, 1.0),
        # int_0^20 e^{-x/5} cos(7x) dx = Re[(e^{20 (7i - 1/5)} - 1) / (7i - 1/5)]
        (lambda x: math.exp(-0.2 * x) * math.cos(7.0 * x), 0.0, 20.0,
         ((np.exp(20.0 * (7j - 0.2)) - 1.0) / (7j - 0.2)).real),
    ])
    def test_closed_forms(self, f, a, b, exact):
        val, err = quad_checked(f, a, b)
        assert val == pytest.approx(exact, rel=1e-13, abs=1e-15)
        assert err >= abs(val - exact)

    @pytest.mark.parametrize("k", [2, 10])
    def test_power_overflows_at_far_end(self, k):
        # x ** k raises OverflowError near x ~ 1e275, where e^-x is long 0
        val, err = quad_checked(lambda x: x ** k * math.exp(-x), 0.0, np.inf)
        assert val == pytest.approx(math.factorial(k), rel=1e-13)
        assert err >= abs(val - math.factorial(k))

    @pytest.mark.parametrize("f,a,b", [
        # singular at a nonzero end: the nodes within one ulp of it round onto it
        (lambda x: (1.0 - x) ** -0.5, 0.0, 1.0),
        (lambda x: (x - 1.0) ** -0.5 * math.exp(-x), 1.0, np.inf),
        # x^-1.002 beyond x ~ 1e275, past the last node, is 28% of the integral
        (lambda x: x ** -1.002, 1.0, np.inf),
        # the last ulp at each end holds 1.2e-7 of the integral, far above rel_tol
        (lambda x: x * x, 1e6, 1e6 + 1e-3),
    ], ids=["root-at-1", "root-at-1-to-inf", "slow-tail", "narrow-at-1e6"])
    def test_left_out_ends_raise(self, f, a, b):
        with pytest.raises(ConvergenceError, match="left out"):
            quad_checked(f, a, b)

    def test_overflow_inside_is_nan_not_traceback(self):
        # 10.0 ** x raises OverflowError past x = 308: NaN nodes, so the rule cannot converge
        with pytest.raises(ConvergenceError):
            quad_checked(lambda x: 10.0 ** x, 300.0, 400.0, QuadratureSpec(max_subdivisions=8))

    @pytest.mark.parametrize("a,b", [(1.0, 0.0), (1.0, 1.0), (-np.inf, 0.0)])
    def test_bad_range(self, a, b):
        with pytest.raises(ValueError):
            quad_checked(math.exp, a, b)

    def test_exhaustion_raises(self):
        q = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=1)
        with pytest.raises(ConvergenceError):
            quad_checked(lambda x: math.sin(50.0 * x) * math.cos(91.3 * x), 0.0, 20.0, q)

    def test_exhaustion_names_the_integration_range(self):
        # the panel engine works in the mapped u; the error names [a, b]
        with pytest.raises(ConvergenceError, match=r"on \[0\.0, 20\.0\]") as info:
            quad_checked(lambda x: math.sin(50.0 * x) * math.cos(91.3 * x), 0.0, 20.0)
        assert isinstance(info.value.__cause__, ConvergenceError)


class TestGaussKronrodPanels:
    LOOSE = QuadratureSpec(abs_tol=1.0, rel_tol=1.0)  # every panel retires on the first pass

    def test_k21_exact_through_degree_31(self):
        for d in range(32):
            val, _ = gauss_kronrod_panels(lambda x, g: x ** d, [[0.0, 1.0]], self.LOOSE, [0])
            assert val[0] == pytest.approx(1.0 / (d + 1), abs=4e-16)

    def test_g10_nodes_are_gauss_legendre(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        gauss = _GK_WEIGHTS[:, 1] != 0.0
        assert np.allclose(_GK_NODES[gauss], nodes, rtol=0.0, atol=1e-15)
        assert np.allclose(_GK_WEIGHTS[gauss, 1], weights, rtol=0.0, atol=1e-15)

    def test_oscillatory_closed_form(self):
        # int_0^20 e^{-x/5} cos(7x) dx = Re[(e^{20 (7i - 1/5)} - 1) / (7i - 1/5)]
        s = 7j - 0.2
        exact = ((np.exp(20.0 * s) - 1.0) / s).real
        edges = np.linspace(0.0, 20.0, 5)
        val, err = gauss_kronrod_panels(lambda x, g: np.exp(-0.2 * x) * np.cos(7.0 * x),
                                        np.stack([edges[:-1], edges[1:]], 1), DEFAULT_QUAD,
                                        np.zeros(4, dtype=int))
        assert val[0] == pytest.approx(exact, abs=1e-12)
        assert err[0] >= abs(val[0] - exact)

    def test_exhaustion_raises(self):
        q = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=1)
        with pytest.raises(ConvergenceError):
            gauss_kronrod_panels(lambda x, g: np.sin(50.0 * x) * np.cos(91.3 * x), [[0.0, 20.0]],
                                 q, [0])

    def test_one_array_per_pass(self):
        seen = []

        def f(x, g):
            seen.append(x)
            return 1.0 / (1.0 + 100.0 * x * x)

        val, _ = gauss_kronrod_panels(f, [[-1.0, 1.0]], DEFAULT_QUAD, [0])
        assert val[0] == pytest.approx(0.2 * math.atan(10.0), abs=1e-12)
        assert len(seen) > 1  # bisected at least once
        for x in seen:
            assert isinstance(x, np.ndarray) and x.ndim == 1 and x.size % 21 == 0
        assert sum(x.size for x in seen) > 21 * len(seen)  # several panels per call

    def test_grouped_integrals_match_single_calls(self):
        # int e^{-x/5} cos(w x) on two ranges at once: one call per pass, told each node's group
        ranges = {0: (np.linspace(0.0, 20.0, 5), 7.0), 1: (np.linspace(1.0, 3.0, 3), 2.0)}
        seen = []

        def f(x, g):
            seen.append(g)
            w = np.array([ranges[0][1], ranges[1][1]])[g]
            return np.exp(-0.2 * x) * np.cos(w * x)

        edges = np.concatenate([np.stack([e[:-1], e[1:]], 1) for e, _ in ranges.values()])
        group = np.repeat([0, 1], [4, 2])
        val, err = gauss_kronrod_panels(f, edges, DEFAULT_QUAD, group)
        assert val.shape == err.shape == (2,)
        assert len(seen) > 1 and all(g.ndim == 1 and g.size % 21 == 0 for g in seen)
        for k, (e, w) in ranges.items():
            v1, e1 = gauss_kronrod_panels(lambda x, g: np.exp(-0.2 * x) * np.cos(w * x),
                                          np.stack([e[:-1], e[1:]], 1), DEFAULT_QUAD,
                                          np.zeros(e.size - 1, dtype=int))
            assert val[k] == pytest.approx(v1[0], rel=1e-15, abs=1e-15)
            assert err[k] == pytest.approx(e1[0], rel=1e-6, abs=1e-15)

    def test_edges_must_increase(self):
        with pytest.raises(ValueError):
            gauss_kronrod_panels(lambda x, g: np.sin(x), [[0.0, 1.0], [1.0, 1.0]], DEFAULT_QUAD,
                                 [0, 0])
        with pytest.raises(ValueError):
            gauss_kronrod_panels(lambda x, g: np.sin(x), [0.0], DEFAULT_QUAD, [0])


class TestOscillatoryTail:
    def test_against_sine_cosine_integrals(self):
        # int_a^inf e^{iy}/y dy = -Ci(a) + i (pi/2 - Si(a))
        a = math.pi
        si, ci = sici(a)
        exact = -ci + 1j * (0.5 * math.pi - si)
        got, err = oscillatory_tail(lambda y: 1.0 / y, 1.0, a)
        assert got.real == pytest.approx(exact.real, abs=1e-12)
        assert got.imag == pytest.approx(exact.imag, abs=1e-12)
        assert err < 1e-10

    def test_exponential_decay_closed_form(self):
        # int_a^inf e^{(i w - r) y} dy = e^{(i w - r) a} / (r - i w)
        r, w = 0.3, 2.0
        a = 4.0 * math.pi / w
        exact = np.exp((1j * w - r) * a) / (r - 1j * w)
        got, err = oscillatory_tail(lambda y: np.exp(-r * y), w, a)
        assert got == pytest.approx(exact, abs=1e-12)

    def test_broadcast_matches_scalar_calls(self):
        omega = np.array([1.0, 2.0, 3.5])
        start = 4.0 * np.pi / omega
        shapes = []

        def phi(y):
            shapes.append(y.shape)
            return 1.0 / y

        got, err = oscillatory_tail(phi, omega, start)
        assert shapes == [(3, TAIL_NODES)] and got.shape == err.shape == (3,)
        for k in range(3):
            g1, e1 = oscillatory_tail(lambda y: 1.0 / y, omega[k], start[k])
            assert got[k] == g1 and err[k] == e1
