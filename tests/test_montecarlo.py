import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammainc
from scipy.stats import kstest, ks_2samp

import hcmlab.montecarlo
from hcmlab.densities import density_sqrt_gamma_product
from hcmlab.montecarlo import (KsReport, ks_statistic,
                               ks_statistic_two_sample, ks_threshold, sample_T_alpha,
                               sample_gamma, sample_positive_stable, verify_T_density,
                               verify_bessel_product_formula, verify_factorization_zinv,
                               verify_half_stable_gamma_identity, verify_kanter_cm,
                               verify_sqrt_gamma_product_density, verify_stable_laplace,
                               sqrt_gamma_product_cdf_table, _cumulative_simpson)

N = 30_000  # module-test sample size; the acceptance suite runs the full 1e5


class TestReproducibility:
    def test_bit_exact_regeneration(self):
        a = sample_positive_stable(0.3, 500, seed=123)
        b = sample_positive_stable(0.3, 500, seed=123)
        assert np.array_equal(a.values, b.values)

    def test_streams_are_distinct(self):
        g = sample_gamma(1.0, 500, seed=123)
        z = sample_positive_stable(0.3, 500, seed=123)
        assert not np.allclose(g.values, z.values)

    def test_seed_changes_samples(self):
        a = sample_T_alpha(0.5, 100, seed=1)
        b = sample_T_alpha(0.5, 100, seed=2)
        assert not np.array_equal(a.values, b.values)


class TestGammaSampler:
    def test_moments(self):
        t = 0.5
        s = sample_gamma(t, N, seed=5)
        se_mean = s.values.std(ddof=1) / math.sqrt(N)
        assert abs(s.values.mean() - t) <= 4.0 * se_mean
        # Var gamma_t = t; var of the sample variance ~ (mu4 - var^2)/n
        assert s.values.var(ddof=1) == pytest.approx(t, abs=0.05)

    def test_ks_against_incomplete_gamma(self):
        s = sample_gamma(0.5, N, seed=6)
        stat = ks_statistic(s.values, lambda x: gammainc(0.5, x))
        assert stat < 1.36 / math.sqrt(N)  # the 5% level


class TestStableSampler:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_laplace_transform(self, alpha):
        # full stated sample size for the defining-property invariant
        v = verify_stable_laplace(alpha, sample_n=100_000, seed=11)
        assert v.passed, v.detail

    @pytest.mark.filterwarnings("error")
    def test_laplace_needs_two_samples(self):
        # one sample has no standard error: a FAIL from it would carry a NaN witness
        with pytest.raises(ValueError, match="sample_n must be >= 2"):
            verify_stable_laplace(0.5, sample_n=1)

    def test_half_identity_two_sample(self):
        r = verify_half_stable_gamma_identity(sample_n=N, seed=12)
        assert r.passed, r

    def test_mellin_moment(self):
        # E[Z^s] = Gamma(1 - s/alpha) / Gamma(1 - s)
        alpha, s = 0.4, 0.1
        z = sample_positive_stable(alpha, N, seed=13)
        w = z.values ** s
        ref = math.exp(math.lgamma(1.0 - s / alpha) - math.lgamma(1.0 - s))
        se = w.std(ddof=1) / math.sqrt(N)
        assert abs(w.mean() - ref) <= 4.0 * se


class TestTSampler:
    def test_ks_against_closed_form(self):
        r = verify_T_density(0.3, sample_n=N, seed=14)
        assert r.passed, r

    def test_half_is_half_cauchy(self):
        s = sample_T_alpha(0.5, N, seed=15)
        stat = ks_statistic(s.values, lambda x: 2.0 / math.pi * np.arctan(x))
        assert stat < ks_threshold(N)

    def test_reciprocal_symmetry(self):
        # T and 1/T share their law; use independent draws on each side so
        # the two-sample threshold applies
        a = sample_T_alpha(0.35, N, seed=16)
        b = sample_T_alpha(0.35, N, seed=61)
        stat = ks_statistic_two_sample(a.values, 1.0 / b.values)
        assert stat < ks_threshold(N, m=N)

    @pytest.mark.parametrize("s", [-0.5, -0.2, 0.25, 0.5])
    def test_moments_match_mellin(self, s):
        from hcmlab.densities import mellin_T_alpha
        alpha = 0.3
        vals = sample_T_alpha(alpha, 100_000, seed=44).values ** s
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - mellin_T_alpha(s, alpha)) <= 4.0 * se


class TestFactorizations:
    @pytest.mark.parametrize("n_gamma", [2, 3])
    def test_zinv_factorization(self, n_gamma):
        r = verify_factorization_zinv(n_gamma, sample_n=N, seed=17)
        assert r.passed, r

    def test_moment_cross_check_n3(self):
        # E[Z^-s] = Gamma(1 + s/alpha) / Gamma(1 + s); both representations agree
        alpha, s = 1.0 / 3.0, 0.2
        ref = math.exp(math.lgamma(1.0 + s / alpha) - math.lgamma(1.0 + s))
        z = sample_positive_stable(alpha, N, seed=18)
        w1 = z.values ** (-s)
        assert abs(w1.mean() - ref) <= 4.0 * w1.std(ddof=1) / math.sqrt(N)
        prod = 27.0 * sample_gamma(1.0 / 3.0, N, seed=19).values \
            * sample_gamma(2.0 / 3.0, N, seed=20).values
        w2 = prod ** s
        assert abs(w2.mean() - ref) <= 4.0 * w2.std(ddof=1) / math.sqrt(N)

    def test_invalid_n_gamma(self):
        with pytest.raises(ValueError):
            verify_factorization_zinv(7)


class TestSqrtGammaProduct:
    @pytest.mark.parametrize("t,s", [(1.0, 1.0), (1.0 / 3.0, 2.0 / 3.0), (5.0, 0.2)])
    def test_density_ks(self, t, s):
        r = verify_sqrt_gamma_product_density(t, s, sample_n=N, seed=21)
        assert r.passed, r

    def test_sqrt_z_one_third_density(self):
        # sqrt(Z_(1/3)) against its Bessel closed form via the factorization
        from hcmlab.densities import density_sqrt_Z_one_third
        from scipy.integrate import cumulative_simpson
        z = sample_positive_stable(1.0 / 3.0, N, seed=22)
        vals = np.sqrt(z.values)
        xi = np.linspace(0.0, 2000.0 ** (1.0 / 3.0), 6001)
        x = xi ** 3
        dens = np.zeros_like(x)
        dens[1:] = density_sqrt_Z_one_third(x[1:]) * 3.0 * xi[1:] ** 2
        cdf = cumulative_simpson(dens, x=xi, initial=0.0)
        stat = ks_statistic(np.clip(vals, None, x[-1] - 1e-9),
                            lambda q: np.interp(q, x, cdf))
        # heavy tail: a fraction ~P(Z > 4e6) ~ 1e-3 is clipped; KS at 1% with
        # margin still certifies the density shape
        assert stat < 0.01

    def test_half_cauchy_product_identity(self):
        # T_(1/2) x T'_(1/2) equals a ratio of independent sqrt(gamma gamma) products
        n = N
        t1 = sample_T_alpha(0.5, n, seed=23).values
        t2 = sample_T_alpha(0.5, n, seed=24).values
        g = [sample_gamma(0.5, n, seed=25 + k).values for k in range(4)]
        ratio = np.sqrt(g[0] * g[1]) / np.sqrt(g[2] * g[3])
        stat = ks_statistic_two_sample(t1 * t2, ratio)
        assert stat < ks_threshold(n, m=n)


class TestBesselProduct:
    @pytest.mark.parametrize("alpha,x,y", [
        (1.0 / 6.0, 1.0, 2.0),
        (0.25, 1.0, 1.0),
        (0.0, 0.5, 3.0),
    ])
    def test_product_formula(self, alpha, x, y):
        v = verify_bessel_product_formula(alpha, x, y)
        assert v.passed, v.detail

    @pytest.mark.parametrize("alpha", [0.4, 0.35])
    def test_tiny_integral_is_resolved(self, alpha):
        # K_a(20) K_a(30) ~ 1e-23: the integral is taken with e^{-(x+y)} pulled out
        v = verify_bessel_product_formula(alpha, 20.0, 30.0)
        assert v.passed, v.detail
        assert v.witness[1] < 1e-13

    @pytest.mark.parametrize("x,y", [(1e-300, 1.0), (1e-65, 1.0)])
    def test_underflowed_bessel_argument_is_inconclusive(self, x, y):
        v = verify_bessel_product_formula(0.3, x, y)
        assert v.status == "INCONCLUSIVE" and "underflows" in v.detail

    def test_alpha_guard(self):
        with pytest.raises(ValueError):
            verify_bessel_product_formula(0.5, 1.0, 1.0)

    @pytest.mark.parametrize("x,y", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                     (1.0, -math.inf)])
    def test_nonfinite_arguments_are_rejected(self, x, y):
        with pytest.raises(ValueError, match="finite"):
            verify_bessel_product_formula(0.1, x, y)

    @pytest.mark.parametrize("x,y", [(800.0, 1.0), (400.0, 400.0), (355.0, 355.0)])
    def test_underflowed_lhs_is_inconclusive(self, x, y):
        # K_a(x) K_a(y) is 0, or subnormal (2e-311 at 355), so a relative difference is undefined
        v = verify_bessel_product_formula(0.1, x, y)
        assert v.status == "INCONCLUSIVE" and "underflows" in v.detail

    def test_one_lhs_call_and_one_call_per_level(self, monkeypatch):
        # K_a(x) and K_a(y) in one call, then one array call per pass of tanh_sinh's panel
        # rule: two here, the initial panels and one bisection
        calls = []
        original = hcmlab.montecarlo.bessel_k

        def counting(nu, x):
            calls.append(np.size(x))
            return original(nu, x)

        monkeypatch.setattr(hcmlab.montecarlo, "bessel_k", counting)
        assert verify_bessel_product_formula(1.0 / 6.0, 1.0, 2.0).passed
        assert calls[0] == 2 and len(calls) <= 1 + 3
        assert sum(calls[1:]) > len(calls) - 1

    @pytest.mark.parametrize("alpha,x,y", [(-0.48668454301313036, 2.4528514531105667,
                                            0.04891975892038797),
                                           (0.4883677883234111, 3.208047212295005,
                                            0.0017557578470422815)])
    def test_left_out_end_is_inconclusive(self, alpha, x, y):
        # the t^(-2|a|) singularity at 0 holds more than 5e-14 beyond the last node
        v = verify_bessel_product_formula(alpha, x, y)
        assert v.status == "INCONCLUSIVE" and "left out" in v.detail and "end 0.0" in v.detail

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-0.499, 0.499, exclude_min=True, exclude_max=True),
           st.floats(1e-3, 1e2), st.floats(1e-3, 1e2))
    @example(-0.48668454301313036, 2.4528514531105667, 0.04891975892038797)
    @example(0.4883677883234111, 3.208047212295005, 0.0017557578470422815)
    def test_theorem_never_reads_fail(self, alpha, x, y):
        # the identity holds for |a| < 1/2: PASS where the integral is resolved, else INCONCLUSIVE
        assert verify_bessel_product_formula(alpha, x, y).status != "FAIL"


class TestSqrtGammaCdfTable:
    def test_peak_memory(self):
        sqrt_gamma_product_cdf_table(1.0, 1.0)  # first-call costs stay outside the trace
        tracemalloc.start()
        try:
            x, cdf = sqrt_gamma_product_cdf_table(1.0, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20
        assert abs(cdf[-1] - 1.0) <= 1e-5


    @pytest.mark.parametrize("t,s", [(1.0, 1.0), (1.0 / 3.0, 2.0 / 3.0), (5.0, 0.2)])
    def test_simpson_matches_scipy(self, t, s):
        from scipy.integrate import cumulative_simpson
        x, cdf = sqrt_gamma_product_cdf_table(t, s)
        xi = np.linspace(0.0, x[-1] ** 0.2, x.size)
        dens = np.zeros_like(x)
        dens[1:] = density_sqrt_gamma_product(x[1:], t, s) * 5.0 * xi[1:] ** 4
        ref = cumulative_simpson(dens, x=xi, initial=0.0)
        assert np.max(np.abs(cdf - ref)) <= 1e-14

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 9])
    def test_simpson_short_grids(self, n):
        from scipy.integrate import cumulative_simpson
        xi, d = np.linspace(0.0, 2.0, n, retstep=True)
        f = np.exp(-xi) * np.cos(3.0 * xi)
        ref = cumulative_simpson(f, x=xi, initial=0.0)
        assert np.max(np.abs(_cumulative_simpson(f, d) - ref)) <= 1e-15

class TestKanterCm:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_cm_for_all_alpha(self, alpha):
        v = verify_kanter_cm(alpha)
        assert v.passed, v.detail


class TestKsMachinery:
    def test_one_sample_matches_scipy(self):
        s = sample_gamma(1.0, 2000, seed=30)
        mine = ks_statistic(s.values, lambda x: gammainc(1.0, x))
        ref = kstest(s.values, lambda x: gammainc(1.0, x)).statistic
        assert mine == pytest.approx(ref, abs=1e-12)

    def test_two_sample_matches_scipy(self):
        a = sample_gamma(1.0, 1500, seed=31).values
        b = sample_gamma(1.0, 2500, seed=32).values
        assert ks_statistic_two_sample(a, b) == pytest.approx(
            ks_2samp(a, b).statistic, abs=1e-12)

    def test_report_consistency_enforced(self):
        with pytest.raises(ValueError):
            KsReport(statistic=0.5, n=10, threshold=0.1, passed=True)

    def test_thresholds(self):
        assert ks_threshold(10_000) == pytest.approx(0.0163)
        assert ks_threshold(100, m=100) == pytest.approx(1.63 * math.sqrt(0.02))


def ks_two_sample_searchsorted(a, b):
    """The pooled-grid searchsorted formula: the reference for the one-merge statistic."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


# few distinct values, so runs of ties span both samples; signed zeros and infinities too
_SAMPLE = st.lists(st.integers(-3, 3).map(float) | st.sampled_from([-0.0, math.inf, -math.inf])
                   | st.floats(allow_nan=False), min_size=1, max_size=40)


class TestKsTwoSampleMerge:
    """The one-merge statistic is the searchsorted formula's float, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(_SAMPLE, _SAMPLE)
    def test_equals_searchsorted_formula(self, a, b):
        assert ks_statistic_two_sample(np.array(a), np.array(b)) == \
            ks_two_sample_searchsorted(a, b)

    @pytest.mark.parametrize("a,b", [([1.0], [1.0]), ([1.0], [2.0]), ([2.0], [1.0, 2.0, 3.0]),
                                     ([0.0, 0.0, 1.0], [0.0]), ([-1.0, 5.0], [5.0, 5.0, -1.0])])
    def test_single_points_and_ties(self, a, b):
        assert ks_statistic_two_sample(a, b) == ks_two_sample_searchsorted(a, b)

    def test_large_continuous_samples_and_inputs_untouched(self):
        rng = np.random.default_rng(40)
        a, b = rng.standard_normal(100_000), rng.standard_normal(70_001) + 0.01
        a0, b0 = a.copy(), b.copy()
        assert ks_statistic_two_sample(a, b) == ks_two_sample_searchsorted(a, b)
        assert np.array_equal(a, a0) and np.array_equal(b, b0)

    def test_peak_memory(self):
        rng = np.random.default_rng(41)
        a, b = rng.random(100_000), rng.random(100_000)
        tracemalloc.start()
        try:
            ks_statistic_two_sample(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2 ** 20  # the searchsorted formula peaked at 9.2 MB


def _digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()[:16]


class TestPinnedSamples:
    """Exact samples and statistics at fixed seeds: what a sampler call with
    the same seed and n regenerates.  A rewrite of the samplers or verifiers must
    keep every bit of these."""

    @pytest.mark.parametrize("alpha,seed,digest,first,last", [
        (0.3, 7, "1b17a9fd304ee405", 0.05484774465934581, 0.21619987742969854),
        (0.5, 8, "f0478355a7cf9c4b", 32.97892760108774, 46.66914592615755),
        (0.8, 9, "316d5ceff9c8f025", 0.6261703936351899, 0.6069378542629079),
    ])
    def test_positive_stable(self, alpha, seed, digest, first, last):
        v = sample_positive_stable(alpha, 5000, seed).values
        assert (v[0], v[-1], _digest(v)) == (first, last, digest)

    @pytest.mark.parametrize("alpha,seed,digest,first,last", [
        (0.35, 10, "53d5fc9fe6e91d20", 4.254192334052782, 2.958692420075747),
        (0.7, 11, "378d9bd495ceec56", 13.67368063217354, 0.6636076940519496),
    ])
    def test_T_alpha(self, alpha, seed, digest, first, last):
        v = sample_T_alpha(alpha, 5000, seed).values
        assert (v[0], v[-1], _digest(v)) == (first, last, digest)

    @pytest.mark.parametrize("n_gamma,stat", [(2, 0.007900000000000018),
                                              (3, 0.009050000000000002),
                                              (4, 0.006700000000000039)])
    def test_zinv_statistic(self, n_gamma, stat):
        assert verify_factorization_zinv(n_gamma, 20_000, seed=31).statistic == stat

    def test_half_stable_statistic(self):
        # the zinv(2) comparison, 1/Z against 4 gamma: Z against 1/(4 gamma) read 0.007550000000000001
        r = verify_half_stable_gamma_identity(20_000, seed=32)
        assert r.statistic == 0.007549999999999946
        assert r == replace(verify_factorization_zinv(2, 20_000, seed=32), label=r.label)

    @pytest.mark.parametrize("alpha,stat", [(0.3, 0.004667042641279262),
                                            (0.75, 0.00450927198113843)])
    def test_T_density_statistic(self, alpha, stat):
        assert verify_T_density(alpha, 20_000, seed=33).statistic == stat

    def test_sqrt_gamma_statistic(self):
        # the CDF table rests on bessel_k, which may move in the last digits
        stat = verify_sqrt_gamma_product_density(1.0, 1.0, 20_000, seed=34).statistic
        assert stat == pytest.approx(0.00672297085333684, rel=1e-12)

    def test_stable_laplace_witness(self):
        v = verify_stable_laplace(0.4, sample_n=20_000, seed=35)
        assert v.witness == (1.0, 2.1170558452619077)


class TestVerifierMemory:
    """The verifiers work in place: each peaks below what the out-of-place
    products and reciprocals took (10.7 MB for the two-sample checks, 4.6 MB
    for T density, 6.3 MB for the sqrt-gamma check at n = 1e5)."""

    CHECKS = {
        "zinv3": (lambda: verify_factorization_zinv(3, 100_000, 5), 7.5),
        "half_stable": (lambda: verify_half_stable_gamma_identity(100_000, 5), 7.5),
        "T_density": (lambda: verify_T_density(0.4, 100_000, 5), 4.7),
        "sqrt_gamma": (lambda: verify_sqrt_gamma_product_density(1.0, 1.0, 100_000, 5), 5.0),
    }

    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_peak(self, name):
        check, limit_mb = self.CHECKS[name]
        check()  # first-call costs stay outside the trace
        tracemalloc.start()
        try:
            check()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb * 2 ** 20
