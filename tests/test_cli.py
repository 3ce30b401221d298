import json
import math
import warnings

import numpy as np
import pytest

import hcmlab.montecarlo
from hcmlab.cli import EX_USAGE, build_parser, main
from hcmlab.laplace import invert_grid
from hcmlab.monotone import DEFAULT_LAMBDA_GRID
from hcmlab.specfun import FamilyParams


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    return code, report


class TestExitCodes:
    def test_cm_pass_is_zero(self, capsys):
        code, rep = run_cli(capsys, "cm-check", "--alpha", "0.3", "--t", "0.65")
        assert code == 0
        assert rep["schema"] == 1
        assert rep["verdicts"][0]["status"] == "PASS"

    def test_cm_fail_is_one(self, capsys):
        code, rep = run_cli(capsys, "cm-check", "--alpha", "0.3", "--t", "1.0")
        assert code == 1
        assert rep["verdicts"][0]["status"] == "FAIL"

    def test_bad_alpha_is_usage(self, capsys):
        code, _ = run_cli(capsys, "cm-check", "--alpha", "1.2", "--t", "0.5")
        assert code == EX_USAGE

    def test_unknown_flag_is_usage(self, capsys):
        code, _ = run_cli(capsys, "cm-check", "--alpha", "0.3", "--t", "0.5", "--bogus")
        assert code == EX_USAGE

    def test_threads_flag_is_gone(self, capsys):
        code, _ = run_cli(capsys, "--threads", "2", "cm-check", "--alpha", "0.3", "--t", "0.5")
        assert code == EX_USAGE

    def test_numerical_failure_is_inconclusive(self, capsys):
        # the sqrt-gamma CDF table loses mass for tiny shapes and raises RuntimeError
        code, rep = run_cli(capsys, "mc-verify", "--check", "sqrt-gamma",
                            "--t", "0.05", "--s", "0.05")
        assert code == 2
        (verdict,) = rep["verdicts"]
        assert verdict["status"] == "INCONCLUSIVE"
        assert "RuntimeError" in verdict["detail"] and "CDF table mass" in verdict["detail"]

    def test_nan_cdf_mass_is_inconclusive(self, capsys, monkeypatch):
        # a NaN density makes the table mass NaN, which must not pass the mass check
        monkeypatch.setattr(hcmlab.montecarlo, "density_sqrt_gamma_product",
                            lambda x, t, s: np.full_like(x, np.nan))
        code, rep = run_cli(capsys, "mc-verify", "--check", "sqrt-gamma",
                            "--t", "20", "--s", "1", "--n", "1000")
        assert code == 2
        (verdict,) = rep["verdicts"]
        assert verdict["status"] == "INCONCLUSIVE" and "CDF table mass nan" in verdict["detail"]

    def test_sqrt_gamma_far_apart_shapes_pass(self, capsys):
        # x^(t+s-1) underflows where K_(t-s)(2x) overflows; the density is ~2x/19 there
        code, rep = run_cli(capsys, "mc-verify", "--check", "sqrt-gamma",
                            "--t", "20", "--s", "1", "--n", "1000")
        assert code == 0
        (verdict,) = rep["verdicts"]
        assert verdict["status"] == "PASS"

    @pytest.mark.parametrize("xy", [("800", "1"), ("400", "400")])
    def test_bessel_product_underflow_is_inconclusive(self, capsys, xy):
        code, rep = run_cli(capsys, "mc-verify", "--check", "bessel-product",
                            "--alpha", "0.1", "--x", xy[0], "--y", xy[1])
        assert code == 2
        (verdict,) = rep["verdicts"]
        assert verdict["name"] == "bessel-product"
        assert verdict["status"] == "INCONCLUSIVE" and "underflows" in verdict["detail"]

    def test_bessel_argument_underflow_is_inconclusive(self, capsys):
        # 2 sqrt(xy) sinh t underflows at the smallest nodes: a numerical, not a usage, failure
        code, rep = run_cli(capsys, "mc-verify", "--check", "bessel-product",
                            "--alpha", "0.3", "--x", "1e-300", "--y", "1")
        assert code == 2
        (verdict,) = rep["verdicts"]
        assert verdict["name"] == "bessel-product"
        assert verdict["status"] == "INCONCLUSIVE" and "underflows" in verdict["detail"]

    @pytest.mark.parametrize("x", ["nan", "inf", "-1"])
    def test_bessel_product_bad_argument_is_usage(self, capsys, x):
        code, _ = run_cli(capsys, "mc-verify", "--check", "bessel-product",
                          "--alpha", "0.1", "--x", x)
        assert code == EX_USAGE

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv,quantity", [
        (["critical-t", "--alpha", "0.3", "--bisect-tol", "0"], "bisect_tol"),
        (["mc-verify", "--check", "stable-laplace", "--n", "1"], "sample_n"),
        (["hcm-check", "--alpha", "0.2", "--t", "0.5", "--order", "0"], "order"),
        (["hcm-check", "--alpha", "0.2", "--t", "0.9", "--order", "0"], "order"),  # a pole FAIL
        (["pick-scan", "--alpha", "0.2", "--t", "0.5", "--n-per-level", "0"], "n_per_level"),
    ], ids=["bisect-tol", "stable-laplace-n", "order", "order-past-poles", "n-per-level"])
    def test_out_of_range_option_is_usage(self, capsys, argv, quantity):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == EX_USAGE and out == ""
        assert err.startswith("error: ") and quantity in err

    def test_head_panel_cap_is_inconclusive(self, capsys):
        code, rep = run_cli(capsys, "invert", "--alpha", "0.3", "--t", "0.5",
                            "--lambda", "1e8", "--c", "1e-6")
        assert code == 2
        (verdict,) = rep["verdicts"]
        assert verdict["name"] == "numerical_failure"
        assert verdict["status"] == "INCONCLUSIVE"
        assert "ConvergenceError" in verdict["detail"]

    def test_unresolved_invert_is_inconclusive(self, capsys):
        # e^{lam c} = e^35 swamps the head's digits: est_error ~ 6.6 against |g| ~ 1.6e-4
        code, rep = run_cli(capsys, "invert", "--alpha", "0.3", "--t", "0.5", "--lambda", "700")
        assert code == 2
        (verdict,) = rep["verdicts"]
        assert verdict["name"] == "unresolved"
        assert verdict["status"] == "INCONCLUSIVE"
        assert verdict["witness"][0][0] == "bromwich"
        assert rep["params"]["results"]["bromwich"]["est_error"] > 1e-6

    @pytest.mark.parametrize("method,names", [("bromwich", []), ("both", ["method_agreement"])])
    def test_resolved_invert_has_no_unresolved_verdict(self, capsys, method, names):
        code, rep = run_cli(capsys, "invert", "--alpha", "0.3", "--t", "0.5",
                            "--lambda", "0.5", "1", "2", "--method", method)
        assert code == 0
        assert [v["name"] for v in rep["verdicts"]] == names

    @pytest.mark.parametrize("lambdas,code,status", [(["700"], 2, "INCONCLUSIVE"),
                                                     (["0.5", "1", "2"], 0, "PASS")])
    def test_route_gap_is_certified_against_both_estimates(self, capsys, lambdas, code, status):
        # at lam = 700 the bromwich est_error (~6.6) swamps the 1.8e-4 gap: no FAIL
        got, rep = run_cli(capsys, "invert", "--alpha", "0.3", "--t", "0.5",
                           "--lambda", *lambdas, "--method", "both")
        assert got == code
        (agreement,) = [v for v in rep["verdicts"] if v["name"] == "method_agreement"]
        assert agreement["status"] == status
        assert "FAIL" not in [v["status"] for v in rep["verdicts"]]

    def test_tiny_lambda_both_routes_agree(self, capsys):
        # the branch-cut route integrates out to 60/lam = 6e8 here
        code, rep = run_cli(capsys, "invert", "--alpha", "0.3", "--t", "0.5",
                            "--lambda", "1e-7", "--method", "both")
        assert code == 0
        (agreement,) = rep["verdicts"]
        assert agreement["name"] == "method_agreement" and agreement["status"] == "PASS"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["both", "bromwich"])
    def test_zero_lambda_on_bromwich_route_is_usage(self, capsys, method):
        code = main(["invert", "--alpha", "0.25", "--t", "0.7", "--lambda", "0", "1",
                     "--method", method])
        out, err = capsys.readouterr()
        assert code == EX_USAGE and out == ""
        assert "lam = 0" in err and "--method branch-cut" in err

    @pytest.mark.parametrize("t", ["0.85", "0.7"])  # inside the open strip, and at t = 1 - alpha
    def test_branch_cut_past_its_regime_is_inconclusive(self, capsys, t):
        code, rep = run_cli(capsys, "invert", "--alpha", "0.3", "--t", t,
                            "--lambda", "1", "5", "--method", "both")
        assert code == 2
        (verdict,) = rep["verdicts"]
        assert verdict["name"] == "branch_cut_regime" and verdict["status"] == "INCONCLUSIVE"
        assert "t < 1 - alpha = 0.7" in verdict["detail"] and f"t = {t}" in verdict["detail"]
        results = rep["params"]["results"]
        assert list(results) == ["bromwich"]
        g = invert_grid(FamilyParams(0.3, float(t)), [1.0, 5.0]).values
        assert results["bromwich"]["g"] == g.tolist()

    def test_branch_cut_alone_past_its_regime_is_inconclusive(self, capsys, tmp_path):
        out = tmp_path / "g.csv"
        code, rep = run_cli(capsys, "invert", "--alpha", "0.3", "--t", "0.85", "--lambda", "0",
                            "5", "--method", "branch-cut", "--out", str(out))
        assert code == 2
        assert [v["name"] for v in rep["verdicts"]] == ["branch_cut_regime"]
        assert "results" not in rep["params"] and rep["artifacts"] == [] and not out.exists()

    @pytest.mark.parametrize("method", ["branch-cut", "both"])
    def test_bad_lambda_past_the_cut_regime_is_still_usage(self, capsys, method):
        code = main(["invert", "--alpha", "0.3", "--t", "0.85", "--lambda", "-1", "5",
                     "--method", method])
        out, err = capsys.readouterr()
        assert code == EX_USAGE and out == ""
        assert "lam" in err

    def test_cm_diff_rejects_lambda_grid_flags(self, capsys):
        for flag, value in (("--lambda-min", "0.1"), ("--lambda-max", "20"), ("--n", "30")):
            code = main(["cm-check", "--alpha", "0.3", "--t", "0.65",
                         "--method", "diff", flag, value])
            out, err = capsys.readouterr()
            assert code == EX_USAGE and out == ""
            assert flag in err

    def test_cm_diff_without_grid_flags(self, capsys):
        code, rep = run_cli(capsys, "cm-check", "--alpha", "0.3", "--t", "0.65", "--method", "diff")
        assert code == 0
        (verdict,) = rep["verdicts"]
        assert verdict["name"] == "cm_by_differences" and verdict["status"] == "PASS"
        assert "lambda_min" not in rep["params"]

    def test_cm_grid_flags_keep_their_defaults(self, capsys):
        code, rep = run_cli(capsys, "cm-check", "--alpha", "0.3", "--t", "0.65",
                            "--method", "both", "--n", "20")
        assert code == 0
        assert {k: rep["params"][k] for k in ("lambda_min", "lambda_max", "n")} == \
            {"lambda_min": 0.05, "lambda_max": 50.0, "n": 20}
        assert "n=20" in rep["verdicts"][0]["detail"]

    def test_lambda_grid_defaults_are_the_library_grid(self, capsys):
        grid = DEFAULT_LAMBDA_GRID
        args = build_parser().parse_args(["critical-t", "--alpha", "0.3"])
        assert (args.lambda_min, args.lambda_max, args.n) == (grid.lo, grid.hi, grid.n)
        for cmd in ("cm-check", "critical-t"):
            assert main([cmd, "--help"]) == 0
            out = " ".join(capsys.readouterr().out.split())
            for v in (grid.lo, grid.hi, grid.n):
                assert f"(default: {v}" in out

    def test_help_lists_flags_with_defaults(self, capsys):
        for cmd in ("cm-check", "hcm-check", "pick-scan", "critical-t", "mc-verify", "invert"):
            assert main([cmd, "--help"]) == 0
            out = capsys.readouterr().out
            assert "--" in out
            assert "default" in out


class TestReports:
    def test_reproducible_numerical_fields(self, capsys):
        args = ("mc-verify", "--check", "T-density", "--alpha", "0.3",
                "--n", "5000", "--seed", "42")
        _, rep1 = run_cli(capsys, *args)
        _, rep2 = run_cli(capsys, *args)
        rep1.pop("wall_time"), rep2.pop("wall_time")
        assert rep1 == rep2

    def test_hcm_boundary_verdicts(self, capsys):
        code, rep = run_cli(capsys, "hcm-check", "--alpha", "0.2", "--t", "0.75")
        assert code == 0
        code, rep = run_cli(capsys, "hcm-check", "--alpha", "0.2", "--t", "0.9")
        assert code == 1
        code, rep = run_cli(capsys, "hcm-check", "--alpha", "0.6", "--t", "0.3")
        assert code == 1

    def test_pick_scan_with_figure2(self, capsys, tmp_path):
        base = tmp_path / "fig2.csv"
        code, rep = run_cli(capsys, "pick-scan", "--alpha", "0.2", "--eps", "0.1",
                            "--n-per-level", "400", "--emit-figure2", str(base))
        assert code == 0
        assert len(rep["artifacts"]) == 2
        for path in rep["artifacts"]:
            lines = open(path).read().splitlines()
            assert lines[0] == "re,h"
            assert len(lines) == 401

    def test_pick_scan_pole_fail(self, capsys):
        code, rep = run_cli(capsys, "pick-scan", "--alpha", "0.3", "--t", "0.8")
        assert code == 1
        (re, im), _ = rep["verdicts"][0]["witness"]
        theta = 0.7 * math.pi / 0.8
        assert abs(re - math.cos(theta)) < 1e-10
        assert abs(im - math.sin(theta)) < 1e-10

    @pytest.mark.parametrize("alpha,t,code,status", [("0.3", "0.005", 0, "PASS"),
                                                     ("0.3", "0.0001", 0, "PASS"),
                                                     ("0.7", "0.005", 1, "FAIL"),
                                                     ("0.7", "0.0001", 1, "FAIL")])
    def test_pick_scan_small_t(self, capsys, alpha, t, code, status):
        # the negative-axis scan no longer forms x = rho^(1/t), which overflowed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, rep = run_cli(capsys, "pick-scan", "--alpha", alpha, "--t", t)
        assert got == code
        (verdict,) = rep["verdicts"]
        assert verdict["status"] == status
        (re, im), m_hat = verdict["witness"]
        assert math.isfinite(re) and re < 0.0 and im == 0.0 and math.isfinite(m_hat)

    def test_pick_scan_near_half_fails(self, capsys):
        # both roots of the cut's bracket lie off the rho grid; the scan samples below them
        code, rep = run_cli(capsys, "pick-scan", "--alpha", "0.50002", "--t", "0.3")
        assert code == 1
        (verdict,) = rep["verdicts"]
        assert verdict["status"] == "FAIL" and verdict["witness"][1] < 0.0

    def test_critical_t_bracket(self, capsys):
        code, rep = run_cli(capsys, "critical-t", "--alpha", "0.5",
                            "--bisect-tol", "0.05", "--n", "30")
        assert code == 0
        br = rep["params"]["bracket"]
        assert 0.5 - 1e-9 <= br["t_lo"] < br["t_hi"] <= 1.0
        assert rep["params"]["trace"][0]["status"] in ("PASS", "FAIL")

    def test_invert_closed_form(self, capsys):
        code, rep = run_cli(capsys, "invert", "--alpha", "0.5", "--t", "1.0",
                            "--lambda", str(math.pi / 2), "--method", "closed-form")
        assert code == 0
        g = rep["params"]["results"]["closed_form"]["g"][0]
        assert g == pytest.approx(1.0, abs=1e-12)

    def test_invert_both_methods_agree(self, capsys, tmp_path):
        out = tmp_path / "g.csv"
        code, rep = run_cli(capsys, "invert", "--alpha", "0.25", "--t", "0.7",
                            "--lambda", "0.5", "1.0", "2.0",
                            "--method", "both", "--out", str(out))
        assert code == 0
        agreement = [v for v in rep["verdicts"] if v["name"] == "method_agreement"][0]
        assert agreement["status"] == "PASS"
        lines = open(out).read().splitlines()
        assert lines[0] == "lambda,g,err"
        assert len(lines) == 4


class TestMcVerifyDispatch:
    @pytest.mark.parametrize("argv", [
        ("mc-verify", "--check", "zinv-factorization", "--n-gamma", "2", "--n", "5000"),
        ("mc-verify", "--check", "sqrt-gamma", "--t", "1.0", "--s", "1.0", "--n", "5000"),
        ("mc-verify", "--check", "bessel-product", "--alpha", "0.166667", "--x", "1", "--y", "2"),
        ("mc-verify", "--check", "stable-laplace", "--alpha", "0.3", "--n", "5000"),
        ("mc-verify", "--check", "kanter-cm", "--alpha", "0.4"),
    ])
    def test_all_checks_pass(self, capsys, argv):
        code, rep = run_cli(capsys, *argv)
        assert code == 0, rep
