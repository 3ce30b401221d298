import json
import math

import pytest

from hcmlab.cli import EX_USAGE, main


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
