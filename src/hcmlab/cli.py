"""Command-line front end: every check as a subcommand with a JSON report.

Output contract: a single JSON document (schema 1) on stdout, CSV
artifacts to files named by flags, logs to stderr.  Exit codes: 0 all
checks PASS, 1 some FAIL, 2 INCONCLUSIVE (a numerical failure in the
library is reported as an INCONCLUSIVE verdict carrying the reason), 64
usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import montecarlo as mc
from .laplace import invert_grid
from .monotone import (DEFAULT_LAMBDA_GRID, FAIL, INCONCLUSIVE, PASS, InconclusiveError,
                       ScanGrid, Verdict, cm_check_by_differences, cm_check_by_inversion,
                       estimate_critical_t, hcm_check_family)
from .pick import HalfPlaneScan, figure2_data, ggc_pick_scan, write_figure2_csv
from .specfun import FamilyParams, f_family

__all__ = ["main", "RunReport", "EX_USAGE"]

EX_USAGE = 64


@dataclasses.dataclass
class RunReport:
    """One run of one subcommand, serializable as a single JSON document."""

    command: str
    params: dict
    verdicts: list = dataclasses.field(default_factory=list)
    artifacts: list = dataclasses.field(default_factory=list)
    wall_time: float = 0.0
    schema: int = 1

    def add(self, name: str, verdict):
        if isinstance(verdict, Verdict):
            self.verdicts.append({
                "name": name, "status": verdict.status, "tolerance": verdict.tolerance,
                "witness": _jsonable(verdict.witness), "detail": verdict.detail,
            })
        elif isinstance(verdict, mc.KsReport):
            self.verdicts.append({
                "name": name, "status": PASS if verdict.passed else FAIL,
                "tolerance": verdict.threshold, "statistic": verdict.statistic,
                "n": verdict.n, "detail": verdict.label,
            })
        else:
            raise TypeError(f"cannot report {type(verdict)}")

    def exit_code(self) -> int:
        statuses = [v["status"] for v in self.verdicts]
        if any(s == FAIL for s in statuses):
            return 1
        if any(s == INCONCLUSIVE for s in statuses):
            return 2
        return 0

    def emit(self) -> int:
        json.dump(dataclasses.asdict(self), sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
        return self.exit_code()


def _jsonable(obj):
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return str(obj)


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the usage code instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EX_USAGE)


def _usage_fail(msg: str) -> "SystemExit":
    sys.stderr.write(f"error: {msg}\n")
    return SystemExit(EX_USAGE)


def _family(args) -> FamilyParams:
    if not 0.0 < args.alpha < 1.0:
        raise _usage_fail(f"--alpha must lie in (0, 1), got {args.alpha}")
    t = getattr(args, "t", None)
    if t is None and getattr(args, "eps", None) is not None:
        t = 1.0 - args.alpha - args.eps
    if t is None or t <= 0.0:
        raise _usage_fail(f"--t must be positive, got {t}")
    return FamilyParams(args.alpha, t)


_CM_GRID = {"lambda_min": DEFAULT_LAMBDA_GRID.lo, "lambda_max": DEFAULT_LAMBDA_GRID.hi,
            "n": DEFAULT_LAMBDA_GRID.n}  # the lambda grid of cm-check and critical-t


def build_parser() -> _Parser:
    fmt = {"formatter_class": argparse.ArgumentDefaultsHelpFormatter}
    p = _Parser(prog="hcmlab", description=__doc__, **fmt)
    sub = p.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    q = sub.add_parser("cm-check", help="complete-monotonicity check of f_(alpha,t)", **fmt)
    q.add_argument("--alpha", type=float, required=True, help="family index in (0, 1)")
    q.add_argument("--t", type=float, required=True, help="power index t > 0")
    q.add_argument("--lambda-min", type=float, default=argparse.SUPPRESS,
                   help=f"scan grid start (default: {_CM_GRID['lambda_min']}; not with --method diff)")
    q.add_argument("--lambda-max", type=float, default=argparse.SUPPRESS,
                   help=f"scan grid end (default: {_CM_GRID['lambda_max']}; not with --method diff)")
    q.add_argument("--n", type=int, default=argparse.SUPPRESS,
                   help=f"scan grid size (default: {_CM_GRID['n']}; not with --method diff)")
    q.add_argument("--tol", type=float, default=1e-8, help="negativity tolerance")
    q.add_argument("--method", choices=("invert", "diff", "both"), default="invert", help="checker route")

    q = sub.add_parser("hcm-check", help="HCM check of f_(alpha,t), all obstructions", **fmt)
    q.add_argument("--alpha", type=float, required=True, help="family index in (0, 1)")
    q.add_argument("--t", type=float, required=True, help="power index t > 0")
    q.add_argument("--u-min", type=float, default=1e-4, help="u scan start")
    q.add_argument("--u-max", type=float, default=1.0, help="u scan end")
    q.add_argument("--u-n", type=int, default=17, help="u scan size")
    q.add_argument("--w-min", type=float, default=2.01, help="w scan start (> 2)")
    q.add_argument("--w-max", type=float, default=200.0, help="w scan end")
    q.add_argument("--w-n", type=int, default=25, help="w scan size")
    q.add_argument("--order", type=int, default=8, help="difference order")
    q.add_argument("--tol", type=float, default=1e-9, help="negativity tolerance")

    q = sub.add_parser("pick-scan", help="Pick/GGC half-plane scan of Im(f'/f)", **fmt)
    q.add_argument("--alpha", type=float, required=True, help="family index in (0, 1)")
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--eps", type=float, help="t = 1 - alpha - eps")
    g.add_argument("--t", type=float, help="power index t > 0")
    q.add_argument("--re-min", type=float, default=-50.0, help="line scan start")
    q.add_argument("--re-max", type=float, default=50.0, help="line scan end")
    q.add_argument("--im-levels", type=str, default="0.01,0.1,1,10", help="comma-separated heights")
    q.add_argument("--n-per-level", type=int, default=2000, help="points per line")
    q.add_argument("--tol", type=float, default=1e-6, help="negativity tolerance on h")
    q.add_argument("--emit-figure2", metavar="PATH", default=None,
                   help="write h along Im(z)=1 and Im(z)=0.1 as two CSV files")

    q = sub.add_parser("critical-t", help="bisection bracket for the critical CM index", **fmt)
    q.add_argument("--alpha", type=float, required=True, help="family index in (0, 1/2]")
    q.add_argument("--bisect-tol", type=float, default=0.01, help="final bracket width")
    q.add_argument("--lambda-min", type=float, help="predicate grid start")
    q.add_argument("--lambda-max", type=float, help="predicate grid end")
    q.add_argument("--n", type=int, help="predicate grid size")
    q.set_defaults(**_CM_GRID)

    q = sub.add_parser("mc-verify", help="Monte Carlo / quadrature identity checks", **fmt)
    q.add_argument("--check", required=True,
                   choices=("T-density", "zinv-factorization", "sqrt-gamma",
                            "bessel-product", "stable-laplace", "kanter-cm"))
    q.add_argument("--alpha", type=float, default=0.5, help="index parameter where used")
    q.add_argument("--n", type=int, default=100_000, help="sample size")
    q.add_argument("--seed", type=int, default=42, help="sampler seed")
    q.add_argument("--n-gamma", type=int, default=2, help="factor count for zinv-factorization")
    q.add_argument("--t", type=float, default=1.0, help="first gamma shape for sqrt-gamma")
    q.add_argument("--s", type=float, default=1.0, help="second gamma shape for sqrt-gamma")
    q.add_argument("--x", type=float, default=1.0, help="first Bessel argument")
    q.add_argument("--y", type=float, default=2.0, help="second Bessel argument")

    q = sub.add_parser("invert", help="numerical inverse Laplace transform of f_(alpha,t)", **fmt)
    q.add_argument("--alpha", type=float, required=True, help="family index in (0, 1)")
    q.add_argument("--t", type=float, required=True, help="power index t > 0")
    q.add_argument("--lambda", dest="lambdas", type=float, nargs="+", required=True,
                   help="evaluation points")
    q.add_argument("--method", choices=("bromwich", "branch-cut", "closed-form", "both"),
                   default="bromwich", help="inversion route")
    q.add_argument("--c", type=float, default=None, help="Bromwich abscissa (default: adaptive)")
    q.add_argument("--out", metavar="PATH", default=None, help="CSV artifact lambda,g,err")
    return p


# --------------------------------------------------------------------------
# subcommand bodies
# --------------------------------------------------------------------------

def _run_cm_check(args, report: RunReport):
    p = _family(args)
    given = [k for k in _CM_GRID if hasattr(args, k)]
    if args.method == "diff" and given:
        flags = ", ".join("--" + k.replace("_", "-") for k in given)
        raise _usage_fail(f"{flags}: --method diff scans its own x grid and takes no lambda grid")
    if args.method in ("invert", "both"):
        lam = {k: getattr(args, k, default) for k, default in _CM_GRID.items()}
        report.params.update(lam)
        grid = ScanGrid(lam["lambda_min"], lam["lambda_max"], lam["n"])
        report.add("cm_by_inversion", cm_check_by_inversion(p, grid, args.tol))
    if args.method in ("diff", "both"):
        f = lambda x: np.real(f_family(np.asarray(x, dtype=complex), p))
        report.add("cm_by_differences", cm_check_by_differences(f, tol=max(args.tol, 1e-9)))


def _run_hcm_check(args, report: RunReport):
    p = _family(args)
    u_grid = ScanGrid(args.u_min, args.u_max, args.u_n)
    w_grid = ScanGrid(args.w_min, args.w_max, args.w_n)
    report.add("hcm", hcm_check_family(p, u_grid, w_grid, args.order, tol=args.tol))


def _run_pick_scan(args, report: RunReport):
    p = _family(args)
    levels = tuple(float(v) for v in args.im_levels.split(","))
    scan = HalfPlaneScan(re_range=(args.re_min, args.re_max), im_levels=levels,
                         n_per_level=args.n_per_level)
    report.add("pick", ggc_pick_scan(p, scan, tol=args.tol))
    if args.emit_figure2:
        stem = args.emit_figure2
        stem = stem[:-4] if stem.endswith(".csv") else stem
        grid = ScanGrid(args.re_min, args.re_max, args.n_per_level, "linear")
        for level, tag in ((1.0, "im1.0"), (0.1, "im0.1")):
            path = f"{stem}-{tag}.csv"
            write_figure2_csv(path, figure2_data(p, level, grid))
            report.artifacts.append(path)


def _run_critical_t(args, report: RunReport):
    if not 0.0 < args.alpha <= 0.5:
        raise _usage_fail("--alpha must lie in (0, 1/2] for the critical index")
    grid = ScanGrid(getattr(args, "lambda_min"), getattr(args, "lambda_max"), args.n)
    trace = []
    try:
        t_lo, t_hi = estimate_critical_t(args.alpha, args.bisect_tol, grid,
                                         on_probe=lambda t, v: trace.append(
                                             {"t": t, "status": v.status,
                                              "min_g": _jsonable(v.witness[1])}))
    except InconclusiveError as exc:
        report.params["trace"] = trace
        report.add("critical_t", Verdict(INCONCLUSIVE, args.bisect_tol, detail=str(exc)))
        return
    report.params["bracket"] = {"t_lo": t_lo, "t_hi": t_hi}
    report.params["trace"] = trace
    report.params["beta_hat_upper"] = 1.0 / t_lo  # 1/t bracket for the GGC power
    report.add("critical_t", Verdict(PASS, args.bisect_tol, witness=(t_lo, t_hi),
                                     detail=f"CM for t <= {t_lo:.6g}, not CM by t = {t_hi:.6g} "
                                            "at the scanned resolution (evidence, not proof)"))


def _run_mc_verify(args, report: RunReport):
    check = args.check
    if check == "T-density":
        report.add(check, mc.verify_T_density(args.alpha, args.n, args.seed))
    elif check == "zinv-factorization":
        report.add(check, mc.verify_factorization_zinv(args.n_gamma, args.n, args.seed))
    elif check == "sqrt-gamma":
        report.add(check, mc.verify_sqrt_gamma_product_density(args.t, args.s, args.n, args.seed))
    elif check == "bessel-product":
        report.add(check, mc.verify_bessel_product_formula(args.alpha, args.x, args.y))
    elif check == "stable-laplace":
        report.add(check, mc.verify_stable_laplace(args.alpha, sample_n=args.n, seed=args.seed))
    elif check == "kanter-cm":
        report.add(check, mc.verify_kanter_cm(args.alpha))


_INVERT_TOL = 1e-6  # c03's tolerance, for the route gap and for each route's est_error


def _run_invert(args, report: RunReport):
    p = _family(args)
    lams = np.asarray(sorted(args.lambdas), dtype=float)
    methods = ("bromwich", "branch_cut") if args.method == "both" else \
        (args.method.replace("-", "_"),)
    # From t = 1 - alpha on, poles enter and the cut representation no longer holds.  That is
    # a regime limit, not a usage error, once the lam themselves are valid for the route.
    cut_blocked = not p.t < 1.0 - p.alpha and bool(np.all(np.isfinite(lams) & (lams >= 0.0)))
    rows = {}
    for m in methods:
        if m == "branch_cut" and cut_blocked:
            report.add("branch_cut_regime", Verdict(INCONCLUSIVE, _INVERT_TOL, detail=(
                f"the branch-cut route needs a pole-free continuation, t < 1 - alpha = "
                f"{1.0 - p.alpha:.6g}, got t = {p.t:.6g}; past it the poles' residues "
                "would have to be added, which it does not do")))
            continue
        res = invert_grid(p, lams, method=m, c=args.c)
        rows[m] = res
        report.params.setdefault("results", {})[m] = {
            "lambda": _jsonable(res.lambdas), "g": _jsonable(res.values),
            "est_error": res.est_error,
        }
    if args.out and rows:
        res = rows[methods[0]]
        with open(args.out, "w") as fh:
            fh.write("lambda,g,err\n")
            for lam, g in zip(res.lambdas, res.values):
                fh.write(f"{lam:.15g},{g:.15g},{res.est_error:.15g}\n")
        report.artifacts.append(args.out)
    if len(rows) == 2:
        a, b = rows["bromwich"].values, rows["branch_cut"].values
        gap = float(np.max(np.abs(a - b)))
        # a gap is certified only once both routes' own error estimates are taken off it
        slack = rows["bromwich"].est_error + rows["branch_cut"].est_error
        status = (PASS if gap <= _INVERT_TOL else
                  FAIL if gap - slack > _INVERT_TOL else INCONCLUSIVE)
        report.add("method_agreement", Verdict(status, _INVERT_TOL, witness=(float(lams[int(np.argmax(np.abs(a - b)))]), gap),
                                               detail=f"max |bromwich - branch_cut| = {gap:.3e}, "
                                                      f"summed est_error {slack:.3e}"))
    # a value whose error estimate swamps it has no reliable sign; say so
    unresolved = [(m, res.est_error) for m, res in rows.items()
                  if res.est_error > _INVERT_TOL * max(1.0, float(np.max(np.abs(res.values))))]
    if unresolved:
        report.add("unresolved", Verdict(
            INCONCLUSIVE, _INVERT_TOL, witness=unresolved,
            detail=f"est_error above {_INVERT_TOL:g} max(1, max|g|) on " +
                   ", ".join(f"{m} ({e:.3e})" for m, e in unresolved)))


_RUNNERS = {
    "cm-check": _run_cm_check,
    "hcm-check": _run_hcm_check,
    "pick-scan": _run_pick_scan,
    "critical-t": _run_critical_t,
    "mc-verify": _run_mc_verify,
    "invert": _run_invert,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EX_USAGE
    if not getattr(args, "tol", 0.0) >= 0.0:  # NaN too; below 0, a positive value would FAIL
        sys.stderr.write(f"error: --tol must be >= 0, got {args.tol}\n")
        return EX_USAGE
    params = {k: _jsonable(v) for k, v in vars(args).items() if k != "cmd"}
    report = RunReport(command=args.cmd, params=params)
    start = time.perf_counter()
    try:
        _RUNNERS[args.cmd](args, report)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EX_USAGE
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EX_USAGE
    except RuntimeError as exc:  # ConvergenceError and other numerical failures
        report.add("numerical_failure", Verdict(INCONCLUSIVE, getattr(args, "tol", 0.0),
                                                detail=f"{type(exc).__name__}: {exc}"))
    report.wall_time = time.perf_counter() - start
    return report.emit()


if __name__ == "__main__":
    raise SystemExit(main())
