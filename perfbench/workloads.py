"""Task lists, task execution and correctness checks for the hcmlab benchmark.

A workload is an endless sequence of rounds.  Round ``r`` of workload ``w``
under seed ``s`` is a pure function of ``(w, s, r)``: the kinds and strata of
its tasks are fixed, and the seed only jitters the inputs inside each stratum,
so every seed runs the same mix of task kinds.

A task is one public call that yields a verdict, bracket or KS report (or, for
``cli_cold``, one cold CLI process).  Each task kind has a check that counts the
task as failed when it raises or its answer contradicts a fact that
``tests/test_acceptance.py`` pins, at the same tolerance and margin (criterion
numbers in the comments).  Checks run after the timed loop, with tracing off.

This module imports nothing from hcmlab: execution and checks take the package
as an argument, so the caller controls the import (and tests can stub it).
"""

from __future__ import annotations

import json
import math
import random
import time

IN_PROCESS = ("cm_strip", "kernel_checks")
WORKLOADS = IN_PROCESS + ("cli_cold",)

DEFAULT_GRID = (0.05, 50.0, 40)  # cm_check_by_inversion's default lambda grid
KS_RETRY_BUMP = 1000             # c07: one rerun at seed + 1000, two failures are real
STRIP_RECHECK_TOL = 1e-6         # c03: two evaluations of g agree to 1e-6
POLE_TOL = 1e-10                 # c04: pole witness located to 1e-10

_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5)
_SEARCH_ALPHAS = (0.2, 0.3, 0.4, 0.5)


# --------------------------------------------------------------------------
# task lists
# --------------------------------------------------------------------------

def _task(kind: str, stratum: str, expect: str | None = None, **args) -> dict:
    """``expect`` is the verdict a pinned fact demands: PASS, FAIL, or FAIL at
    the exact pole ("pole"); None when only an exception counts."""
    return {"kind": kind, "stratum": stratum, "expect": expect, "args": args}


def _alpha_in(rng: random.Random, a0: float) -> float:
    """alpha jittered downward from a stratum base, so (0, 1/2] is kept."""
    return a0 - rng.uniform(0.0, 0.03)


def _lambdas(rng: random.Random, n: int) -> list:
    """n increasing points, one per equal slice of log10 lambda in [-1, 1]."""
    return [10.0 ** (-1.0 + 2.0 * (k + rng.random()) / n) for k in range(n)]


def _cm_strip(rng: random.Random, r: int) -> list:
    tasks = []
    for a0 in _ALPHAS:  # pole-free, below t = 1 - alpha with c02's 0.02 margin
        a = _alpha_in(rng, a0)
        tasks.append(_task("cm_inversion", "below", alpha=a, t=(1.0 - a) * rng.uniform(0.55, 0.95)))
    for a0 in _ALPHAS:  # the open strip 1 - alpha < t < 1
        a = _alpha_in(rng, a0)
        tasks.append(_task("cm_inversion", "strip", alpha=a,
                           t=1.0 - a + a * rng.uniform(0.15, 0.85)))
    for a0 in (0.2, 0.4):  # t = 1, where the closed form is known
        tasks.append(_task("cm_inversion", "t1", alpha=a0 + rng.uniform(-0.03, 0.03), t=1.0))
    for a0 in _SEARCH_ALPHAS[r % 2::2]:  # two searches, so the tail is not one outlier
        tasks.append(_task("critical_t", "search", alpha=a0 - rng.uniform(0.0, 0.01),
                           bisect_tol=0.01))
    for j, kind in enumerate(("invert_points", "invert_points", "invert_grid", "invert_grid")):
        a = rng.uniform(0.1, 0.45)
        tasks.append(_task(kind, "pole_free", alpha=a, t=1.0 - a - rng.uniform(0.05, 0.3),
                           lambdas=_lambdas(rng, 1 + (r + j) % 3)))
    return tasks


_KS_ROTATION = ("T_density", "half_stable", "zinv2", "zinv3", "sqrt_gamma")
KS_KINDS = _KS_ROTATION
_BESSEL_CASES = ((0.0, 1.0, 1.0), (1.0 / 6.0, 1.0, 2.0), (0.25, 0.5, 3.0))


def _kernel_checks(rng: random.Random, r: int) -> list:
    tasks = []
    for a0 in _ALPHAS:  # c04: HCM PASS for alpha <= 1/2, t <= 1 - alpha
        for frac in (0.3, 0.6, 0.9):
            a = _alpha_in(rng, a0)
            tasks.append(_task("hcm_family", "pole_free", "PASS", alpha=a,
                               t=(1.0 - a) * (frac + rng.uniform(-0.05, 0.05))))
    a = rng.uniform(0.55, 0.7)  # c04: alpha > 1/2 fails by increase at 0+
    tasks.append(_task("hcm_family", "alpha_gt_half", "FAIL", alpha=a,
                       t=(1.0 - a) * rng.uniform(0.3, 0.9)))
    a = rng.uniform(0.1, 0.5)  # c04: t > 1 - alpha fails at the pole, a 0.01 ms shortcut
    tasks.append(_task("hcm_family" if r % 2 == 0 else "pick_scan", "pole", "pole",
                       alpha=a, t=1.0 - a + rng.uniform(0.05, 0.1)))
    for a0 in (0.1, 0.2, 0.3, 0.4, 0.15, 0.25, 0.35, 0.45):  # c04/c05: alpha + eps < 1/2
        a = a0 + rng.uniform(-0.03, 0.03)
        eps = (0.5 - a) * rng.uniform(0.1, 0.9)
        tasks.append(_task("pick_scan", "pole_free", "PASS", alpha=a, t=1.0 - a - eps))
    for _ in range(3):  # c02: CM, so every difference is nonnegative
        a = rng.uniform(0.1, 0.5)
        tasks.append(_task("cm_differences", "pole_free", "PASS", alpha=a,
                           t=(1.0 - a - 0.02) * rng.uniform(0.3, 1.0)))
    tasks.append(_task("stieltjes", "alpha_le_half", alpha=rng.uniform(0.1, 0.5)))
    tasks.append(_task("kanter", "any_alpha", alpha=rng.uniform(0.1, 0.9)))
    for j in range(9):  # c06
        a0, x0, y0 = _BESSEL_CASES[j % 3]
        tasks.append(_task("bessel_product", "c06", "PASS", alpha=a0 + rng.uniform(-0.01, 0.01),
                           x=x0 * rng.uniform(0.95, 1.05), y=y0 * rng.uniform(0.95, 1.05)))
    tasks.append(_task("stable_laplace", "mc", alpha=rng.uniform(0.2, 0.8),
                       seed=rng.randrange(1, 2 ** 31)))
    # c07.  Each KS task is a false alarm with probability ~1e-4 (1% level,
    # one retry), so a run holds few of them: sqrt(gamma_1 gamma_1) every
    # other round, and the other identities in turn every fourth round.
    if r % 2 == 0:
        tasks.append(_ks_task(rng, "sqrt_gamma", t=1.0, s=1.0))
    elif r % 4 == 1:
        kind = _KS_ROTATION[(r // 4) % len(_KS_ROTATION)]
        shapes = {"t": 1.0 / 3.0, "s": 2.0 / 3.0} if kind == "sqrt_gamma" else {}
        tasks.append(_ks_task(rng, kind, **shapes))
    return tasks


def _ks_task(rng: random.Random, kind: str, **shapes) -> dict:
    args = {k: v * rng.uniform(0.97, 1.03) for k, v in shapes.items()}
    if kind == "T_density":
        args["alpha"] = rng.uniform(0.1, 0.9)
    return _task(kind, "c07", seed=rng.randrange(1, 2 ** 31), **args)


def _cli_cold(rng: random.Random, r: int) -> list:
    """The README's subcommands at their default sizes, jittered."""
    def fmt(x):
        return repr(float(x))

    a = 0.3 + rng.uniform(-0.02, 0.02)
    a_h = 0.2 + rng.uniform(-0.02, 0.02)
    a_p = 0.2 + rng.uniform(-0.02, 0.02)
    a_i = 0.25 + rng.uniform(-0.02, 0.02)
    t_i = 1.0 - a_i - rng.uniform(0.03, 0.06)  # c03 needs t < 1 - alpha
    seed = rng.randrange(1, 2 ** 31)
    return [
        _task("cli", "cm-check", argv=["cm-check", "--alpha", fmt(a),
                                       "--t", fmt((1.0 - a) * rng.uniform(0.9, 0.95))]),
        _task("cli", "hcm-check", argv=["hcm-check", "--alpha", fmt(a_h),
                                        "--t", fmt(0.9 + rng.uniform(-0.02, 0.02))]),
        _task("cli", "pick-scan", argv=["pick-scan", "--alpha", fmt(a_p),
                                        "--eps", fmt(0.1 + rng.uniform(-0.01, 0.01)),
                                        "--emit-figure2", "{work}/fig2.csv"]),
        _task("cli", "invert", argv=["invert", "--alpha", fmt(a_i), "--t", fmt(t_i),
                                     "--lambda", *map(fmt, _lambdas(rng, 3)),
                                     "--method", "both", "--out", "{work}/g.csv"]),
        _task("cli", "mc-verify T-density",
              argv=["mc-verify", "--check", "T-density", "--alpha",
                    fmt(0.3 + rng.uniform(-0.05, 0.05)), "--n", "100000", "--seed", str(seed)]),
        _task("cli", "mc-verify bessel-product",
              argv=["mc-verify", "--check", "bessel-product",
                    "--alpha", fmt(1.0 / 6.0 + rng.uniform(-0.01, 0.01)),
                    "--x", fmt(rng.uniform(0.95, 1.05)), "--y", fmt(2.0 * rng.uniform(0.95, 1.05))]),
        _task("cli", "mc-verify kanter-cm",
              argv=["mc-verify", "--check", "kanter-cm", "--alpha",
                    fmt(0.4 + rng.uniform(-0.05, 0.05))]),
    ]


_ROUNDS = {"cm_strip": _cm_strip, "kernel_checks": _kernel_checks, "cli_cold": _cli_cold}


def round_tasks(workload: str, seed: int, r: int) -> list:
    """Tasks of round r; the same (workload, seed, r) always gives the same list."""
    rng = random.Random(f"{workload}:{seed}:{r}")
    tasks = _ROUNDS[workload](rng, r)
    for j, task in enumerate(tasks):
        task["id"] = f"{r}.{j}"
    return tasks


# --------------------------------------------------------------------------
# execution: one public hcmlab call per task
# --------------------------------------------------------------------------

def _family(H, a):
    return H.FamilyParams(a["alpha"], a["t"])


def _f_real(H, p):
    import numpy as np

    return lambda x: np.real(H.f_family(np.asarray(x, dtype=complex), p))


def _invert_points(H, a):
    p = _family(H, a)
    return [(lam, H.bromwich_invert(p, lam), H.branch_cut_invert(lam, p)) for lam in a["lambdas"]]


def _invert_grid(H, a):
    p = _family(H, a)
    return (H.invert_grid(p, a["lambdas"], method="bromwich"),
            H.invert_grid(p, a["lambdas"], method="branch_cut"))


def _ks_call(kind: str, H, a, seed: int):
    n = 100_000
    if kind == "sqrt_gamma":
        return H.verify_sqrt_gamma_product_density(a["t"], a["s"], n, seed)
    if kind == "T_density":
        return H.verify_T_density(a["alpha"], n, seed)
    if kind == "half_stable":
        return H.verify_half_stable_gamma_identity(n, seed)
    return H.verify_factorization_zinv(int(kind[-1]), n, seed)


_EXECUTE = {
    "cm_inversion": lambda H, a: H.cm_check_by_inversion(_family(H, a)),
    "critical_t": lambda H, a: H.estimate_critical_t(a["alpha"], a["bisect_tol"]),
    "invert_points": _invert_points,
    "invert_grid": _invert_grid,
    "hcm_family": lambda H, a: H.hcm_check_family(_family(H, a)),
    "pick_scan": lambda H, a: H.ggc_pick_scan(_family(H, a)),
    "cm_differences": lambda H, a: H.cm_check_by_differences(_f_real(H, _family(H, a))),
    "stieltjes": lambda H, a: H.stieltjes_probe(a["alpha"]),
    "kanter": lambda H, a: H.verify_kanter_cm(a["alpha"]),
    "bessel_product": lambda H, a: H.verify_bessel_product_formula(a["alpha"], a["x"], a["y"]),
    "stable_laplace": lambda H, a: H.verify_stable_laplace(a["alpha"], sample_n=100_000,
                                                           seed=a["seed"]),
}


def execute(H, task: dict):
    """Run one in-process task against the hcmlab package H."""
    kind, args = task["kind"], task["args"]
    if kind in KS_KINDS:
        return _ks_call(kind, H, args, args["seed"])
    return _EXECUTE[kind](H, args)


# --------------------------------------------------------------------------
# checks: (ok, reason, value); value is what the run record keeps
# --------------------------------------------------------------------------

def _verdict_value(v) -> dict:
    return {"status": v.status, "witness": jsonable(v.witness)}


def _pole_witness_ok(v, a) -> bool:
    theta = (1.0 - a["alpha"]) * math.pi / a["t"]
    (re, im), _ = v.witness
    return abs(re - math.cos(theta)) <= POLE_TOL and abs(im - math.sin(theta)) <= POLE_TOL


def _check_cm_inversion(H, task, v):
    a, stratum = task["args"], task["stratum"]
    value = _verdict_value(v)
    if v.status == "INCONCLUSIVE":
        return False, f"inconclusive: {v.detail}", value
    if stratum == "below":  # c02
        return v.passed, "expected PASS below t = 1 - alpha", value
    p = _family(H, a)
    lam_w, g_w = v.witness
    if stratum == "strip":  # witness value again at abscissa 1.3 c
        c = H.laplace.default_abscissa(p, lam_w)
        g_c13 = H.bromwich_invert(p, lam_w, c=1.3 * c)
        value["g_at_1.3c"] = g_c13
        return (abs(g_c13 - g_w) <= STRIP_RECHECK_TOL,
                f"witness g = {g_w:.3e} but {g_c13:.3e} at 1.3c", value)
    # c01: the t = 1 closed form, at the witness and as the grid's verdict
    lo, hi, n = DEFAULT_GRID
    grid = [lo * (hi / lo) ** (k / (n - 1)) for k in range(n)]
    exact = [H.closed_form_inverse_t1(lam, a["alpha"]) for lam in grid]
    exact_w = H.closed_form_inverse_t1(lam_w, a["alpha"])
    expect_fail = min(exact) < -1e-8 * max(1.0, max(abs(g) for g in exact))
    ok = abs(g_w - exact_w) <= 1e-7 * max(1.0, abs(exact_w)) and v.failed == expect_fail
    return ok, f"closed form {exact_w:.6e} at the witness, expected FAIL={expect_fail}", value


def _check_critical_t(H, task, bracket):  # c09
    a = task["args"]
    lo, hi = bracket
    ok = lo >= 1.0 - a["alpha"] - 1e-9 and hi <= 1.0 and hi - lo <= a["bisect_tol"] + 1e-12
    return ok, f"bracket [{lo}, {hi}]", {"bracket": [lo, hi]}


def _check_invert_points(H, task, rows):  # c03
    gap = max(abs(b - k) for _, b, k in rows)
    return gap <= 1e-6, f"route gap {gap:.3e}", {"g_bromwich": [b for _, b, _ in rows],
                                                  "g_branch_cut": [k for _, _, k in rows]}


def _check_invert_grid(H, task, res):  # c03
    b, k = res
    gap = max(abs(float(x) - float(y)) for x, y in zip(b.values, k.values))
    return gap <= 1e-6, f"route gap {gap:.3e}", {"g_bromwich": jsonable(b.values),
                                                  "g_branch_cut": jsonable(k.values),
                                                  "est_error": b.est_error}


def _check_expected(H, task, v):
    value = _verdict_value(v)
    expect = task["expect"]
    if expect is None:  # not pinned by the acceptance suite: only an exception counts
        return True, "", value
    if expect == "pole":
        return v.failed and _pole_witness_ok(v, task["args"]), "expected the exact pole witness", value
    return v.status == expect, f"expected {expect}", value


def _check_ks(H, task, report):  # c07
    value = {"statistic": report.statistic, "threshold": report.threshold, "passed": report.passed}
    if report.passed:
        return True, "", value
    retry = _ks_call(task["kind"], H, task["args"], task["args"]["seed"] + KS_RETRY_BUMP)
    value["retry_statistic"] = retry.statistic
    return retry.passed, "KS above the 1% threshold twice", value


_CHECK = {
    "cm_inversion": _check_cm_inversion,
    "critical_t": _check_critical_t,
    "invert_points": _check_invert_points,
    "invert_grid": _check_invert_grid,
}


def check(H, task: dict, result, error: str | None) -> dict:
    """Record of one finished task; ``ok`` is False when it failed."""
    rec = {"id": task["id"], "kind": task["kind"], "stratum": task["stratum"],
           "args": task["args"]}
    if error is not None:
        rec.update(ok=False, reason=error)
        return rec
    try:
        check_fn = _check_ks if task["kind"] in KS_KINDS else _CHECK.get(task["kind"], _check_expected)
        ok, reason, value = check_fn(H, task, result)
    except Exception as exc:  # a check that cannot recompute its fact fails the task
        ok, reason, value = False, f"check raised {type(exc).__name__}: {exc}", None
    rec.update(ok=bool(ok), value=value)
    if not ok:
        rec["reason"] = reason
    return rec


def _options(argv: list) -> dict:
    return {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}


def _cli_verdict(task, code, report, rerun):
    """(ok, reason) for one CLI report; ``rerun(argv)`` gives (code, stdout)."""
    sub = task["stratum"]
    opts = _options(task["args"]["argv"])
    v = report["verdicts"][0]
    if sub == "cm-check":  # c02
        return code == 0 and v["status"] == "PASS", "expected PASS below t = 1 - alpha"
    if sub == "hcm-check":  # c04
        theta = (1.0 - float(opts["--alpha"])) * math.pi / float(opts["--t"])
        (re, im), _ = v["witness"]
        ok = (code == 1 and v["status"] == "FAIL" and abs(re - math.cos(theta)) <= POLE_TOL
              and abs(im - math.sin(theta)) <= POLE_TOL)
        return ok, "expected the exact pole witness"
    if sub == "pick-scan":  # c04
        return code == 0 and v["status"] == "PASS", "expected PASS with alpha + eps < 1/2"
    if sub == "invert":  # c03
        res = report["params"]["results"]
        gap = max(abs(b - k) for b, k in zip(res["bromwich"]["g"], res["branch_cut"]["g"]))
        return code == 0 and gap <= 1e-6, f"route gap {gap:.3e}"
    if sub == "mc-verify T-density":  # c07
        if code == 0 and v["status"] == "PASS":
            return True, ""
        argv = list(task["args"]["argv"])
        i = argv.index("--seed") + 1
        argv[i] = str(int(argv[i]) + KS_RETRY_BUMP)
        code2, out2 = rerun(argv)
        return code2 == 0, "KS above the 1% threshold twice"
    if sub == "mc-verify bessel-product":  # c06
        return code == 0 and v["status"] == "PASS", "expected PASS to relative 1e-8"
    return code in (0, 1, 2), f"exit code {code}"


def check_cli(task: dict, code: int, stdout: str, rerun) -> dict:
    """Record of one CLI process; it failed without a report or on a wrong answer."""
    rec = {"id": task["id"], "kind": task["kind"], "stratum": task["stratum"],
           "args": task["args"], "exit_code": code}
    try:
        report = json.loads(stdout)
        ok, reason = _cli_verdict(task, code, report, rerun)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        rec.update(ok=False, reason=f"exit {code}, unreadable report: {type(exc).__name__}: {exc}")
        return rec
    rec.update(ok=bool(ok), value=report["verdicts"])
    if not ok:
        rec["reason"] = reason
    return rec


def jsonable(obj):
    """Plain JSON types for verdict witnesses, arrays and numpy scalars."""
    if obj is None or isinstance(obj, (str, bool, int, float)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if hasattr(obj, "tolist"):
        return jsonable(obj.tolist())
    return str(obj)


# --------------------------------------------------------------------------
# the closed loop
# --------------------------------------------------------------------------

def closed_loop(workload: str, seed: int, run_one, seconds: float | None = None,
                rounds: int | None = None) -> tuple:
    """Run whole rounds, one task after another; returns (outcomes, rounds, wall).

    Stops at the first round boundary after ``seconds`` of loop time, or
    after ``rounds`` rounds.  Whole rounds keep the task mix identical for
    every seed.  ``outcomes`` pairs each task with ``run_one(task)``.
    """
    if (seconds is None) == (rounds is None):
        raise ValueError("give exactly one of seconds and rounds")
    outcomes = []
    r = 0
    start = time.perf_counter()
    while True:
        for task in round_tasks(workload, seed, r):
            outcomes.append((task, run_one(task)))
        r += 1
        if (rounds is not None and r >= rounds) or \
                (seconds is not None and time.perf_counter() - start >= seconds):
            break
    return outcomes, r, time.perf_counter() - start


def run_rounds(H, workload: str, seed: int, seconds: float | None = None,
               rounds: int | None = None, tracer=None) -> dict:
    """The in-process closed loop; every answer is checked after it ends.

    With a tracer each task is a root span ``bench.task``, and tracing is
    switched off before the checks run.
    """
    def run_one(task):
        result, error = None, None
        t0 = time.perf_counter()
        span = tracer.open("bench.task") if tracer is not None else None
        try:
            result = execute(H, task)
        except Exception as exc:  # counted as a failed task, the loop goes on
            error = f"raised {type(exc).__name__}: {exc}"
        if span is not None:
            tracer.close(span)
        return result, error, time.perf_counter() - t0

    outcomes, r, wall = closed_loop(workload, seed, run_one, seconds, rounds)
    if tracer is not None:
        tracer.enabled = False
    records = []
    for task, (result, error, latency) in outcomes:
        rec = check(H, task, result, error)
        rec["latency_s"] = latency
        records.append(rec)
    return {"rounds": r, "wall_s": wall, "records": records}
