"""hcmlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see NOTES.md): ``cm_strip`` and ``kernel_checks`` run public hcmlab
calls in one fresh worker interpreter; ``cli_cold`` runs one cold
``python -m hcmlab.cli`` process per task.  The loop is closed with a single
client: one task after another, no threads, no parallel workers.

With ``--trace 0`` the run measures for ``--seconds`` (whole rounds, so every
seed runs the same task mix) and reports the end-to-end metrics.  With
``--trace 1`` it runs a fixed number of rounds twice, untraced and then with
span wrappers installed, and reports the per-layer metrics and the tracing
overhead.  Every answer is checked; the run record, with the computed values,
goes to ``perfbench/out/``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = OUT / "work"

SETUP_SPAWNS = 5          # one spawn varies by about 12%; report the median
TRACE_ROUNDS = {"cm_strip": 4, "kernel_checks": 8, "cli_cold": 1}
RUN_BUDGET_S = 170.0      # the whole run, children included, must end by 180 s

END_TO_END = {            # printed by every run; error_rate is not in BENCHMARK.json
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
}
GATED = ("setup_s", "verdicts_per_s", "verdict_p50_ms", "verdict_tail_ms", "peak_rss_mb")

PER_LAYER = (
    "quadrature.quad_checked.calls", "quadrature.quad_checked.evals",
    "quadrature.quad_checked.self_s", "quadrature.quad_checked.errors",
    "specfun.f_family_prime.calls", "specfun.f_family_prime.points",
    "specfun.f_family_prime.self_s",
    "laplace.bromwich_invert.calls", "laplace.bromwich_invert.self_s",
    "quadrature.oscillatory_tail.self_s",
    "laplace.branch_cut_invert.calls", "laplace.branch_cut_invert.self_s",
    "laplace.invert_grid.self_s",
    "monotone.estimate_critical_t.calls", "monotone.estimate_critical_t.probes",
    "monotone.estimate_critical_t.self_s",
    "monotone.cm_check_by_inversion.calls", "monotone.cm_check_by_inversion.self_s",
    "specfun.bessel_k.calls", "specfun.bessel_k.self_s",
    "densities.density_sqrt_gamma_product.points", "densities.density_sqrt_gamma_product.self_s",
    "quadrature.tanh_sinh.calls", "quadrature.tanh_sinh.evals", "quadrature.tanh_sinh.self_s",
    "specfun.f_family.calls", "specfun.f_family.points", "specfun.f_family.self_s",
    "monotone.hcm_check.self_s", "monotone.cm_check_by_differences.self_s",
    "pick.ggc_pick_scan.self_s", "pick.h_value.points",
    "montecarlo.sample.draws", "montecarlo.sample.self_s",
    "montecarlo.ks.self_s", "densities.cdf_T_alpha.self_s",
    "cli.import_s", "cli.main.self_s", "cli.process_s",
    "trace.wall_s", "trace.overhead_s",
)


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


class RunError(RuntimeError):
    """A child process failed or the run budget ran out."""


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------

_START = time.perf_counter()


def _remaining() -> float:
    left = RUN_BUDGET_S - (time.perf_counter() - _START)
    if left <= 0.0:
        raise RunError("run budget exhausted")
    return left


@contextlib.contextmanager
def _time_limit(seconds: float):
    def on_alarm(signum, frame):
        raise TimeoutError(f"child still running after {seconds:.0f} s")
    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list, stdout_path: Path) -> tuple:
    """Run argv to exit; returns (exit code, exec-to-exit seconds, max RSS kB).

    stdout goes to a file, so a large report cannot block the child, and
    ``wait4`` gives this child's own peak resident memory.
    """
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, env=_env(), cwd=ROOT)
        try:
            with _time_limit(_remaining()):
                _, status, usage = os.wait4(proc.pid, 0)
        except (TimeoutError, RunError):
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss


_SETUP_CODE = """\
import sys
import hcmlab
sys.stdout.write("ready\\n")
sys.stdout.flush()
import json, numpy, scipy
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__}))
"""


def setup_spawn() -> tuple:
    """Seconds from spawning an interpreter until ``import hcmlab`` returns."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _SETUP_CODE], stdout=subprocess.PIPE,
                            env=_env(), cwd=ROOT)
    try:
        with _time_limit(_remaining()):
            ready = proc.stdout.readline()
            t1 = time.perf_counter()
            rest = proc.stdout.read()
            proc.wait()
    except (TimeoutError, RunError):
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if ready != b"ready\n" or proc.returncode != 0:
        raise RunError(f"import hcmlab failed (exit {proc.returncode})")
    return t1 - t0, json.loads(rest)


def run_worker(workload: str, seed: int, limit: list, spans: Path | None = None) -> dict:
    out_path = WORK / f"worker-{workload}.json"
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), *limit]
    if spans is not None:
        argv += ["--spans", str(spans)]
    code, elapsed, _ = spawn(argv, out_path)
    if code != 0:
        raise RunError(f"worker exited with {code}")
    res = json.loads(out_path.read_text())
    res["process_s"] = elapsed
    return res


def run_cli_task(argv: list, boot_stem: Path | None = None) -> tuple:
    """One cold CLI process; returns (exit code, seconds, max RSS kB, stdout)."""
    argv = [a.format(work=WORK) for a in argv]
    if boot_stem is None:
        cmd = [sys.executable, "-m", "hcmlab.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_boot.py"), str(boot_stem), *argv]
    out_path = WORK / "cli-stdout.json"
    code, elapsed, rss = spawn(cmd, out_path)
    return code, elapsed, rss, out_path.read_text()


def _rerun_cli(argv: list) -> tuple:
    code, _, _, stdout = run_cli_task(argv)
    return code, stdout


def run_cli(seed: int, seconds: float | None = None, rounds: int | None = None,
            trace_dir: Path | None = None) -> dict:
    """The cli_cold closed loop; answers are checked after the loop ends."""
    def run_one(task):
        stem = trace_dir / task["id"] if trace_dir is not None else None
        return run_cli_task(task["args"]["argv"], stem)

    outcomes, r, wall = workloads.closed_loop("cli_cold", seed, run_one, seconds, rounds)
    records = []
    for task, (code, elapsed, rss, stdout) in outcomes:
        rec = workloads.check_cli(task, code, stdout, _rerun_cli)
        rec.update(latency_s=elapsed, maxrss_kb=rss)
        records.append(rec)
    res = {"rounds": r, "wall_s": wall, "records": records,
           "maxrss_kb": max(rec["maxrss_kb"] for rec in records)}
    if trace_dir is not None:
        layers = {}
        for task, _ in outcomes:
            for key, val in json.loads((trace_dir / f"{task['id']}.json").read_text()).items():
                layers[key] = layers.get(key, 0) + val
        layers["cli.process_s"] = sum(rec["latency_s"] for rec in records)
        res["layers"] = layers
    return res


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def tail_latency(latencies: list) -> tuple:
    """(value, percentile, tasks): the highest percentile with >= 10 tasks beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    i = n - 11 if n >= 11 else n - 1
    return xs[i], 100.0 * (i + 1) / n, n


def end_to_end(res: dict, setup_samples: list) -> tuple:
    lat = [rec["latency_s"] for rec in res["records"]]
    failed = sum(not rec["ok"] for rec in res["records"])
    tail, pct, n = tail_latency(lat)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "verdicts_per_s": len(lat) / res["wall_s"],
        "verdict_p50_ms": 1e3 * statistics.median(lat),
        "verdict_tail_ms": 1e3 * tail,
        "error_rate": failed / len(lat),
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
    }
    return metrics, {"value_ms": 1e3 * tail, "percentile": pct, "tasks": n}


def per_layer(untraced: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    if "process_s" in traced:  # in-process workloads: the worker is the traced process
        layers["cli.import_s"] = traced["import_s"]
        layers["cli.process_s"] = traced["process_s"]
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return {name: layers.get(name, 0.0 if layer_unit(name) == "s" else 0) for name in PER_LAYER}


def src_line_count() -> int:
    """Newlines in src/hcmlab/*.py, as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (SRC / "hcmlab").glob("*.py"))


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """One run; returns (result line, run record)."""
    WORK.mkdir(parents=True, exist_ok=True)
    spawns = [setup_spawn() for _ in range(1 if trace else SETUP_SPAWNS)]
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "nproc": len(os.sched_getaffinity(0)), **spawns[0][1],
              "src_hcmlab_lines": src_line_count()}
    if not trace:
        if workload == "cli_cold":
            res = run_cli(seed, seconds=seconds)
        else:
            res = run_worker(workload, seed, ["--seconds", str(seconds)])
        samples = [s for s, _ in spawns]
        values, tail = end_to_end(res, samples)
        record.update(setup_samples_s=samples, verdict_tail=tail)
        units, reported = END_TO_END, GATED
        passes = [res]
    else:
        rounds = TRACE_ROUNDS[workload]
        if workload == "cli_cold":
            trace_dir = OUT / f"{workload}-seed{seed}-spans"
            trace_dir.mkdir(exist_ok=True)
            untraced = run_cli(seed, rounds=rounds)
            traced = run_cli(seed, rounds=rounds, trace_dir=trace_dir)
        else:
            untraced = run_worker(workload, seed, ["--rounds", str(rounds)])
            traced = run_worker(workload, seed, ["--rounds", str(rounds)],
                                spans=OUT / f"{workload}-seed{seed}-spans.npz")
        values = per_layer(untraced, traced)
        units, reported = {name: layer_unit(name) for name in PER_LAYER}, PER_LAYER
        passes = [untraced, traced]
    records = [rec for res in passes for rec in res["records"]]
    failed = sum(not rec["ok"] for rec in records)
    record.update(rounds=[res["rounds"] for res in passes],
                  metrics={name: (values[name], unit) for name, unit in units.items()},
                  tasks=records)
    line = {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in reported}}
    return line, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hcmlab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no hcmlab sources under {SRC}\n")
        return 2
    try:
        line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RunError, TimeoutError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for name, (value, unit) in record["metrics"].items():
        print(f"{name} = {value!r} {unit}")
    for rec in record["tasks"]:
        if not rec["ok"]:
            print(f"failed task {rec['id']} {rec['kind']}/{rec['stratum']}: {rec['reason']}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
