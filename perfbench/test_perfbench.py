"""Self-tests of the benchmark.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hcmlab  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_task_list_is_a_pure_function_of_workload_and_seed(workload):
    for r in range(4):
        a = workloads.round_tasks(workload, 7, r)
        assert a == workloads.round_tasks(workload, 7, r)
        b = workloads.round_tasks(workload, 8, r)
        assert [(t["kind"], t["stratum"]) for t in a] == [(t["kind"], t["stratum"]) for t in b]
        assert [t["args"] for t in a] != [t["args"] for t in b]


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.GATED)
    for m in BENCH["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    assert [m["name"] for m in BENCH["per_layer"]] == list(run.PER_LAYER)
    for m in BENCH["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_every_end_to_end_metric_is_printed_with_its_unit():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "kernel_checks",
                          "--seed", "3", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.strip().splitlines()
    for name, unit in run.END_TO_END.items():
        assert any(ln.startswith(f"{name} = ") and ln.endswith(f" {unit}") for ln in lines), name
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in BENCH["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0.0


def _traced_round(workload):
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        res = workloads.run_rounds(hcmlab, workload, 5, rounds=1, tracer=tracer)
    finally:
        uninstall()
    return res, tracer.summary()


@pytest.mark.parametrize("workload", workloads.IN_PROCESS)
def test_traced_self_times_fit_in_the_wall_time_and_bypasses_hold(workload):
    res, layers = _traced_round(workload)
    assert all(rec["ok"] for rec in res["records"])
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert 0.0 < self_total <= res["wall_s"]
    if workload == "kernel_checks":
        assert not [k for k, v in layers.items() if k.startswith("laplace.") and v]
        assert layers.get("quadrature.quad_checked.calls", 0) == 0
    else:
        assert layers.get("specfun.bessel_k.calls", 0) == 0
        assert layers["specfun.f_family_prime.calls"] > 0
        assert layers["monotone.estimate_critical_t.probes"] > 0
    assert hcmlab.specfun.f_family_prime.__name__ == "f_family_prime"  # wrappers removed


def test_a_flipped_verdict_raises_the_error_rate(monkeypatch):
    real = hcmlab.hcm_check_family

    def flipped(p, *args, **kwargs):
        v = real(p, *args, **kwargs)
        status = "FAIL" if v.passed else "PASS"
        return dataclasses.replace(v, status=status, witness=v.witness or ((0.0, 0.0), -1.0))

    monkeypatch.setattr(hcmlab, "hcm_check_family", flipped)
    res = workloads.run_rounds(hcmlab, "kernel_checks", 5, rounds=1)
    failed = [rec for rec in res["records"] if not rec["ok"]]
    assert failed and all(rec["kind"] == "hcm_family" for rec in failed)
    hcm = [rec for rec in res["records"] if rec["kind"] == "hcm_family"]
    assert len(failed) == len(hcm)
