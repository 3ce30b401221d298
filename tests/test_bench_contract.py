"""What the benchmark in perfbench/ reads of hcmlab, checked without running it.

The benchmark wraps the functions named in ``perfbench/tracing.TARGETS`` by
module and name, recomputes the default Bromwich abscissa, reads the fields
of ``KsReport`` and ``Verdict``, and checks each task's answer against a
pinned fact.  A refactor that renames any of them, or moves an answer the
benchmark checks, breaks a benchmark run; these tests make it break the
suite first.  Nothing under perfbench/ is changed.
"""

import dataclasses
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hcmlab
from hcmlab.montecarlo import KsReport
from hcmlab.monotone import Verdict

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)  # standard library only at import
    return mod


def test_every_traced_target_resolves():
    targets = _load("tracing").TARGETS
    assert targets
    for module, name, _, _ in targets:
        assert callable(getattr(importlib.import_module(f"hcmlab.{module}"), name)), (module, name)


def test_default_abscissa_exists():
    assert callable(hcmlab.laplace.default_abscissa)


def test_ks_report_fields():
    fields = {f.name for f in dataclasses.fields(KsReport)}
    assert {"statistic", "threshold", "passed"} <= fields


def test_verdict_fields():
    v = Verdict("FAIL", 1e-9, witness=(1.0, -1.0), detail="d")
    assert (v.status, v.witness, v.passed, v.failed, v.detail) == ("FAIL", (1.0, -1.0), False, True, "d")


@pytest.mark.parametrize("workload", ["kernel_checks", "cm_strip"])
def test_first_rounds_pass_their_checks(workload):
    # rounds 0 and 1 at seed 1, each task run and checked as a benchmark run does
    workloads = _load("workloads")
    for r in (0, 1):
        for task in workloads.round_tasks(workload, 1, r):
            result, error = None, None
            try:
                result = workloads.execute(hcmlab, task)
            except Exception as exc:
                error = f"raised {type(exc).__name__}: {exc}"
            rec = workloads.check(hcmlab, task, result, error)
            assert rec["ok"], rec


def test_cli_cold_first_round_passes_its_checks(tmp_path):
    # round 0 at seed 1: each argv in a cold ``python -m hcmlab.cli`` process,
    # its report checked as a benchmark run checks it
    workloads = _load("workloads")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def run(argv):
        argv = [a.format(work=tmp_path) for a in argv]
        proc = subprocess.run([sys.executable, "-m", "hcmlab.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        return proc.returncode, proc.stdout

    tasks = workloads.round_tasks("cli_cold", 1, 0)
    assert len(tasks) == 7
    for task in tasks:
        rec = workloads.check_cli(task, *run(task["args"]["argv"]), run)
        assert rec["ok"], rec
