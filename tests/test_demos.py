"""Every script in demos/ runs to completion in a fresh interpreter.

Each demo runs with ``src`` on ``PYTHONPATH``, RuntimeWarnings as errors
(as in the suite itself), and ``tmp_path`` as its working directory, since
``pick_criterion_scan.py`` writes its CSV files there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
