"""Start-up guard: scipy never loads, and no package module imports scipy or mpmath.

``import hcmlab``, every subcommand and the scalar-quadrature paths (the
forward transform, the density normalizations and the sign-change lemma)
run on numpy alone, and no module of the package imports scipy; its
import would be most of a cold CLI process.
Each run case uses a fresh interpreter, and the assertions are on
``sys.modules``, not on times.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_CHILD = """\
import json, sys
import hcmlab
import hcmlab.cli
argv = json.loads(sys.argv[1])
code = hcmlab.cli.main(argv) if argv else None
sys.stdout.write("\\n" + json.dumps({"code": code, "modules": sorted(sys.modules)}) + "\\n")
"""


_LIBRARY_CHILD = """\
import json, math, sys
from hcmlab import DensitySpec, laplace_forward, sign_change_lemma_check
kinds = [("T_alpha", (0.3,)), ("gamma", (0.5,)), ("sqrt_gamma_product", (1.0, 1.0)),
         ("sqrt_Z_one_third", ()), ("f_family_normalized", (0.3, 0.75))]
out = {"forward": laplace_forward(lambda lam: 1.0, 2.0),
       "masses": [DensitySpec(kind, params).mass() for kind, params in kinds],
       "lemma": sign_change_lemma_check(lambda x: (x - 1.0) * math.exp(-x), (0.1, 10.0)).passed,
       "modules": sorted(sys.modules)}
sys.stdout.write(json.dumps(out) + "\\n")
"""


def fresh_stdout(child, *args):
    """stdout lines of the script ``child`` run by a fresh interpreter with src on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", child, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def run_fresh(argv):
    """(exit code, report or None, loaded module names) of one fresh interpreter."""
    lines = fresh_stdout(_CHILD, json.dumps(argv))
    tail = json.loads(lines[-1])
    report = json.loads(lines[0]) if len(lines) > 1 else None
    return tail["code"], report, set(tail["modules"])


def test_import_leaves_scipy_unloaded():
    _, _, modules = run_fresh([])
    assert "hcmlab" in modules and "numpy" in modules
    assert "scipy" not in modules


SCIPY_FREE = {
    "cm-check": ["cm-check", "--alpha", "0.3", "--t", "0.65", "--n", "20"],
    "hcm-check": ["hcm-check", "--alpha", "0.2", "--t", "0.9"],
    "pick-scan": ["pick-scan", "--alpha", "0.2", "--eps", "0.1", "--n-per-level", "200",
                  "--emit-figure2", "{tmp}/fig2.csv"],
    "critical-t": ["critical-t", "--alpha", "0.3", "--bisect-tol", "0.05", "--n", "30"],
    "invert-bromwich": ["invert", "--alpha", "0.3", "--t", "0.5", "--lambda", "0.5", "2",
                        "--method", "bromwich"],
    "invert-both": ["invert", "--alpha", "0.25", "--t", "0.7", "--lambda", "0.5", "1",
                    "--method", "both"],
    # lam = 0 is the total kernel integral, head on the panel rule plus series tail
    "invert-branch-cut-zero": ["invert", "--alpha", "0.25", "--t", "0.7", "--lambda", "0", "1",
                               "--method", "branch-cut"],
    "mc-T-density": ["mc-verify", "--check", "T-density", "--alpha", "0.3", "--n", "5000"],
    "mc-bessel-product": ["mc-verify", "--check", "bessel-product", "--alpha", "0.166667"],
    "mc-kanter-cm": ["mc-verify", "--check", "kanter-cm", "--alpha", "0.4"],
    "mc-zinv-factorization": ["mc-verify", "--check", "zinv-factorization", "--n", "5000"],
    "mc-stable-laplace": ["mc-verify", "--check", "stable-laplace", "--alpha", "0.3",
                          "--n", "5000"],
    "mc-sqrt-gamma": ["mc-verify", "--check", "sqrt-gamma", "--n", "5000"],
}


@pytest.mark.parametrize("name", sorted(SCIPY_FREE))
def test_subcommand_leaves_scipy_unloaded(name, tmp_path):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in SCIPY_FREE[name]]
    code, report, modules = run_fresh(argv)
    assert code in (0, 1), report  # hcm-check at t = 0.9 is a pole FAIL
    assert report["verdicts"] or report["params"]["results"]
    assert "scipy" not in modules, sorted(m for m in modules if m.startswith("scipy"))
    if name == "invert-both":
        (agreement,) = [v for v in report["verdicts"] if v["name"] == "method_agreement"]
        assert agreement["status"] == "PASS"


_ALL_SUBCOMMANDS_CHILD = """\
import contextlib, io, json, sys
import hcmlab.cli
loaded = {}
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        hcmlab.cli.main(argv)
    loaded[name] = "numpy.ma" in sys.modules
sys.stdout.write(json.dumps(loaded) + "\\n")
"""


def test_no_subcommand_loads_numpy_ma(tmp_path):
    """numpy.ma costs about 9 ms and 1 MB of a cold process; np.unique is what imports it."""
    argvs = {name: [a.replace("{tmp}", str(tmp_path)) for a in argv]
             for name, argv in SCIPY_FREE.items()}
    (line,) = fresh_stdout(_ALL_SUBCOMMANDS_CHILD, json.dumps(argvs))
    loaded = json.loads(line)
    assert list(loaded) == list(SCIPY_FREE)
    assert not any(loaded.values()), loaded


def test_scalar_quadrature_paths_leave_scipy_unloaded():
    (line,) = fresh_stdout(_LIBRARY_CHILD)
    out = json.loads(line)
    assert out["forward"] == pytest.approx(0.5, abs=1e-10)
    assert out["masses"] == pytest.approx([1.0] * 5, abs=1e-8)
    assert out["lemma"]
    assert "hcmlab.laplace" in out["modules"] and "scipy" not in out["modules"]


def test_no_package_module_imports_scipy():
    """Nor mpmath: the runtime is numpy-only, and mpmath is the tests' oracle."""
    offenders = []
    for path in sorted((SRC / "hcmlab").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}" for n in names
                          if n.split(".")[0] in ("scipy", "mpmath")]
    assert not offenders
