"""Traced start of one hcmlab CLI process.

    python perfbench/cli_boot.py TRACE_STEM <hcmlab arguments...>

Times the import of ``hcmlab.cli``, installs the same wrappers as the
in-process traced runs, runs ``hcmlab.cli.main`` inside a ``cli.main`` span,
writes the per-process summary to TRACE_STEM.json and the spans to
TRACE_STEM.npz, and exits with the CLI's own exit code.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import hcmlab.cli  # noqa: E402

import_s = time.perf_counter() - t0

import tracing  # noqa: E402


def main() -> int:
    stem, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    span = tracer.open("cli.main")
    try:
        return hcmlab.cli.main(argv)
    finally:  # written even when main raises, so the failed task keeps its trace
        tracer.close(span)
        uninstall()
        summary = tracer.summary()
        summary["cli.import_s"] = import_s
        with open(f"{stem}.json", "w") as fh:
            json.dump(summary, fh)
        tracer.dump(f"{stem}.npz")


if __name__ == "__main__":
    raise SystemExit(main())
