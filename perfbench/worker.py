"""Fresh-interpreter worker for the in-process workloads.

    python perfbench/worker.py WORKLOAD SEED (--seconds S | --rounds R) [--spans PATH]

Imports hcmlab from ``src``, runs the closed loop of ``workloads.run_rounds``
with no untimed warm-up (the first task pays any lazy set-up, as a user's
first call does), and prints one JSON document on stdout.  With ``--spans``
the run is traced and its spans are written to PATH when the loop ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    limit = ap.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--rounds", type=int)
    ap.add_argument("--spans", default=None, help="trace, and write the spans here")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import hcmlab
    import_s = time.perf_counter() - t0

    import tracing
    import workloads

    tracer = uninstall = None
    if args.spans:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
    out = workloads.run_rounds(hcmlab, args.workload, args.seed, seconds=args.seconds,
                               rounds=args.rounds, tracer=tracer)
    if tracer is not None:
        uninstall()
        out["layers"] = tracer.summary()
        tracer.dump(args.spans)
    out["import_s"] = import_s
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
