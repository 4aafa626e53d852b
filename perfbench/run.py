"""Reprowd's end-to-end benchmark: four seeded workloads, per-layer tracing.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fresh_durable --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats passes of the workload for ``--seconds`` seconds with
tracing off and reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and two traced passes with the same seed and reports the
per-layer metrics; the two traced passes must agree on every count.  Either
way the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything the benchmark writes stays under ``.perfbench/`` in the checkout:
a working directory per run (removed at exit) and the spans of the last
traced run of each workload under ``.perfbench/traces/``.  See
``perfbench/README.md`` for the metrics, layers and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv: list[str] | None = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no Reprowd sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Reprowd end-to-end benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so it stops the server it spawned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    out_dir = os.path.join(ROOT, ".perfbench")
    rundir = os.path.join(out_dir, f"run-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    # Anything the library puts in a temporary directory stays in the checkout.
    os.environ["TMPDIR"] = rundir
    tempfile.tempdir = None
    try:
        workload = WORKLOADS[args.workload](args.seed, rundir)
        workload.prepare()
        if args.trace:
            specs = harness.PER_LAYER
            metrics, attempted, failed, failures, info = harness.trace(
                workload, args.seed, os.path.join(out_dir, "traces")
            )
        else:
            specs = harness.END_TO_END
            metrics, attempted, failed, failures, info = harness.measure(workload, args.seconds)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}; one closed-loop client; tracing {'on' if args.trace else 'off'}")
    print(
        "run directory: a fresh directory under .perfbench/ in the checkout (the benchmark "
        "writes nowhere else); flush policy: the program's default, a SQLite commit per write "
        "on the default rollback journal, with the device flush off (PRAGMA synchronous=OFF) "
        "so that a file on disk costs what one on tmpfs does"
    )
    for key, value in info.items():
        print(f"  {key}: {value}")
    shown = dict(metrics, error_rate=failed / attempted if attempted else 0.0)
    for name, unit, better in specs + (() if args.trace else (harness.ERROR_RATE,)):
        print(f"  {name:32s} {shown[name]:>16.6g} {unit:16s} ({better} is better)")
    for failure in failures:
        print(f"FAILED: {failure}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
