#!/usr/bin/env python
"""Run every workload ``BENCHMARK.json`` lists briefly; fail unless each is correct.

A quick end-to-end sanity pass over the benchmark (see ``make perfbench``):
each workload runs as its own ``perfbench/run.py`` process for a few
seconds with tracing off, and the last line of its output — the JSON result
object — must say ``"correct": true``.  The timings are printed but not
judged; this checks that the benchmark still runs and its output checks
still hold, not the numbers.

Exit status 0 when every workload is correct; 1 otherwise.

Usage:
    python tools/perfbench_check.py [--seconds 5] [--seed 1]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_workload(name: str, seed: int, seconds: float) -> dict | None:
    """Run one workload; return its result object, or None if it produced none."""
    completed = subprocess.run(
        [
            sys.executable, os.path.join(REPO_ROOT, "perfbench", "run.py"),
            "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr[-2000:])
    lines = completed.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        workloads = [workload["name"] for workload in json.load(handle)["workloads"]]
    failed = []
    for name in workloads:
        result = run_workload(name, args.seed, args.seconds)
        correct = bool(result and result.get("correct"))
        summary = "no result line" if result is None else ", ".join(
            f"{metric}={value['value']:.4g}" for metric, value in result["metrics"].items()
        )
        print(f"{'ok  ' if correct else 'FAIL'} {name}: {summary}")
        if not correct:
            failed.append(name)
    if failed:
        print(f"perfbench: {len(failed)} of {len(workloads)} workloads not correct: {', '.join(failed)}")
        return 1
    print(f"perfbench: all {len(workloads)} workloads correct")
    return 0


if __name__ == "__main__":
    sys.exit(main())
