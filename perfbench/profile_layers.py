"""cProfile one untraced pass of a workload and charge its own time to layers.

A cross-check of the traced run: the layer with the most self time in the
trace should also have the most own time (``tottime``) here.  A function is
charged to the layer of the source file that defines it.  A function from
anywhere else — built-ins (JSON, sqlite3, sockets), the standard library,
modules every layer shares such as ``repro.platform.models`` — is charged to
the layers of its callers, in proportion to its cumulative time under each.
cProfile slows Python-level calls more than native ones, so compare the
rankings, not the seconds.  Only this process is profiled: on
``stream_wire`` the server process's work shows as time waiting in the
wire layer.

Run from the root of a checkout:

    python3 perfbench/profile_layers.py --workload stream_memory --seed 1
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import shutil
import sys
import tempfile
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Source-path fragments and the layer their functions belong to; the first
#: match wins.  FaultRecoveryCache keys rows with ``utils.hashing``, and the
#: workers answer inside the server's ``simulate_work``.
LAYER_OF_PATH = (
    ("repro/core/", "core"),
    ("repro/utils/hashing", "core"),
    ("repro/presenters/", "core"),
    ("repro/quality/", "quality"),
    ("repro/platform/client", "transport"),
    ("repro/platform/transport", "transport"),
    ("repro/platform/wire", "wire"),
    ("repro/platform/server", "server"),
    ("repro/workers/", "server"),
    ("repro/platform/store", "store"),
    ("repro/storage/records", "codec"),
    ("repro/storage/", "engine"),
    ("perfbench/", "benchmark"),
)


def layer_of(filename: str) -> str | None:
    path = filename.replace(os.sep, "/")
    for fragment, layer in LAYER_OF_PATH:
        if fragment in path:
            return layer
    return None


def own_time_by_layer(stats: pstats.Stats) -> Counter:
    entries = stats.stats
    shares: dict = {}

    def share(func) -> dict[str, float]:
        if func in shares:
            return shares[func]
        layer = layer_of(func[0])
        if layer is not None:
            shares[func] = {layer: 1.0}
            return shares[func]
        shares[func] = {"other": 1.0}  # stands while a call cycle resolves
        callers = entries[func][4] if func in entries else {}
        total = sum(caller[3] for caller in callers.values())
        if total > 0:
            mixed: Counter = Counter()
            for caller, caller_stats in callers.items():
                for caller_layer, fraction in share(caller).items():
                    mixed[caller_layer] += fraction * caller_stats[3] / total
            shares[func] = dict(mixed)
        return shares[func]

    out: Counter = Counter()
    for func, (_, _, tottime, _, _) in entries.items():
        for layer, fraction in share(func).items():
            out[layer] += tottime * fraction
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    rundir = tempfile.mkdtemp(prefix="profile-", dir=os.path.join(ROOT, ".perfbench"))
    os.environ["TMPDIR"] = rundir
    tempfile.tempdir = None
    try:
        workload = WORKLOADS[args.workload](args.seed, rundir)
        workload.prepare()
        profiler = cProfile.Profile()
        profiler.enable()
        harness.run_pass(workload)
        profiler.disable()
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    layers = own_time_by_layer(pstats.Stats(profiler))
    # The benchmark's own code, host probes included, is not the program's:
    # it is printed but left out of the shares.
    total = sum(seconds for layer, seconds in layers.items() if layer != "benchmark")
    print(f"{args.workload} seed {args.seed}: own time by layer under cProfile")
    for layer, seconds in layers.most_common():
        share = "" if layer == "benchmark" else f"  {100 * seconds / total:5.1f}%"
        print(f"  {layer:10s} {seconds:8.3f} s{share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
