"""Wire platform server with traced server and store layers.

The traced ``stream_wire`` pass runs the server in this process instead of
``python -m repro.platform.wire``.  It builds the same platform that module
builds for ``--store memory`` (uniform worker pool, in-memory task store),
with ``TracedPlatform`` and ``TracedStore`` around it.  It publishes its
port in ``--port-file``, serves until its standard input closes, then
writes its spans to ``--spans`` and exits.  The tracer is not thread-safe:
serve one connection, as the benchmark's single client does.

Run:
    python3 perfbench/traced_server.py --port-file P --spans S --seed N \
        --pool-size 25 --accuracy 0.85
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.config import PlatformConfig  # noqa: E402
from repro.platform.server import PlatformServer  # noqa: E402
from repro.platform.store import MemoryTaskStore  # noqa: E402
from repro.platform.wire import WireServer  # noqa: E402
from repro.workers.pool import WorkerPool  # noqa: E402

from tracing import Tracer, TracedPlatform, TracedStore, write_spans  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pool-size", type=int, required=True)
    parser.add_argument("--accuracy", type=float, required=True)
    args = parser.parse_args()

    tracer = Tracer(run_id=f"server-{os.getpid()}")
    platform = PlatformServer(
        worker_pool=WorkerPool.uniform(args.pool_size, args.accuracy, seed=args.seed),
        config=PlatformConfig(seed=args.seed),
        store=TracedStore(MemoryTaskStore(), tracer),
    )
    server = WireServer(TracedPlatform(platform, tracer), host="127.0.0.1", port=0)
    server.start()
    try:
        # Write-then-rename, so the client never reads a partial port.
        with open(args.port_file + ".tmp", "w", encoding="utf-8") as handle:
            handle.write(f"{server.port}\n")
        os.replace(args.port_file + ".tmp", args.port_file)
        sys.stdin.read()
    finally:
        server.stop()
        platform.close()
    write_spans(args.spans, [tracer])
    return 0


if __name__ == "__main__":
    sys.exit(main())
