"""The benchmark's workloads: seeded inputs, the programs, and their output checks.

Every workload is one closed-loop client: the program waits on each verb
before it calls the next.  A *pass* builds a fresh stack (timed as set-up),
runs the program once (timed), checks the outputs, and closes the stack.

The stack is assembled through ``CrowdContext``'s public seams in every
pass, traced or not — engine, task store, server and client are built by
the same calls ``CrowdContext`` makes for itself — so a traced pass runs the
same objects as an untraced one plus the wrappers of ``tracing``.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import AdaptivePolicy, CrowdContext, ReprowdConfig
from repro.config import PlatformConfig, StorageConfig, WorkerPoolConfig
from repro.platform.client import PlatformClient
from repro.platform.server import PlatformServer
from repro.platform.store import open_task_store
from repro.platform.transport import DirectTransport
from repro.platform.wire import (
    DEFAULT_WIRE_RETRY_BACKOFF,
    RemoteServer,
    WireClient,
    WireTransport,
    spawn_server,
)
from repro.presenters import ImageLabelPresenter
from repro.quality.incremental import IncrementalMajorityVote
from repro.storage.memory_engine import MemoryEngine
from repro.storage.records import JsonCodec
from repro.storage.sqlite_engine import SqliteEngine
from repro.utils.timing import SimulatedClock
from repro.workers.pool import WorkerPool
from repro.workload.keys import ZipfKeyGenerator

from hostclock import HostProbe
from tracing import (
    TracedAggregator,
    TracedCodec,
    TracedEngine,
    TracedStore,
    Tracer,
    TracingTransport,
)

TABLE = "image_label"
LABELS = ("Yes", "No")
#: Bob's redundancy in Figure 2 of the paper.
REDUNDANCY = 3

#: fresh_durable: objects in Bob's one-batch program.
FRESH_OBJECTS = 2000
#: rerun_extend: rows in Bob's shared file, the batch size it was built
#: with, and the new objects Ally adds (5%).
BOB_ROWS = 10000
BOB_BATCH = 2000
ALLY_NEW = 500
#: stream_*: batches per pass, arrivals per batch, and the Zipf key universe.
STREAM_BATCHES = 200
MEMORY_BATCH = 20
WIRE_BATCH = 3
ZIPF_KEYS = 10000
ZIPF_SKEW = 1.0
POLICY = AdaptivePolicy(
    initial_assignments=2,
    max_assignments=5,
    min_assignments=2,
    confidence_threshold=0.75,
    extra_per_round=1,
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def image_objects(seed: int, start: int, count: int) -> list[str]:
    return [f"http://img.example.org/{seed}/{index:06d}.jpg" for index in range(start, start + count)]


def label_truth(seed: int, objects: list[str]) -> dict[str, str]:
    """Seeded ground truth: each object's label is Yes or No with equal odds."""
    rng = random.Random(f"truth-{seed}")
    return {obj: LABELS[rng.random() < 0.5] for obj in objects}


# -- passes --------------------------------------------------------------------


class PassFailed(Exception):
    """A verb raised; the pass stops and counts as failed."""


@dataclass
class Ops:
    """Attempted and failed operations of one pass, its tracer and its probe."""

    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    probe: HostProbe = field(default_factory=HostProbe)

    def verb(self, name: str, call: Callable[[], Any]) -> Any:
        """Run one CrowdData verb, as a ``core.<name>`` span when traced.

        The host probe runs after the verb, outside its span and timing.
        """
        self.attempted += 1
        tracer = self.tracer
        start = time.perf_counter()
        index = tracer.open(tracer.name_id(f"core.{name}")) if tracer else None
        try:
            return call()
        except Exception as exc:  # noqa: BLE001 - a failed verb fails the pass
            self.failed += 1
            self.failures.append(f"{name} raised {type(exc).__name__}: {exc}")
            raise PassFailed(name) from exc
        finally:
            if tracer:
                tracer.close(index)
            self.probe.after(time.perf_counter() - start)

    def collect(self, data: Any, name: str, call: Callable[[], Any]) -> Any:
        """A collecting verb; traced passes also count the useful runs.

        Useful runs are the answers of the rows that lacked a result before
        the call: the runs the verb had to move across the transport.
        """
        if self.tracer is None:
            return self.verb(name, call)
        results, tasks = data.data["result"], data.data["task"]
        missing = {tasks[i]["task_id"]: i for i, result in enumerate(results) if result is None}
        outcome = self.verb(name, call)
        results = data.data["result"]
        self.tracer.counts["collect.runs_useful"] += sum(
            len(results[i]["assignments"]) for i in missing.values()
        )
        return outcome

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)


@dataclass
class Outcome:
    """What one pass did and measured."""

    #: Wall seconds of set-up and of the program, probes left out; batch
    #: latencies likewise; and the pass's factor from wall seconds to
    #: seconds at the nominal host speed (see ``hostclock``).
    setup_s: float = 0.0
    program_s: float = 0.0
    scale: float = 1.0
    objects: int = 0
    batches: list[float] = field(default_factory=list)
    answers: int = 0
    accuracy: float = 0.0
    db_bytes: int = 0
    cache_hits: int = 0
    quality_rounds: int = 0
    early_stopped: int = 0
    program_start: float = 0.0
    program_end: float = 0.0


# -- stacks --------------------------------------------------------------------


@dataclass
class Stack:
    ctx: CrowdContext
    client: Any
    server: Any
    engine: Any
    db_path: str | None = None
    process: subprocess.Popen | None = None
    spans_path: str | None = None

    def close(self) -> None:
        """Close client, server and context; always stop a server process."""
        try:
            self.client.close()
            if self.server is not None:
                self.server.close()
            self.ctx.close()
        finally:
            if self.process is not None:
                stop_process(self.process)


def stop_process(process: subprocess.Popen) -> None:
    """End a traced server: close its stdin, then wait, then kill."""
    try:
        if process.stdin:
            process.stdin.close()
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=10)


def _codec(tracer: Tracer | None):
    return TracedCodec(JsonCodec(), tracer) if tracer else None


def open_sqlite(path: str, tracer: Tracer | None) -> SqliteEngine:
    """The program's SQLite engine on *path*, with the device flush off.

    Every commit the program makes still happens, with the same statements
    and the default rollback journal; only SQLite's fsync is skipped
    (``PRAGMA synchronous=OFF``), which makes a file on disk behave as one
    on tmpfs, where fsync is free.  The benchmark may write only inside its
    checkout, and on a shared virtual disk the fsync latency drifts by half
    over minutes, which would bury every other cost of the write path.
    ``engine.commits`` still counts each commit.
    """
    engine = SqliteEngine(path, codec=_codec(tracer))
    engine._conn.execute("PRAGMA synchronous=OFF")
    return engine


def open_local_stack(
    config: ReprowdConfig, engine: Any, tracer: Tracer | None, truth: dict, db_path: str | None = None
) -> Stack:
    """The stack ``CrowdContext(config=...)`` builds for a direct transport."""
    traced_engine = TracedEngine(engine, tracer) if tracer else engine
    store = open_task_store(config.platform, shared_engine=traced_engine)
    server = PlatformServer(
        worker_pool=WorkerPool.from_config(config.workers),
        config=config.platform,
        clock=SimulatedClock(),
        store=TracedStore(store, tracer) if tracer else store,
    )
    client = PlatformClient(
        server, transport=TracingTransport(DirectTransport(), tracer) if tracer else None
    )
    ctx = CrowdContext(config=config, engine=traced_engine, client=client, ground_truth=truth.get)
    return Stack(ctx, client, server, engine, db_path)


def open_wire_stack(config: ReprowdConfig, tracer: Tracer | None, truth: dict, rundir: str) -> Stack:
    """The stack ``PlatformConfig(transport="wire")`` builds: a spawned server.

    Untraced passes spawn ``python -m repro.platform.wire`` exactly as
    ``CrowdContext`` does; traced passes spawn ``traced_server.py``, which
    builds the same platform with traced server and store layers.
    """
    tag = f"{os.getpid()}-{time.monotonic_ns()}"
    port_file = os.path.join(rundir, f"wire-port-{tag}.txt")
    workers = config.workers
    process = spans_path = None
    if tracer is None:
        handle = spawn_server(
            seed=config.platform.seed,
            pool_size=workers.size,
            accuracy=workers.mean_accuracy,
            port_file=port_file,
        )
        try:
            client = WireClient(handle.host, handle.port, owned_server=handle)
        except BaseException:
            handle.stop()
            raise
    else:
        spans_path = os.path.join(rundir, f"server-spans-{tag}.spans")
        with open(os.path.join(rundir, f"server-stderr-{tag}.txt"), "w") as stderr:
            process = subprocess.Popen(
                [
                    sys.executable, os.path.join(BENCH_DIR, "traced_server.py"),
                    "--port-file", port_file, "--spans", spans_path,
                    "--seed", str(config.platform.seed),
                    "--pool-size", str(workers.size),
                    "--accuracy", str(workers.mean_accuracy),
                ],
                stdin=subprocess.PIPE,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
        try:
            port = _wait_for_port(port_file, process)
            transport = WireTransport("127.0.0.1", port)
            client = PlatformClient(
                RemoteServer(transport, PlatformConfig()),
                transport=TracingTransport(transport, tracer, wire=True),
                retry_backoff=DEFAULT_WIRE_RETRY_BACKOFF,
            )
        except BaseException:
            stop_process(process)
            raise
    engine = MemoryEngine(codec=_codec(tracer))
    traced_engine = TracedEngine(engine, tracer) if tracer else engine
    try:
        ctx = CrowdContext(config=config, engine=traced_engine, client=client, ground_truth=truth.get)
    except BaseException:
        client.close()
        if process is not None:
            stop_process(process)
        raise
    return Stack(ctx, client, None, engine, process=process, spans_path=spans_path)


def _wait_for_port(port_file: str, process: subprocess.Popen, timeout: float = 30.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"traced wire server exited with code {process.returncode}")
        try:
            with open(port_file, encoding="utf-8") as handle:
                text = handle.read().strip()
            if text:
                return int(text)
        except (OSError, ValueError):
            pass
        time.sleep(0.01)
    raise RuntimeError(f"traced wire server did not publish a port within {timeout} s")


def encoded_cache_bytes(engine: Any) -> int:
    """Bytes the client cache holds, encoded as a durable engine stores it."""
    codec = JsonCodec()
    return sum(
        len(record.key) + len(codec.encode(record.value))
        for table in engine.list_tables()
        for record in engine.scan(table)
    )


def check_results(ops: Ops, data: Any, low: int, high: int) -> list[dict]:
    """Every row has a complete result with between *low* and *high* answers."""
    results = data.column("result")
    ops.check(
        all(result is not None and result.get("complete") for result in results),
        "a row has no complete result",
    )
    ops.check(
        all(low <= len(result["assignments"]) <= high for result in results if result),
        f"a row has fewer than {low} or more than {high} answers",
    )
    return results


def check_platform(ops: Ops, ctx: CrowdContext, data: Any, results: list[dict], tasks: int) -> dict:
    """No duplicate publish, and every purchased answer is in the table."""
    stats = ctx.client.statistics()
    ops.check(
        len(set(data.column("object"))) == len(data),
        "the table holds a duplicate object",
    )
    ops.check(
        stats["tasks"] == tasks,
        f"platform has {stats['tasks']} tasks for {tasks} distinct objects",
    )
    in_table = {result["task_id"]: len(result["assignments"]) for result in results if result}
    ops.check(
        stats["task_runs"] == sum(in_table.values()),
        f"platform has {stats['task_runs']} answers, the table {sum(in_table.values())}",
    )
    return stats


def score(ops: Ops, data: Any, truth: dict) -> float:
    """Majority-vote accuracy against the seeded ground truth."""
    labels = data.column("mv")
    ops.check(all(label in LABELS for label in labels), "a row has no majority-vote label")
    objects = data.column("object")
    return sum(truth[obj] == label for obj, label in zip(objects, labels)) / len(objects)


def cache_hits(data: Any) -> int:
    return sum(entry.cache_hits for entry in data.manipulation_history())


# -- workloads -------------------------------------------------------------------


class Workload:
    """Base: inputs from the seed, one program, its checks."""

    name = ""
    why = ""

    def __init__(self, seed: int, rundir: str):
        self.seed = seed
        self.rundir = rundir
        self._passes = 0

    def prepare(self) -> None:
        """Untimed preparation shared by every pass of a run."""

    def select(self, variant: int) -> None:
        """Untimed: give the next pass input set *variant* of this seed."""

    def fresh_path(self, stem: str) -> str:
        self._passes += 1
        return os.path.join(self.rundir, f"{stem}-{self._passes}.db")

    def open(self, tracer: Tracer | None) -> Stack:
        raise NotImplementedError

    def run(self, stack: Stack, ops: Ops, outcome: Outcome) -> Any:
        raise NotImplementedError

    def check(self, stack: Stack, data: Any, ops: Ops, outcome: Outcome) -> None:
        raise NotImplementedError

    def after_close(self, stack: Stack, outcome: Outcome) -> None:
        """Measure what needs the stack closed (the flushed file)."""
        if stack.db_path:
            outcome.db_bytes = os.path.getsize(stack.db_path)
            os.unlink(stack.db_path)


class FreshDurable(Workload):
    name = "fresh_durable"
    why = "Bob's Figure-2 program on a fresh durable SQLite file: one-batch publish and the commit-bound write path"

    def __init__(self, seed: int, rundir: str):
        super().__init__(seed, rundir)
        self.objects = image_objects(seed, 0, FRESH_OBJECTS)
        self.truth = label_truth(seed, self.objects)

    def open(self, tracer: Tracer | None) -> Stack:
        path = self.fresh_path("bob")
        config = ReprowdConfig.durable(path, seed=self.seed)
        engine = open_sqlite(path, tracer)
        return open_local_stack(config, engine, tracer, self.truth, path)

    def run(self, stack: Stack, ops: Ops, outcome: Outcome) -> Any:
        data = ops.verb(
            "init",
            lambda: stack.ctx.CrowdData(self.objects, TABLE).set_presenter(ImageLabelPresenter()),
        )
        start = ops.probe.now()
        ops.verb("publish_task", lambda: data.publish_task(n_assignments=REDUNDANCY))
        ops.collect(data, "get_result", data.get_result)
        outcome.batches.append(ops.probe.now() - start)
        ops.verb("aggregate", data.mv)
        outcome.objects = len(self.objects)
        return data

    def check(self, stack: Stack, data: Any, ops: Ops, outcome: Outcome) -> None:
        results = check_results(ops, data, REDUNDANCY, REDUNDANCY)
        stats = check_platform(ops, stack.ctx, data, results, len(self.objects))
        outcome.answers = stats["task_runs"]
        outcome.accuracy = score(ops, data, self.truth)
        outcome.cache_hits = cache_hits(data)


def build_bob_fixture(path: str, seed: int) -> None:
    """Bob's shared file: BOB_ROWS completed rows, appended in batches.

    Built without per-write commits (``synchronous=False``; the file is
    committed on close), which yields the same records as Bob's
    synchronous run in a fraction of the time; set-up time is not
    measured here.
    """
    objects = image_objects(seed, 0, BOB_ROWS)
    truth = label_truth(seed, objects)
    config = ReprowdConfig(
        storage=StorageConfig(engine="sqlite", path=path, synchronous=False),
        platform=PlatformConfig(seed=seed, store="durable"),
        workers=WorkerPoolConfig(seed=seed),
        seed=seed,
    )
    ctx = CrowdContext(config=config, ground_truth=truth.get)
    try:
        data = ctx.CrowdData([], TABLE).set_presenter(ImageLabelPresenter())
        for start in range(0, BOB_ROWS, BOB_BATCH):
            data.extend(objects[start : start + BOB_BATCH])
            data.publish_task(n_assignments=REDUNDANCY).get_result()
        data.mv()
        stats = ctx.client.statistics()
        if stats["tasks"] != BOB_ROWS or stats["task_runs"] != REDUNDANCY * BOB_ROWS:
            raise RuntimeError(f"Bob's fixture is wrong: {stats['tasks']} tasks, {stats['task_runs']} answers")
    finally:
        ctx.close()


class RerunExtend(Workload):
    name = "rerun_extend"
    why = "Ally reruns Bob's shared 10k-row file and extends it by 5%: the read path, few writes"

    def __init__(self, seed: int, rundir: str):
        super().__init__(seed, rundir)
        self.bob_objects = image_objects(seed, 0, BOB_ROWS)
        self.new_objects = image_objects(seed, BOB_ROWS, ALLY_NEW)
        self.truth = label_truth(seed, self.bob_objects + self.new_objects)
        self.fixture = os.path.join(rundir, "bob-shared.db")

    def prepare(self) -> None:
        # A separate process, so the fixture's memory stays out of this
        # process's peak RSS.
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), self.fixture, str(self.seed)],
            env=dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(BENCH_DIR), "src")),
            check=True,
            timeout=600,
        )

    def open(self, tracer: Tracer | None) -> Stack:
        path = self.fresh_path("ally")
        shutil.copyfile(self.fixture, path)
        config = ReprowdConfig.durable(path, seed=self.seed)
        engine = open_sqlite(path, tracer)
        return open_local_stack(config, engine, tracer, self.truth, path)

    def run(self, stack: Stack, ops: Ops, outcome: Outcome) -> Any:
        data = ops.verb(
            "init",
            lambda: stack.ctx.CrowdData(self.bob_objects, TABLE).set_presenter(ImageLabelPresenter()),
        )
        ops.verb("publish_task", lambda: data.publish_task(n_assignments=REDUNDANCY))
        ops.collect(data, "get_result", data.get_result)
        ops.verb("aggregate", data.mv)
        start = ops.probe.now()
        ops.verb("extend", lambda: data.extend(self.new_objects))
        ops.verb("publish_task", lambda: data.publish_task(n_assignments=REDUNDANCY))
        ops.collect(data, "get_result", data.get_result)
        outcome.batches.append(ops.probe.now() - start)
        ops.verb("aggregate", data.mv)
        outcome.objects = len(data)
        return data

    def check(self, stack: Stack, data: Any, ops: Ops, outcome: Outcome) -> None:
        results = check_results(ops, data, REDUNDANCY, REDUNDANCY)
        total = BOB_ROWS + ALLY_NEW
        stats = check_platform(ops, stack.ctx, data, results, total)
        outcome.answers = stats["task_runs"] - REDUNDANCY * BOB_ROWS
        ops.check(
            outcome.answers == REDUNDANCY * ALLY_NEW,
            f"Ally bought {outcome.answers} answers for {ALLY_NEW} new objects",
        )
        rerun = [entry for entry in data.manipulation_history() if entry.operation in ("publish_task", "get_result")]
        ops.check(
            [entry.cache_hits for entry in rerun[-4:-2]] == [BOB_ROWS, BOB_ROWS],
            "the rerun of Bob's program missed the cache",
        )
        outcome.accuracy = score(ops, data, self.truth)
        outcome.cache_hits = cache_hits(data)


class Stream(Workload):
    """Closed-loop stream of small batches: extend → publish → adaptive collect.

    Each pass of a run streams its own arrivals (input set ``variant`` of
    the seed), so a run's percentiles average over several draws of which
    objects repeat, not over one.
    """

    batch_size = 0

    def __init__(self, seed: int, rundir: str):
        super().__init__(seed, rundir)
        self.keys = ZipfKeyGenerator(ZIPF_KEYS, ZIPF_SKEW)
        self.truth = label_truth(seed, [self.image(self.keys.key(rank)) for rank in range(ZIPF_KEYS)])
        self.config = ReprowdConfig.in_memory(seed=seed)
        self.select(0)

    def image(self, key: str) -> str:
        return f"http://img.example.org/{self.seed}/{key}.jpg"

    def select(self, variant: int) -> None:
        rng = random.Random(f"arrivals-{self.seed}-{variant}")
        self.batches = [
            [self.image(key) for key in self.keys.sample_many(self.batch_size, rng)]
            for _ in range(STREAM_BATCHES)
        ]

    def run(self, stack: Stack, ops: Ops, outcome: Outcome) -> Any:
        tracer = ops.tracer
        data = ops.verb("init", lambda: stack.ctx.CrowdData([], TABLE).set_presenter(ImageLabelPresenter()))
        for batch in self.batches:
            start = ops.probe.now()
            ops.verb("extend", lambda: data.extend(batch))
            ops.verb("publish_task", lambda: data.publish_task(n_assignments=POLICY.initial_assignments))
            aggregator = TracedAggregator(IncrementalMajorityVote(), tracer) if tracer else None
            ops.collect(
                data, "get_result_adaptive", lambda: data.get_result_adaptive(POLICY, aggregator=aggregator)
            )
            outcome.batches.append(ops.probe.now() - start)
            stats = data.last_adaptive_stats
            outcome.quality_rounds += stats.rounds
            outcome.early_stopped += stats.items_resolved_early
        ops.verb("aggregate", data.mv)
        outcome.objects = len(data)
        return data

    def check(self, stack: Stack, data: Any, ops: Ops, outcome: Outcome) -> None:
        results = check_results(ops, data, POLICY.min_assignments, POLICY.max_assignments)
        stats = check_platform(ops, stack.ctx, data, results, len(data))
        outcome.answers = stats["task_runs"]
        outcome.accuracy = score(ops, data, self.truth)
        outcome.cache_hits = cache_hits(data)
        outcome.db_bytes = encoded_cache_bytes(stack.engine)


class StreamMemory(Stream):
    name = "stream_memory"
    why = "200 Zipf batches of 20 on the in-memory stack: per-verb CPU and O(table) per-batch cost in core and quality"
    batch_size = MEMORY_BATCH

    def open(self, tracer: Tracer | None) -> Stack:
        engine = MemoryEngine(codec=_codec(tracer))
        return open_local_stack(self.config, engine, tracer, self.truth)


class StreamWire(Stream):
    name = "stream_wire"
    why = "200 Zipf batches of 3 against a spawned wire server: framing, JSON and whole-project page sweeps"
    batch_size = WIRE_BATCH

    def open(self, tracer: Tracer | None) -> Stack:
        return open_wire_stack(self.config, tracer, self.truth, self.rundir)


WORKLOADS = {cls.name: cls for cls in (FreshDurable, RerunExtend, StreamMemory, StreamWire)}


if __name__ == "__main__":
    # Bob's fixture, built by RerunExtend.prepare in a process of its own.
    build_bob_fixture(sys.argv[1], int(sys.argv[2]))
