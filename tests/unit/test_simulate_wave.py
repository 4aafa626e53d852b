"""``simulate_work`` as one write wave per task-id page.

The server fills a project one ``_work_page_size`` page at a time: one bulk
task read and one bulk run read per page, every missing answer drawn in
publication order, then one run-id reservation, one bulk run append and one
bulk write of completion stamps.  Proofs:

* golden equivalence — a seeded ~1,200-task project (three pages, mixed
  redundancy, a partial first pass, one redundancy extension) reproduces a
  digest of every ``TaskRun`` field and every ``completed_at`` pinned from
  the per-task loop this wave replaced, on the memory store and on durable
  stores over the memory and SQLite engines;
* crash windows — a crash after every engine write of a two-page
  ``simulate_work`` leaves only id gaps and whole-task run lists, and a
  rerun converges to exactly ``n_assignments`` runs per task with unique
  run ids and completion stamps no earlier than the final answer;
* ``max_assignments`` stops at exactly N answers: at 0, mid-task, on a
  page boundary and above the total;
* op counts — engine writes and commits grow with the number of pages,
  not the number of tasks (exact counts, no timing tolerance).
"""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from repro.config import PlatformConfig, WorkerPoolConfig
from repro.exceptions import CrashInjected, PlatformError, TaskNotFoundError
from repro.platform.server import PlatformServer
from repro.platform.store import DurableTaskStore, MemoryTaskStore
from repro.simulation import CrashPlan, CrashingEngine
from repro.storage import MemoryEngine, SqliteEngine
from repro.workers.pool import WorkerPool

#: Digest of the golden run, computed with the per-task simulate loop.
GOLDEN_DIGEST = "26d73763f2e3ba9a64c2a9218defb2f9f5710324272001fff467cc6de7da0369"

GOLDEN_TASKS = 1200
LABELS = ["cat", "dog", "bird"]


def golden_spec(i: int) -> dict:
    """Task spec *i* of the golden project: mixed payloads and redundancy."""
    info: dict = {"i": i}
    if i % 3 == 0:
        info["candidates"] = LABELS
        info["_true_answer"] = LABELS[i % len(LABELS)]
    elif i % 3 == 1:
        info["_true_answer"] = "Yes" if i % 2 else "No"
    if i % 5 == 0:
        info["task_type"] = "label"
    redundancy = 1 + (i * 7) % 4
    if i == 611:
        redundancy = 17  # above the pool size: workers are reused
    return {"info": info, "n_assignments": redundancy, "dedup_key": f"g{i}"}


def golden_server(store) -> PlatformServer:
    pool = WorkerPool.from_config(
        WorkerPoolConfig(size=15, mean_accuracy=0.8, spammer_fraction=0.2, seed=29)
    )
    return PlatformServer(worker_pool=pool, config=PlatformConfig(seed=29), store=store)


def golden_digest(store) -> str:
    """Run the golden experiment on *store* and digest everything it stored.

    Two projects (the big one spans three work pages), a first pass cut
    mid-task by ``max_assignments``, one ``extend_tasks_redundancy`` over
    complete, partial and unanswered tasks, then a full pass.
    """
    server = golden_server(store)
    big = server.create_project("golden")
    small = server.create_project("golden-small")
    server.create_tasks(big.project_id, [golden_spec(i) for i in range(GOLDEN_TASKS)])
    server.create_tasks(small.project_id, [golden_spec(i) for i in range(40)])
    created = [server.simulate_work(big.project_id, max_assignments=1333)]
    big_ids = server.list_project_task_ids(big.project_id, GOLDEN_TASKS)
    server.extend_tasks_redundancy({task_id: 1 + task_id % 2 for task_id in big_ids[::97]})
    created.append(server.simulate_work())
    created.append(server.simulate_work())  # nothing left: a no-op pass
    state = []
    for project in (big, small):
        task_ids = store.project_task_ids(project.project_id)
        tasks = store.get_tasks(task_ids)
        for task, runs in zip(tasks, store.runs_for_tasks(task_ids)):
            state.append(
                [task.task_id, task.n_assignments, task.completed_at,
                 [run.to_dict() for run in runs]]
            )
    payload = json.dumps([created, server.clock.now, state], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("backend", ["memory", "durable-memory", "durable-sqlite"])
def test_golden_run_matches_the_per_task_loop(backend, tmp_path):
    if backend == "memory":
        store = MemoryTaskStore()
    elif backend == "durable-memory":
        store = DurableTaskStore(MemoryEngine())
    else:
        store = DurableTaskStore(SqliteEngine(str(tmp_path / "golden.db")), owns_engine=True)
    try:
        assert golden_digest(store) == GOLDEN_DIGEST
    finally:
        store.close()


# -- crash windows -------------------------------------------------------------

SWEEP_PAGE = 5
SWEEP_REDUNDANCY = [2, 1, 3, 2, 4, 1, 2, 3]  # 8 tasks: two pages of 5 and 3


def sweep_server(store) -> PlatformServer:
    server = PlatformServer(
        worker_pool=WorkerPool.uniform(size=6, accuracy=0.9, seed=5),
        config=PlatformConfig(seed=5),
        store=store,
    )
    server._work_page_size = SWEEP_PAGE
    return server


def publish_sweep_project(engine) -> int:
    """Publish the sweep project on *engine* and answer it partly."""
    server = sweep_server(DurableTaskStore(engine))
    project = server.create_project("sweep")
    server.create_tasks(
        project.project_id,
        [
            {"info": {"i": i, "_true_answer": "Yes"}, "n_assignments": r, "dedup_key": f"s{i}"}
            for i, r in enumerate(SWEEP_REDUNDANCY)
        ],
    )
    # Task 2 ends up partly answered (2 of 3) before the swept call.
    server.simulate_work(project.project_id, max_assignments=5)
    return project.project_id


def run_lists(store, project_id):
    task_ids = store.project_task_ids(project_id)
    return task_ids, store.get_tasks(task_ids), store.runs_for_tasks(task_ids)


def sweep_writes(new_engine) -> int:
    """Engine writes one uninterrupted swept ``simulate_work`` makes."""
    engine = new_engine()
    project_id = publish_sweep_project(engine)
    plan = CrashPlan()
    sweep_server(DurableTaskStore(CrashingEngine(engine, plan))).simulate_work(project_id)
    return plan.writes_seen


def engine_factory(engine_name, tmp_path):
    """A factory of fresh base engines: one new file per SQLite engine."""
    if engine_name == "memory":
        return MemoryEngine
    paths = (str(tmp_path / f"sweep{i}.db") for i in itertools.count())
    return lambda: SqliteEngine(next(paths))


@pytest.mark.parametrize("engine_name", ["memory", "sqlite"])
def test_crash_after_every_write_converges_on_rerun(engine_name, tmp_path):
    new_engine = engine_factory(engine_name, tmp_path)
    total_writes = sweep_writes(new_engine)
    # Two pages, each at least a lease, a hint, runs and stamps.
    assert total_writes >= 2 * 4
    for crash_after in range(1, total_writes + 1):
        engine = new_engine()
        project_id = publish_sweep_project(engine)
        _, _, before = run_lists(DurableTaskStore(engine), project_id)
        crashing = CrashingEngine(engine, CrashPlan(crash_after_writes=crash_after))
        with pytest.raises(CrashInjected):
            sweep_server(DurableTaskStore(crashing)).simulate_work(project_id)

        # The crash left whole-task run lists only: each task holds what it
        # had before the call or all of its assignments.
        survivor = DurableTaskStore(engine)
        _, tasks, crashed = run_lists(survivor, project_id)
        for task, old, runs in zip(tasks, before, crashed):
            assert len(runs) in (len(old), task.n_assignments), crash_after

        sweep_server(survivor).simulate_work(project_id)
        _, tasks, final = run_lists(DurableTaskStore(engine), project_id)
        run_ids = [run.run_id for runs in final for run in runs]
        assert len(run_ids) == len(set(run_ids)) == sum(SWEEP_REDUNDANCY)
        for task, runs in zip(tasks, final):
            assert len(runs) == task.n_assignments
            assert [run.assignment_order for run in runs] == list(
                range(1, task.n_assignments + 1)
            )
            assert task.completed_at is not None
            assert task.completed_at >= max(run.submitted_at for run in runs)


# -- max_assignments ----------------------------------------------------------------

CAP_TASKS = 600  # two default work pages at redundancy 2: 1,200 answers


def cap_state(store, caps):
    """Run capped passes then one uncapped pass.

    Returns the answers each pass created, the per-task run counts after
    the capped passes, and the final runs and stamps as canonical JSON.
    """
    server = PlatformServer(
        worker_pool=WorkerPool.uniform(size=8, accuracy=0.9, seed=3),
        config=PlatformConfig(seed=3),
        store=store,
    )
    project = server.create_project("cap")
    server.create_tasks(
        project.project_id,
        [{"info": {"i": i}, "n_assignments": 2} for i in range(CAP_TASKS)],
    )
    created = [server.simulate_work(project.project_id, max_assignments=cap) for cap in caps]
    partial = [
        len(runs) for runs in store.runs_for_tasks(store.project_task_ids(project.project_id))
    ]
    created.append(server.simulate_work(project.project_id))
    task_ids = store.project_task_ids(project.project_id)
    state = [
        [task.completed_at, [run.to_dict() for run in runs]]
        for task, runs in zip(store.get_tasks(task_ids), store.runs_for_tasks(task_ids))
    ]
    return created, partial, json.dumps(state, sort_keys=True)


@pytest.mark.parametrize("store_name", ["memory", "durable"])
@pytest.mark.parametrize(
    "cap, expected_partial",
    [
        (0, []),  # nothing at all
        (601, [301]),  # mid-task, inside the second page
        (1000, []),  # exactly the first page
        (10_000, []),  # above the total: everything
    ],
)
def test_max_assignments_stops_at_exactly_n(store_name, cap, expected_partial):
    def new_store():
        return MemoryTaskStore() if store_name == "memory" else DurableTaskStore(MemoryEngine())

    _, _, uncapped = cap_state(new_store(), [])
    created, partial, state = cap_state(new_store(), [cap])
    total = 2 * CAP_TASKS
    assert created == [min(cap, total), total - min(cap, total)]
    assert sum(partial) == min(cap, total)
    assert [i + 1 for i, count in enumerate(partial) if count == 1] == expected_partial
    # Capped then resumed draws the same answers, ids and stamps as one pass.
    assert state == uncapped


# -- op counts ---------------------------------------------------------------------------


class CountingSqlite(SqliteEngine):
    """SQLite engine counting write calls and commits."""

    def __init__(self, path: str):
        super().__init__(path)
        self.writes = 0
        self.commits = 0

    def _commit(self, defer: bool = False) -> None:
        if not defer and self.synchronous:
            self.commits += 1
        super()._commit(defer)

    def put(self, *args, **kwargs):
        self.writes += 1
        return super().put(*args, **kwargs)

    def put_new(self, *args, **kwargs):
        self.writes += 1
        return super().put_new(*args, **kwargs)

    def put_many(self, *args, **kwargs):
        self.writes += 1
        return super().put_many(*args, **kwargs)

    def delete(self, *args, **kwargs):
        self.writes += 1
        return super().delete(*args, **kwargs)

    def delete_many(self, *args, **kwargs):
        self.writes += 1
        return super().delete_many(*args, **kwargs)


def counted_server(tmp_path, name, num_tasks, redundancy=2):
    engine = CountingSqlite(str(tmp_path / f"{name}.db"))
    store = DurableTaskStore(engine, owns_engine=True)
    server = PlatformServer(
        worker_pool=WorkerPool.uniform(size=8, accuracy=0.9, seed=4),
        config=PlatformConfig(seed=4),
        store=store,
    )
    project = server.create_project("ops")
    tasks = server.create_tasks(
        project.project_id,
        [{"info": {"i": i}, "n_assignments": redundancy} for i in range(num_tasks)],
    )
    engine.writes = engine.commits = 0
    return engine, server, project.project_id, tasks


def test_simulate_writes_grow_with_pages_not_tasks(tmp_path):
    page = PlatformServer._work_page_size
    counts = {}
    for num_tasks in (2 * page, 4 * page):
        engine, server, project_id, _ = counted_server(tmp_path, f"n{num_tasks}", num_tasks)
        assert server.simulate_work(project_id) == 2 * num_tasks
        counts[num_tasks // page] = (engine.writes, engine.commits)
        server.close()
    (writes_2, commits_2), (writes_4, commits_4) = counts[2], counts[4]
    # At most four per page (lease, counter hint, runs, stamps) plus a
    # constant — doubling the tasks adds at most four per added page.
    assert writes_2 <= 4 * 2 + 2 and commits_2 <= 4 * 2 + 2
    assert writes_4 - writes_2 <= 4 * 2
    assert commits_4 - commits_2 <= 4 * 2


def test_extending_a_batch_is_one_write(tmp_path):
    engine, server, _, tasks = counted_server(tmp_path, "extend", 100)
    extended = server.extend_tasks_redundancy({task.task_id: 2 for task in tasks})
    assert (engine.writes, engine.commits) == (1, 1)
    assert [task.n_assignments for task in extended] == [4] * 100
    stored = server.store.get_tasks([task.task_id for task in tasks])
    assert [task.n_assignments for task in stored] == [4] * 100
    server.close()


@pytest.mark.parametrize(
    "extensions, error",
    [({1: 1, 2: 0, 3: 1}, PlatformError), ({1: 1, 999: 1}, TaskNotFoundError)],
)
def test_rejected_extension_writes_nothing(extensions, error, tmp_path):
    engine, server, _, tasks = counted_server(tmp_path, "reject", 3)
    with pytest.raises(error):
        server.extend_tasks_redundancy(extensions)
    assert engine.writes == 0
    assert [task.n_assignments for task in server.store.get_tasks([1, 2, 3])] == [2, 2, 2]
    server.close()
