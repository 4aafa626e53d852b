"""Cross-shard group commit: deferred durability barriers stay correct.

``put_many``/``delete_many`` accept ``defer_commit=True`` and
``commit_group()`` flushes everything deferred since the last barrier —
one commit per touched member per wave instead of one per write.  Proofs:

* engine level — on every registry engine, a deferred wave followed by one
  ``commit_group`` leaves byte-identical state to the serial (per-batch
  commit) run, durably: the durable engines are reopened and compared too;
* visibility level — deferred writes are readable on the same handle
  *before* the barrier (the simulate loop reads its own appends), and a
  barrier with nothing deferred is a no-op;
* crash level — on the log engine (whose reopen-from-disk is exact even
  with the dead handle still in scope) an uncommitted wave vanishes
  atomically: the reopened engine holds everything up to the last barrier
  and *nothing* from the abandoned wave;
* store level — a :class:`DurableTaskStore` in group-commit mode produces
  the same published tasks, runs, counters and timestamps as the serial
  store, survives reopen identically, refuses group mode when ``shared``,
  and loses exactly the unbarriered append tail on a crash.
"""

from __future__ import annotations

import pytest

from repro.config import PlatformConfig
from repro.platform.models import TaskRun
from repro.platform.server import PlatformServer
from repro.platform.store import DurableTaskStore
from repro.storage import LogStructuredEngine, SqliteEngine
from repro.storage.testing import DURABLE_ENGINE_NAMES, ENGINE_NAMES, build_engine
from repro.workers.pool import WorkerPool

TABLE = "t"


def wave_ops(engine, defer):
    """One multi-batch write wave: inserts, overwrites, deletes."""
    engine.create_table(TABLE)
    engine.put_many(
        TABLE, [(f"a{i:02d}", {"i": i}) for i in range(8)], defer_commit=defer
    )
    engine.put_many(
        TABLE,
        [("a03", {"i": 3, "rev": 2}), ("b00", {"x": 0})],
        defer_commit=defer,
    )
    removed = engine.delete_many(TABLE, ["a01", "a05", "missing"], defer_commit=defer)
    assert removed == 2  # absent keys are not counted, deferred or not
    if defer:
        engine.commit_group()


def engine_state(engine):
    return [(r.key, r.value, r.version) for r in engine.scan(TABLE)]


class TestEngineGroupCommit:
    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_deferred_wave_equals_serial_writes(self, name, tmp_path):
        serial = build_engine(name, tmp_path / "serial")
        group = build_engine(name, tmp_path / "group")
        wave_ops(serial, defer=False)
        wave_ops(group, defer=True)
        expected = engine_state(serial)
        assert engine_state(group) == expected

        serial.close()
        group.close()
        if name in DURABLE_ENGINE_NAMES:
            assert engine_state(build_engine(name, tmp_path / "serial")) == expected
            assert engine_state(build_engine(name, tmp_path / "group")) == expected

    def test_deferred_writes_visible_before_the_barrier(self, sqlite_engine):
        sqlite_engine.create_table(TABLE)
        sqlite_engine.put_many(TABLE, [("k", {"v": 1})], defer_commit=True)
        assert sqlite_engine.get(TABLE, "k") == {"v": 1}
        assert sqlite_engine.count(TABLE) == 1
        sqlite_engine.delete_many(TABLE, ["k"], defer_commit=True)
        assert sqlite_engine.get(TABLE, "k") is None
        sqlite_engine.commit_group()

    def test_barrier_with_nothing_deferred_is_a_noop(self, any_engine):
        any_engine.commit_group()  # must not raise, even before any write
        any_engine.create_table(TABLE)
        any_engine.put(TABLE, "k", {"v": 1})
        any_engine.commit_group()
        assert any_engine.get(TABLE, "k") == {"v": 1}

    def test_log_engine_crash_loses_exactly_the_uncommitted_wave(self, tmp_path):
        path = str(tmp_path / "wal")
        engine = LogStructuredEngine(path, snapshot_every=1000)
        engine.create_table(TABLE)
        engine.put_many(TABLE, [(f"safe{i}", {"i": i}) for i in range(4)])
        engine.put_many(
            TABLE, [(f"lost{i}", {"i": i}) for i in range(4)], defer_commit=True
        )
        engine.delete_many(TABLE, ["safe0"], defer_commit=True)
        # Crash: abandon the handle without commit_group/flush/close.
        survivor = LogStructuredEngine(path, snapshot_every=1000)
        assert sorted(survivor.keys(TABLE)) == [f"safe{i}" for i in range(4)]
        survivor.close()

    def test_log_engine_barrier_makes_the_wave_durable(self, tmp_path):
        path = str(tmp_path / "wal")
        engine = LogStructuredEngine(path, snapshot_every=1000)
        engine.create_table(TABLE)
        engine.put_many(
            TABLE, [(f"k{i}", {"i": i}) for i in range(4)], defer_commit=True
        )
        engine.commit_group()
        # Crash *after* the barrier: the wave must survive in full.
        survivor = LogStructuredEngine(path, snapshot_every=1000)
        assert sorted(survivor.keys(TABLE)) == [f"k{i}" for i in range(4)]
        survivor.close()


def build_server(store, seed=3):
    pool = WorkerPool.uniform(size=10, accuracy=0.95, seed=seed)
    return PlatformServer(
        worker_pool=pool, config=PlatformConfig(seed=seed), store=store
    )


def run_experiment(store, num_tasks=12):
    server = build_server(store)
    project = server.create_project("exp")
    tasks = server.create_tasks(
        project.project_id,
        [
            {
                "info": {"i": i, "_true_answer": "Yes"},
                "n_assignments": 2,
                "dedup_key": f"k{i}",
            }
            for i in range(num_tasks)
        ],
    )
    server.simulate_work(project.project_id)
    store.flush()
    return server, project, tasks


def observable(store, project, tasks):
    return {
        "counts": store.counts(),
        "task_ids": [task.task_id for task in tasks],
        "runs": [
            [run.to_dict() for run in runs]
            for runs in store.runs_for_tasks([task.task_id for task in tasks])
        ],
        "latest": store.latest_timestamp(),
    }


class TestStoreGroupCommit:
    def test_group_mode_matches_the_serial_store(self, tmp_path):
        states = {}
        for label, group in (("serial", False), ("group", True)):
            engine = SqliteEngine(str(tmp_path / f"{label}.db"))
            store = DurableTaskStore(engine, group_commit=group)
            server, project, tasks = run_experiment(store)
            states[label] = observable(store, project, tasks)
            store.close()
            # Reopen from disk: the deferred waves must all have landed.
            reopened = DurableTaskStore(
                SqliteEngine(str(tmp_path / f"{label}.db")), group_commit=group
            )
            states[f"{label}-reopened"] = observable(reopened, project, tasks)
            # Id counters resume identically (no ids lost, none reused).
            states[f"{label}-next"] = (
                reopened.allocate_project_id(),
                reopened.allocate_task_ids(1),
                reopened.allocate_run_ids(1),
            )
            reopened.close()
        assert states["serial"] == states["group"]
        assert states["serial-reopened"] == states["group-reopened"]
        assert states["serial"] == states["serial-reopened"]
        assert states["serial-next"] == states["group-next"]

    def test_group_mode_with_batched_appends(self, tmp_path):
        engine = SqliteEngine(str(tmp_path / "batched.db"))
        store = DurableTaskStore(engine, group_commit=True, append_batch_size=16)
        server, project, tasks = run_experiment(store)
        assert store.counts()["task_runs"] == 2 * len(tasks)
        store.close()
        reopened = DurableTaskStore(SqliteEngine(str(tmp_path / "batched.db")))
        assert reopened.counts()["task_runs"] == 2 * len(tasks)
        reopened.close()

    def test_shared_mode_forces_group_commit_off(self, tmp_path):
        engine = SqliteEngine(str(tmp_path / "shared.db"))
        store = DurableTaskStore(engine, shared=True, group_commit=True)
        # Cross-process sharing relies on every write being visible (and
        # every lock released) immediately; deferral would break both.
        assert store._group_commit is False
        store.close()

    def test_crash_loses_only_the_unbarriered_append_tail(self, tmp_path):
        path = str(tmp_path / "wal")
        engine = LogStructuredEngine(path, snapshot_every=1000)
        store = DurableTaskStore(engine, group_commit=True)
        server = build_server(store)
        project = server.create_project("exp")
        tasks = server.create_tasks(
            project.project_id,
            [
                {"info": {"i": i}, "n_assignments": 1, "dedup_key": f"k{i}"}
                for i in range(4)
            ],
        )
        store.flush()  # barrier: the publish wave is durable
        # Append runs directly, *without* reaching a barrier.  (The server's
        # simulate_work ends in flush_appends — itself a barrier — so a real
        # crash can only lose appends issued since the last call.)
        first_run_id = store.allocate_run_ids(len(tasks), clock_time=1.0)
        store.append_runs(
            {
                task.task_id: [
                    TaskRun(
                        run_id=first_run_id + offset,
                        task_id=task.task_id,
                        project_id=project.project_id,
                        worker_id="w0",
                        answer="Yes",
                        submitted_at=1.0,
                        assignment_order=1,
                    )
                ]
                for offset, task in enumerate(tasks)
            }
        )
        assert store.counts()["task_runs"] == 4  # visible pre-barrier
        survivor = DurableTaskStore(LogStructuredEngine(path, snapshot_every=1000))
        counts = survivor.counts()
        assert counts["projects"] == 1
        assert counts["tasks"] == 4  # the barriered publish survived whole
        assert counts["task_runs"] == 0  # the unbarriered tail vanished whole
        # The healed rerun completes the work exactly once.
        healed_server = build_server(survivor)
        healed_server.simulate_work(project.project_id)
        survivor.flush()
        assert survivor.counts()["task_runs"] == 4
        survivor.close()
