"""Durable on return, checked from outside the writer's handles.

The platform store and the manipulation log buffer nothing: every answer
``simulate_work`` created and every log entry a ``CrowdData`` verb recorded
is committed to the database by the time the call returns.  Each test
checks that through a *second*, independent engine opened on the same
files while the writer is still open — before any ``flush()`` or
``close()`` of the writer — so nothing the writer holds in memory can make
the check pass.  The wire case goes further and SIGKILLs the server
process before looking.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import CrowdContext
from repro.config import PlatformConfig, ReprowdConfig, StorageConfig
from repro.core.manipulations import ManipulationLog
from repro.platform.server import PlatformServer
from repro.platform.store import DurableTaskStore
from repro.platform.wire import WireClient, spawn_server
from repro.presenters import ImageLabelPresenter
from repro.storage import SqliteEngine
from repro.storage.engine import open_engine
from repro.workers.pool import WorkerPool

OBJECTS = [f"img-{i:03d}.jpg" for i in range(40)]


def observed_runs(config: StorageConfig, task_ids: list[int]) -> list[list[dict]]:
    """The run lists of *task_ids* as a fresh engine on *config* reads them."""
    observer = open_engine(config)
    try:
        store = DurableTaskStore(observer)
        return [[run.to_dict() for run in runs] for runs in store.runs_for_tasks(task_ids)]
    finally:
        observer.close()


@pytest.mark.parametrize("engine", ["sqlite", "sharded"])
def test_simulate_work_runs_are_visible_on_return(engine, tmp_path):
    config = StorageConfig(engine=engine, path=str(tmp_path / "platform"), shards=3)
    store = DurableTaskStore(open_engine(config), owns_engine=True)
    server = PlatformServer(
        worker_pool=WorkerPool.uniform(size=8, accuracy=0.9, seed=5),
        config=PlatformConfig(seed=5),
        store=store,
    )
    project = server.create_project("durable")
    # Two work pages plus a partial third, so several page waves land.
    tasks = server.create_tasks(
        project.project_id,
        [{"info": {"i": i}, "n_assignments": 2} for i in range(1100)],
    )
    task_ids = [task.task_id for task in tasks]
    # A capped pass first: the answers of an interrupted call are durable too.
    created = server.simulate_work(project.project_id, max_assignments=700)
    assert created == 700
    written = [[run.to_dict() for run in runs] for runs in store.runs_for_tasks(task_ids)]
    assert observed_runs(config, task_ids) == written
    assert sum(map(len, written)) == 700

    server.simulate_work(project.project_id)
    written = [[run.to_dict() for run in runs] for runs in store.runs_for_tasks(task_ids)]
    assert observed_runs(config, task_ids) == written
    assert all(len(runs) == 2 for runs in written)
    server.close()


@pytest.mark.wire
def test_wire_simulate_work_survives_a_sigkill_on_return(tmp_path):
    path = str(tmp_path / "platform.db")
    handle = spawn_server(db=path, seed=9, pool_size=8, accuracy=0.9)
    with handle:
        client = WireClient(handle.host, handle.port)
        project = client.create_project("killed")
        tasks = client.create_tasks(
            project.project_id,
            [{"info": {"i": i}, "n_assignments": 2, "dedup_key": f"k{i}"} for i in range(600)],
        )
        assert client.simulate_work(project.project_id) == 1200
        handle.kill()  # no flush, no close: the process is simply gone
        client.close()
    runs = observed_runs(
        StorageConfig(engine="sqlite", path=path), [task.task_id for task in tasks]
    )
    assert [len(task_runs) for task_runs in runs] == [2] * 600


@pytest.mark.parametrize("transport", ["direct", "pipelined"])
def test_manipulation_log_entries_are_visible_on_return(transport, tmp_path):
    path = str(tmp_path / "experiment.db")
    config = ReprowdConfig.durable(path, seed=3)
    config = dataclasses.replace(
        config, platform=dataclasses.replace(config.platform, transport=transport)
    )
    context = CrowdContext(config=config)
    data = context.CrowdData(OBJECTS, table_name="labels")

    def observe() -> tuple[list[dict], int]:
        observer = SqliteEngine(path)
        try:
            log = [entry.to_dict() for entry in ManipulationLog(observer, "labels").history()]
            return log, DurableTaskStore(observer).counts()["task_runs"]
        finally:
            observer.close()

    verbs = [
        lambda d: d.set_presenter(ImageLabelPresenter(question="Face?")),
        lambda d: d.publish_task(n_assignments=3),
        lambda d: d.get_result(),
        lambda d: d.mv(),
    ]
    for verb in verbs:
        before = len(data.log)
        data = verb(data)
        log, runs = observe()
        assert len(log) > before
        assert log == [entry.to_dict() for entry in data.log.history()]
    # get_result's answers were durable when it returned, as well.
    assert runs == 3 * len(OBJECTS)
    context.close()
