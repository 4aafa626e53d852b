"""Streaming results pipeline: paged collection equals batched collection.

Three layers of proof:

* platform level — ``iter_task_runs_for_project`` / ``list_project_task_ids``
  page through a project with the storage-style exclusive cursor and
  reassemble to exactly the store's own whole-project read, with round-trip
  counts of ``ceil(tasks / page_size)`` (via :class:`CountingTransport`);
* CrowdData level — a project with more rows than ``collect_page_size``
  collects the identical result column through the streaming path and the
  one-page path, and cache flushes stay bounded by the page size;
* fault-recovery level — a crash injected mid-stream (inside a paged cache
  flush) reruns to the identical final state with zero re-collected answers
  and no overwritten cache records.
"""

from __future__ import annotations

import math

import pytest

from repro import CrowdContext
from repro.config import PlatformConfig, WorkerPoolConfig
from repro.exceptions import CrashInjected, PlatformError
from repro.platform.client import PlatformClient
from repro.platform.server import PlatformServer
from repro.platform.transport import CountingTransport
from repro.presenters import ImageLabelPresenter
from repro.platform.store import DurableTaskStore
from repro.simulation import CrashPlan, CrashingEngine
from repro.storage import MemoryEngine, SqliteEngine
from repro.workers.pool import WorkerPool

NUM_OBJECTS = 23
PAGE_SIZE = 5
REDUNDANCY = 2


def make_client(transport=None, seed=13, store=None):
    pool = WorkerPool.from_config(WorkerPoolConfig(size=20, mean_accuracy=0.9, seed=seed))
    server = PlatformServer(worker_pool=pool, config=PlatformConfig(seed=seed), store=store)
    return PlatformClient(server, transport=transport)


@pytest.fixture(params=["memory", "durable"])
def populated_project(request):
    """Platform paging runs against both task stores: the cursor contract
    must hold whether the server's state is in dicts or on an engine."""
    transport = CountingTransport()
    store = None
    if request.param == "durable":
        store = DurableTaskStore(MemoryEngine(), owns_engine=True)
    client = make_client(transport, store=store)
    project = client.create_project("streaming")
    specs = [
        {"info": {"url": f"img-{i:03d}", "_true_answer": "Yes"}, "n_assignments": REDUNDANCY}
        for i in range(NUM_OBJECTS)
    ]
    client.create_tasks(project.project_id, specs)
    client.simulate_work(project_id=project.project_id)
    return client, project, transport


class TestPlatformPaging:
    def test_stream_reassembles_to_batched_map(self, populated_project):
        client, project, _ = populated_project
        store = client.server.store
        task_ids = store.project_task_ids(project.project_id)
        batched = dict(zip(task_ids, store.runs_for_tasks(task_ids)))
        streamed = dict(client.iter_task_runs_for_project(project.project_id, PAGE_SIZE))
        assert streamed == batched
        assert list(streamed) == task_ids  # same publication order

    def test_paging_survives_task_deletion(self, populated_project):
        client, project, _ = populated_project
        ids = list(client.iter_project_task_ids(project.project_id, PAGE_SIZE))
        client.delete_task(ids[3])
        survivors = list(client.iter_project_task_ids(project.project_id, PAGE_SIZE))
        assert survivors == ids[:3] + ids[4:]
        # A deleted task id is no longer a valid cursor.
        with pytest.raises(PlatformError):
            client.get_task_runs_page(project.project_id, PAGE_SIZE, start_after=ids[3])

    def test_round_trips_are_one_per_page(self, populated_project):
        client, project, transport = populated_project
        transport.calls_by_name.clear()
        pages = []
        for _ in client.iter_task_runs_for_project(project.project_id, PAGE_SIZE):
            pages.append(_)
        assert transport.calls_by_name["get_task_runs_page"] == math.ceil(
            NUM_OBJECTS / PAGE_SIZE
        )

    def test_every_page_is_bounded_by_page_size(self, populated_project):
        client, project, _ = populated_project
        cursor, sizes = None, []
        while True:
            page = client.get_task_runs_page(project.project_id, PAGE_SIZE, start_after=cursor)
            sizes.append(len(page))
            if len(page) < PAGE_SIZE:
                break
            cursor = page[-1][0]
        assert max(sizes) <= PAGE_SIZE
        assert sum(sizes) == NUM_OBJECTS

    def test_task_id_stream_matches_task_list(self, populated_project):
        client, project, _ = populated_project
        ids = list(client.iter_project_task_ids(project.project_id, PAGE_SIZE))
        assert ids == client.server.store.project_task_ids(project.project_id)

    def test_bad_cursor_and_bad_limit_raise(self, populated_project):
        client, project, _ = populated_project
        with pytest.raises(PlatformError):
            client.get_task_runs_page(project.project_id, PAGE_SIZE, start_after=99999)
        with pytest.raises(PlatformError):
            client.list_project_task_ids(project.project_id, 0)


def run_experiment(engine, client, page_size, table="stream_tbl"):
    context = CrowdContext(engine=engine, client=client, ground_truth=lambda obj: "Yes")
    data = context.CrowdData(
        [f"img-{i:03d}.png" for i in range(NUM_OBJECTS)], table
    )
    data.collect_page_size = page_size
    data.set_presenter(ImageLabelPresenter())
    data.publish_task(n_assignments=REDUNDANCY)
    data.get_result()
    return data


class TestStreamingCrowdDataCollection:
    def test_paged_and_single_page_paths_collect_identical_results(self, tmp_path):
        streamed = run_experiment(
            SqliteEngine(str(tmp_path / "paged.db")), make_client(), page_size=PAGE_SIZE
        )
        batched = run_experiment(
            SqliteEngine(str(tmp_path / "one_page.db")),
            make_client(),
            page_size=10 * NUM_OBJECTS,
        )
        assert streamed.column("result") == batched.column("result")
        assert all(result["complete"] for result in streamed.column("result"))

    def test_collection_round_trips_scale_with_pages_not_rows(self, tmp_path):
        transport = CountingTransport()
        run_experiment(
            SqliteEngine(str(tmp_path / "counted.db")),
            make_client(transport),
            page_size=PAGE_SIZE,
        )
        pages = math.ceil(NUM_OBJECTS / PAGE_SIZE)
        assert transport.calls_by_name["get_task_runs_page"] <= pages
        assert transport.calls_by_name["list_project_task_ids"] == pages
        # Only bulk verbs cross the transport: nothing per row.
        assert set(transport.calls_by_name) <= {
            "create_project",
            "create_tasks",
            "simulate_work",
            "list_project_task_ids",
            "get_task_runs_page",
        }

    def test_cache_flushes_are_bounded_by_page_size(self, tmp_path):
        durable = SqliteEngine(str(tmp_path / "bounded.db"))

        batch_sizes = []
        original = SqliteEngine.put_many

        def spying_put_many(self, table_name, items, if_absent=False):
            items = list(items)
            if table_name.endswith("::results"):
                batch_sizes.append(len(items))
            return original(self, table_name, items, if_absent=if_absent)

        SqliteEngine.put_many = spying_put_many
        try:
            run_experiment(durable, make_client(), page_size=PAGE_SIZE)
        finally:
            SqliteEngine.put_many = original
        assert batch_sizes, "streaming collection never flushed the cache"
        assert max(batch_sizes) <= PAGE_SIZE
        assert sum(batch_sizes) == NUM_OBJECTS
        durable.close()


class TestCrashMidStream:
    @pytest.mark.parametrize("crash_offset", [2, 9, 18])
    def test_rerun_after_mid_stream_crash_is_exactly_once(self, tmp_path, crash_offset):
        client = make_client()
        durable = SqliteEngine(str(tmp_path / "crash_stream.db"))
        # Publish writes: __tables__ + init log + presenter meta + log +
        # project meta + 23 task descriptors + publish log = 28; the paged
        # result flushes span the following NUM_OBJECTS writes.
        crash_after = 28 + crash_offset
        with pytest.raises(CrashInjected):
            run_experiment(
                CrashingEngine(durable, CrashPlan(crash_after_writes=crash_after)),
                client,
                page_size=PAGE_SIZE,
            )
        runs_after_crash = client.statistics()["task_runs"]
        assert runs_after_crash == NUM_OBJECTS * REDUNDANCY
        cached = durable.count("stream_tbl::results")
        assert 0 < cached < NUM_OBJECTS

        data = run_experiment(durable, client, page_size=PAGE_SIZE)
        stats = client.statistics()
        assert stats["task_runs"] == runs_after_crash  # zero re-collected answers
        assert stats["tasks"] == NUM_OBJECTS  # zero duplicate publishes
        assert all(result["complete"] for result in data.column("result"))
        # The surviving page-prefix was never overwritten or version-bumped.
        assert [r.version for r in durable.scan("stream_tbl::results")] == [1] * NUM_OBJECTS
        durable.close()
