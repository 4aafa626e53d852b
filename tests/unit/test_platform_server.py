"""Unit tests for the simulated platform server."""

from __future__ import annotations

import gc
import statistics
import time

import pytest

from repro.config import PlatformConfig
from repro.exceptions import PlatformError, ProjectNotFoundError, TaskNotFoundError
from repro.platform.models import Project, Task, TaskRun
from repro.platform.server import PlatformServer
from repro.platform.store import DurableTaskStore
from repro.storage import SqliteEngine
from repro.workers.pool import WorkerPool


@pytest.fixture(params=["memory", "durable"])
def server(request, tmp_path):
    """The whole suite runs once per task store: the two implementations
    behind PlatformServer must be behaviourally indistinguishable."""
    pool = WorkerPool.uniform(size=10, accuracy=0.95, seed=1)
    store = None
    if request.param == "durable":
        store = DurableTaskStore(
            SqliteEngine(str(tmp_path / "platform.db")), owns_engine=True
        )
    yield PlatformServer(worker_pool=pool, config=PlatformConfig(seed=1), store=store)
    if store is not None:
        store.close()


def create_one(server, project_id, info, n_assignments=None, dedup_key=None):
    """Publish one task as a one-spec ``create_tasks`` batch."""
    spec = {"info": info, "n_assignments": n_assignments, "dedup_key": dedup_key}
    return server.create_tasks(project_id, [spec])[0]


def task_ids(server, project_id):
    """The project's task ids in publication order, as one cursor page."""
    return server.list_project_task_ids(project_id, 1000)


def project_runs(server, project_id):
    """Every run of the project, grouped by task order, read off the store."""
    store = server.store
    return [
        run
        for runs in store.runs_for_tasks(store.project_task_ids(project_id))
        for run in runs
    ]


class TestModels:
    def test_project_roundtrip(self):
        project = Project(project_id=1, name="p", short_name="p", description="d")
        assert Project.from_dict(project.to_dict()) == project

    def test_task_roundtrip(self):
        task = Task(task_id=3, project_id=1, info={"object": "x"}, n_assignments=5)
        assert Task.from_dict(task.to_dict()) == task

    def test_task_run_roundtrip(self):
        run = TaskRun(
            run_id=9, task_id=3, project_id=1, worker_id="w1", answer="Yes",
            submitted_at=10.0, latency_seconds=4.0, assignment_order=2,
        )
        assert TaskRun.from_dict(run.to_dict()) == run


class TestProjects:
    def test_create_project(self, server):
        project = server.create_project("my experiment", description="d")
        assert project.project_id == 1
        assert project.short_name == "my-experiment"

    def test_create_is_idempotent_by_name(self, server):
        first = server.create_project("p")
        second = server.create_project("p")
        assert first.project_id == second.project_id
        assert len(server.list_projects()) == 1

    def test_find_project(self, server):
        server.create_project("p")
        assert server.find_project("p") is not None
        assert server.find_project("missing") is None

    def test_get_missing_project_raises(self, server):
        with pytest.raises(ProjectNotFoundError):
            server.get_project(99)

    def test_delete_project_removes_tasks(self, server):
        project = server.create_project("p")
        task = create_one(server, project.project_id, {"object": "x"})
        server.delete_project(project.project_id)
        with pytest.raises(ProjectNotFoundError):
            server.get_project(project.project_id)
        with pytest.raises(TaskNotFoundError):
            server.get_task(task.task_id)

    def test_authentication(self, server):
        assert server.authenticate("test-api-key")
        assert not server.authenticate("wrong")
        with pytest.raises(PlatformError):
            server.require_auth("wrong")


class TestTasks:
    def test_create_task_uses_default_redundancy(self, server):
        project = server.create_project("p")
        task = create_one(server, project.project_id, {"object": "x"})
        assert task.n_assignments == server.config.default_redundancy

    def test_create_task_overrides_redundancy(self, server):
        project = server.create_project("p")
        task = create_one(server, project.project_id, {"object": "x"}, n_assignments=7)
        assert task.n_assignments == 7

    def test_create_task_rejects_bad_redundancy(self, server):
        project = server.create_project("p")
        with pytest.raises(PlatformError):
            create_one(server, project.project_id, {"object": "x"}, n_assignments=0)

    def test_create_task_unknown_project(self, server):
        with pytest.raises(ProjectNotFoundError):
            create_one(server, 42, {"object": "x"})

    def test_list_tasks_in_publication_order(self, server):
        project = server.create_project("p")
        ids = [create_one(server, project.project_id, {"i": i}).task_id for i in range(5)]
        assert task_ids(server, project.project_id) == ids

    def test_delete_task(self, server):
        project = server.create_project("p")
        task = create_one(server, project.project_id, {"object": "x"})
        server.delete_task(task.task_id)
        assert task_ids(server, project.project_id) == []


class TestBatchPublish:
    def test_create_tasks_returns_tasks_in_spec_order(self, server):
        project = server.create_project("p")
        tasks = server.create_tasks(
            project.project_id, [{"info": {"i": i}} for i in range(5)]
        )
        assert [task.info["i"] for task in tasks] == list(range(5))
        assert task_ids(server, project.project_id) == [task.task_id for task in tasks]

    def test_batch_redundancy_matches_single_publish(self, server):
        project = server.create_project("p")
        single_default = create_one(server, project.project_id, {"object": "a"})
        single_custom = create_one(server, project.project_id, {"object": "b"}, 7)
        batch_default, batch_custom = server.create_tasks(
            project.project_id,
            [{"info": {"object": "c"}}, {"info": {"object": "d"}, "n_assignments": 7}],
        )
        assert batch_default.n_assignments == single_default.n_assignments
        assert batch_custom.n_assignments == single_custom.n_assignments

    def test_bad_spec_publishes_nothing(self, server):
        project = server.create_project("p")
        with pytest.raises(PlatformError):
            server.create_tasks(
                project.project_id,
                [{"info": {"i": 0}}, {"info": {"i": 1}, "n_assignments": 0}],
            )
        with pytest.raises(PlatformError):
            server.create_tasks(project.project_id, [{"n_assignments": 3}])
        assert task_ids(server, project.project_id) == []

    def test_create_tasks_unknown_project(self, server):
        with pytest.raises(ProjectNotFoundError):
            server.create_tasks(42, [{"info": {}}])

    def test_dedup_key_makes_batch_publish_idempotent(self, server):
        project = server.create_project("p")
        specs = [{"info": {"i": i}, "dedup_key": f"k{i}"} for i in range(4)]
        first = server.create_tasks(project.project_id, specs)
        replayed = server.create_tasks(project.project_id, specs)
        assert [task.task_id for task in replayed] == [task.task_id for task in first]
        assert len(task_ids(server, project.project_id)) == 4

    def test_dedup_is_shared_between_single_and_batch_publish(self, server):
        project = server.create_project("p")
        single = create_one(server, project.project_id, {"i": 0}, dedup_key="k0")
        batched, fresh = server.create_tasks(
            project.project_id,
            [{"info": {"i": 0}, "dedup_key": "k0"}, {"info": {"i": 1}, "dedup_key": "k1"}],
        )
        assert batched.task_id == single.task_id
        assert fresh.task_id != single.task_id

    def test_dedup_is_scoped_per_project(self, server):
        first = server.create_project("p1")
        second = server.create_project("p2")
        task_a = create_one(server, first.project_id, {"i": 0}, dedup_key="k")
        task_b = create_one(server, second.project_id, {"i": 0}, dedup_key="k")
        assert task_a.task_id != task_b.task_id

    def test_deleted_task_is_not_resurrected_by_dedup(self, server):
        project = server.create_project("p")
        task = create_one(server, project.project_id, {"i": 0}, dedup_key="k")
        server.delete_task(task.task_id)
        fresh = create_one(server, project.project_id, {"i": 0}, dedup_key="k")
        assert fresh.task_id != task.task_id

    def test_task_runs_page_covers_every_task(self, server):
        project = server.create_project("p")
        tasks = server.create_tasks(
            project.project_id,
            [{"info": {"i": i, "_true_answer": "Yes"}, "n_assignments": 2} for i in range(3)],
        )
        page = server.get_task_runs_page(project.project_id, 10)
        assert page == [(task.task_id, []) for task in tasks]
        server.simulate_work(project.project_id)
        page = server.get_task_runs_page(project.project_id, 10)
        assert [task_id for task_id, _ in page] == [task.task_id for task in tasks]
        assert all(len(runs) == 2 for _, runs in page)
        assert [run for _, runs in page for run in runs] == project_runs(
            server, project.project_id
        )

    def test_assignment_strategy_identical_between_single_and_batch(self):
        """The same crowd answers the same tasks whichever way they were
        published: worker selection must not depend on the publish batching."""
        from repro.platform.assignment import RoundRobinAssignment

        def build_server():
            pool = WorkerPool.uniform(size=6, accuracy=1.0, seed=5)
            return PlatformServer(
                worker_pool=pool,
                config=PlatformConfig(seed=5),
                assignment=RoundRobinAssignment(),
            )

        infos = [{"i": i, "candidates": ["Yes", "No"], "_true_answer": "Yes"} for i in range(4)]

        single = build_server()
        project = single.create_project("p")
        for info in infos:
            create_one(single, project.project_id, info, 3)
        single.simulate_work(project.project_id)

        batch = build_server()
        project_b = batch.create_project("p")
        batch.create_tasks(
            project_b.project_id, [{"info": info, "n_assignments": 3} for info in infos]
        )
        batch.simulate_work(project_b.project_id)

        single_runs = [
            (run.task_id, run.worker_id, run.answer)
            for run in project_runs(single, project.project_id)
        ]
        batch_runs = [
            (run.task_id, run.worker_id, run.answer)
            for run in project_runs(batch, project_b.project_id)
        ]
        assert single_runs == batch_runs


class TestPublishScaling:
    @staticmethod
    def keyed_publish_seconds(num_specs: int) -> float:
        """Wall time of one dedup-keyed ``create_tasks`` batch on a fresh server."""
        server = PlatformServer(
            worker_pool=WorkerPool.uniform(size=3, accuracy=0.9, seed=1),
            config=PlatformConfig(seed=1),
        )
        project = server.create_project("p")
        specs = [{"info": {"i": i}, "dedup_key": f"k{i}"} for i in range(num_specs)]
        # Like timeit: a collector pause inside one sample is noise, not
        # publish cost.
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            server.create_tasks(project.project_id, specs)
            return time.perf_counter() - started
        finally:
            gc.enable()

    def test_keyed_publish_scales_linearly(self):
        """Doubling a keyed batch must about double its cost: a per-key
        rebuild of the claim map made it quadruple (ratio ~4).  Sizes are
        interleaved so a burst of machine load hits both alike."""
        self.keyed_publish_seconds(2000)  # warm-up
        small, large = [], []
        for _ in range(3):
            small.append(self.keyed_publish_seconds(2000))
            large.append(self.keyed_publish_seconds(4000))
        ratio = statistics.median(large) / statistics.median(small)
        assert ratio < 3, f"4000/2000-spec publish time ratio {ratio:.2f}"


class TestBatchBudgetCharging:
    def test_bulk_publish_charges_like_single_publish(self, tmp_path):
        """One charge per row at the same price whichever path publishes."""
        from repro import CrowdContext
        from repro.core.budget import BudgetTracker
        from repro.presenters import ImageLabelPresenter

        def spend(objects) -> tuple[float, int]:
            budget = BudgetTracker(price_per_assignment=0.05)
            context = CrowdContext.in_memory(budget=budget)
            data = context.CrowdData(objects, "budgeted")
            data.set_presenter(ImageLabelPresenter())
            data.publish_task(n_assignments=3)
            context.close()
            return budget.spent, len(budget.charges)

        objects = [f"img-{i}.png" for i in range(6)]
        bulk_spent, bulk_charges = spend(objects)
        expected = sum(spend([obj])[0] for obj in objects)
        assert bulk_spent == pytest.approx(expected)
        assert bulk_charges == len(objects)

    def test_tight_budget_publishes_affordable_prefix_only(self):
        """Spend always equals crowd work actually purchased: a batch the
        budget cannot cover publishes its affordable prefix, charges exactly
        that, and raises so a rerun with more budget resumes."""
        from repro import CrowdContext
        from repro.core.budget import BudgetExceededError, BudgetTracker
        from repro.presenters import ImageLabelPresenter

        budget = BudgetTracker(price_per_assignment=0.10, budget=0.90)  # 3 tasks at r=3
        context = CrowdContext.in_memory(budget=budget)
        data = context.CrowdData([f"img-{i}.png" for i in range(5)], "tight")
        data.set_presenter(ImageLabelPresenter())
        with pytest.raises(BudgetExceededError):
            data.publish_task(n_assignments=3)
        assert context.client.statistics()["tasks"] == 3
        assert budget.total_assignments() == 9
        assert budget.spent == pytest.approx(0.90)

    def test_republished_rows_are_not_recharged(self):
        """A rerun with a warm cache publishes and charges nothing."""
        from repro import CrowdContext
        from repro.core.budget import BudgetTracker
        from repro.presenters import ImageLabelPresenter
        from repro.storage import MemoryEngine

        engine = MemoryEngine()
        first_budget = BudgetTracker()
        context = CrowdContext.in_memory(engine=engine, budget=first_budget)
        objects = [f"img-{i}.png" for i in range(4)]
        context.CrowdData(objects, "warm").set_presenter(
            ImageLabelPresenter()
        ).publish_task(n_assignments=3)

        rerun_budget = BudgetTracker()
        rerun = CrowdContext.in_memory(
            engine=engine, client=context.client, budget=rerun_budget
        )
        rerun.CrowdData(objects, "warm").set_presenter(
            ImageLabelPresenter()
        ).publish_task(n_assignments=3)
        assert rerun_budget.spent == 0.0
        assert context.client.statistics()["tasks"] == len(objects)


class TestWorkSimulation:
    def test_pending_assignments_counts_missing_answers(self, server):
        project = server.create_project("p")
        create_one(server, project.project_id, {"object": "x", "_true_answer": "Yes"}, 3)
        create_one(server, project.project_id, {"object": "y", "_true_answer": "No"}, 2)
        assert server.pending_assignments(project.project_id) == 5

    def test_simulate_work_fills_all_assignments(self, server):
        project = server.create_project("p")
        task = create_one(
            server,
            project.project_id,
            {"object": "x", "candidates": ["Yes", "No"], "_true_answer": "Yes"},
            3,
        )
        created = server.simulate_work(project.project_id)
        assert created == 3
        assert len(project_runs(server, project.project_id)) == task.n_assignments
        assert server.pending_assignments(project.project_id) == 0

    def test_simulate_work_is_idempotent_once_complete(self, server):
        project = server.create_project("p")
        create_one(server, project.project_id, {"object": "x", "_true_answer": "Yes"}, 3)
        server.simulate_work(project.project_id)
        assert server.simulate_work(project.project_id) == 0

    def test_task_runs_have_distinct_workers(self, server):
        project = server.create_project("p")
        task = create_one(
            server,
            project.project_id,
            {"object": "x", "candidates": ["Yes", "No"], "_true_answer": "Yes"},
            5,
        )
        server.simulate_work(project.project_id)
        runs = project_runs(server, project.project_id)
        assert len({run.worker_id for run in runs}) == 5

    def test_redundancy_above_pool_size_reuses_workers(self):
        pool = WorkerPool.uniform(size=2, accuracy=0.9, seed=1)
        server = PlatformServer(worker_pool=pool, config=PlatformConfig(seed=1))
        project = server.create_project("p")
        task = create_one(server, project.project_id, {"object": "x", "_true_answer": "Yes"}, 4)
        server.simulate_work(project.project_id)
        assert len(project_runs(server, project.project_id)) == 4

    def test_max_assignments_limits_progress(self, server):
        project = server.create_project("p")
        for index in range(4):
            create_one(server, project.project_id, {"object": index, "_true_answer": "Yes"}, 3)
        created = server.simulate_work(project.project_id, max_assignments=5)
        assert created == 5
        assert server.pending_assignments(project.project_id) == 7

    def test_assignment_order_and_timestamps_increase(self, server):
        project = server.create_project("p")
        task = create_one(
            server,
            project.project_id, {"object": "x", "_true_answer": "Yes"}, 3
        )
        server.simulate_work(project.project_id)
        runs = project_runs(server, project.project_id)
        assert [run.assignment_order for run in runs] == [1, 2, 3]
        times = [run.submitted_at for run in runs]
        assert times == sorted(times)
        assert all(run.latency_seconds > 0 for run in runs)

    def test_reliable_oracle_answers_match_truth(self):
        pool = WorkerPool.uniform(size=5, accuracy=1.0, seed=1)
        server = PlatformServer(worker_pool=pool, config=PlatformConfig(seed=1))
        project = server.create_project("p")
        task = create_one(
            server,
            project.project_id,
            {"object": "x", "candidates": ["Yes", "No"], "_true_answer": "No"},
            3,
        )
        server.simulate_work(project.project_id)
        assert all(run.answer == "No" for run in project_runs(server, project.project_id))

    def test_custom_answer_oracle(self):
        pool = WorkerPool.uniform(size=5, accuracy=1.0, seed=1)
        server = PlatformServer(
            worker_pool=pool,
            config=PlatformConfig(seed=1),
            answer_oracle=lambda info: "Cat" if "cat" in str(info["object"]) else "Dog",
        )
        project = server.create_project("p")
        task = create_one(
            server,
            project.project_id,
            {"object": "a cat picture", "candidates": ["Cat", "Dog"]},
            2,
        )
        server.simulate_work()
        assert {run.answer for run in project_runs(server, project.project_id)} == {"Cat"}

    def test_statistics(self, server):
        project = server.create_project("p")
        create_one(server, project.project_id, {"object": "x", "_true_answer": "Yes"}, 3)
        server.simulate_work()
        stats = server.statistics()
        assert stats["projects"] == 1
        assert stats["tasks"] == 1
        assert stats["task_runs"] == 3
        assert stats["pending_assignments"] == 0
