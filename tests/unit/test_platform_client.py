"""Unit tests for the platform client, transports and assignment strategies."""

from __future__ import annotations

import pytest

from repro.config import PlatformConfig
from repro.exceptions import NoEligibleWorkerError, PlatformError, PlatformUnavailableError
from repro.platform.assignment import (
    LeastLoadedAssignment,
    RandomAssignment,
    RoundRobinAssignment,
)
from repro.platform.client import PlatformClient
from repro.platform.server import PlatformServer
from repro.platform.transport import DirectTransport, FaultInjectingTransport
from repro.workers.pool import WorkerPool


@pytest.fixture
def server():
    pool = WorkerPool.uniform(size=8, accuracy=0.95, seed=2)
    return PlatformServer(worker_pool=pool, config=PlatformConfig(seed=2))


class TestClientBasics:
    def test_wrong_api_key_rejected(self, server):
        with pytest.raises(PlatformError):
            PlatformClient(server, api_key="nope")

    def test_create_and_find_project(self, server):
        client = PlatformClient(server)
        project = client.create_project("p", description="d")
        assert client.find_project("p").project_id == project.project_id
        assert client.get_project(project.project_id).name == "p"

    def test_task_lifecycle(self, server):
        client = PlatformClient(server)
        project = client.create_project("p")
        (task,) = client.create_tasks(
            project.project_id,
            [{"info": {"object": "x", "_true_answer": "Yes"}, "n_assignments": 3}],
        )
        assert client.get_task(task.task_id).task_id == task.task_id
        assert client.statistics()["pending_assignments"] == 3
        client.simulate_work(project.project_id)
        assert client.statistics()["pending_assignments"] == 0
        ((task_id, runs),) = client.get_task_runs_page(project.project_id, 10)
        assert task_id == task.task_id
        assert len(runs) == 3

    def test_delete_task_and_project(self, server):
        client = PlatformClient(server)
        project = client.create_project("p")
        (task,) = client.create_tasks(project.project_id, [{"info": {"object": "x"}}])
        client.delete_task(task.task_id)
        assert client.list_project_task_ids(project.project_id, 10) == []
        client.delete_project(project.project_id)
        assert client.find_project("p") is None

    def test_invalid_max_retries(self, server):
        with pytest.raises(ValueError):
            PlatformClient(server, max_retries=0)


class TestFaultInjectingTransport:
    def test_all_failures_eventually_propagate(self, server):
        transport = FaultInjectingTransport(failure_rate=1.0, seed=1)
        client = PlatformClient(server, transport=transport, max_retries=3)
        with pytest.raises(PlatformUnavailableError):
            client.create_project("p")
        assert transport.failures_injected == 3

    def test_partial_failures_are_retried_away(self, server):
        transport = FaultInjectingTransport(failure_rate=0.4, seed=3)
        client = PlatformClient(server, transport=transport, max_retries=10)
        project = client.create_project("p")
        for index in range(20):
            client.create_tasks(
                project.project_id,
                [{"info": {"object": index, "_true_answer": "Yes"}, "n_assignments": 2}],
            )
        client.simulate_work(project.project_id)
        assert client.statistics()["pending_assignments"] == 0
        assert len(client.list_project_task_ids(project.project_id, 100)) == 20
        assert transport.failures_injected > 0

    def test_duplicate_delivery_of_create_project_is_harmless(self, server):
        transport = FaultInjectingTransport(duplicate_rate=1.0, seed=4)
        client = PlatformClient(server, transport=transport)
        client.create_project("p")
        # Idempotent server-side creation: only one project despite the replay.
        assert len(server.list_projects()) == 1
        assert transport.duplicates_injected >= 1

    def test_statistics(self):
        transport = FaultInjectingTransport(failure_rate=0.0, seed=1)
        transport.call("noop", lambda: 1)
        assert transport.statistics()["calls"] == 1

    def test_statistics_tally_calls_and_failures_per_name(self, server):
        """The fault transport shares CountingTransport's per-name tallies,
        so a test can assert *which* call was retried, not just how many."""
        transport = FaultInjectingTransport(failure_rate=0.4, seed=3)
        client = PlatformClient(server, transport=transport, max_retries=10)
        project = client.create_project("p")
        client.create_tasks(
            project.project_id,
            [{"info": {"object": i, "_true_answer": "Yes"}} for i in range(10)],
        )
        stats = transport.statistics()
        assert stats["failures_injected"] > 0
        assert stats["calls"] == sum(stats["calls_by_name"].values())
        assert stats["failures_injected"] == sum(stats["failures_by_name"].values())
        # Every injected failure was absorbed by a same-name retry: each
        # call name ends with exactly one more attempt than failures.
        retried = {"create_project": 1, "create_tasks": 1}
        for name, attempts in stats["calls_by_name"].items():
            assert attempts == stats["failures_by_name"].get(name, 0) + retried[name]

    def test_counting_transport_statistics_share_the_same_shape(self, server):
        from repro.platform.transport import CountingTransport

        transport = CountingTransport()
        client = PlatformClient(server, transport=transport)
        client.create_project("p")
        client.find_project("p")
        stats = transport.statistics()
        assert stats["calls"] == 2
        assert stats["calls_by_name"] == {"create_project": 1, "find_project": 1}

    def test_counters_tally_attempts_not_successes(self, server):
        """The documented unit of every per-name counter is the *attempt*:
        with the transport hard-down and max_retries=3, one logical
        create_project is three attempts, three failures, zero successes."""
        transport = FaultInjectingTransport(failure_rate=1.0, seed=9)
        client = PlatformClient(server, transport=transport, max_retries=3)
        with pytest.raises(PlatformUnavailableError):
            client.create_project("p")
        stats = transport.statistics()
        assert stats["calls_by_name"] == {"create_project": 3}
        assert stats["failures_by_name"] == {"create_project": 3}
        # Successful operations = attempts - failures.
        assert (
            stats["calls_by_name"]["create_project"]
            - stats["failures_by_name"]["create_project"]
            == 0
        )
        assert len(server.list_projects()) == 0

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            FaultInjectingTransport(failure_rate=1.5)

    def test_direct_transport_passthrough(self):
        assert DirectTransport().call("add", lambda a, b: a + b, 1, 2) == 3


class TestAssignmentStrategies:
    def test_random_assignment_distinct(self):
        pool = WorkerPool.uniform(size=10, accuracy=0.9, seed=5)
        workers = RandomAssignment().assign(pool, 4)
        assert len({worker.worker_id for worker in workers}) == 4

    def test_random_assignment_too_many(self):
        pool = WorkerPool.uniform(size=3, accuracy=0.9, seed=5)
        with pytest.raises(NoEligibleWorkerError):
            RandomAssignment().assign(pool, 4)

    def test_round_robin_cycles_through_pool(self):
        pool = WorkerPool.uniform(size=4, accuracy=0.9, seed=5)
        strategy = RoundRobinAssignment()
        first = [worker.worker_id for worker in strategy.assign(pool, 2)]
        second = [worker.worker_id for worker in strategy.assign(pool, 2)]
        assert first + second == pool.worker_ids()

    def test_least_loaded_prefers_idle_workers(self):
        pool = WorkerPool.uniform(size=4, accuracy=0.9, seed=5)
        busy = pool.workers[0]
        busy.answered_tasks = 10
        chosen = LeastLoadedAssignment().assign(pool, 3)
        assert busy.worker_id not in {worker.worker_id for worker in chosen}

    def test_invalid_n_assignments(self):
        pool = WorkerPool.uniform(size=4, accuracy=0.9, seed=5)
        with pytest.raises(ValueError):
            RandomAssignment().assign(pool, 0)
