"""Unit tests for adaptive redundancy, budget tracking and their CrowdData wiring."""

from __future__ import annotations

import pytest

from repro import AdaptivePolicy, BudgetExceededError, BudgetTracker, CrowdContext
from repro.datasets import make_image_label_dataset
from repro.presenters import ImageLabelPresenter
from repro.quality.adaptive import AdaptiveCollectionStats


class TestAdaptivePolicy:
    def test_defaults_are_valid(self):
        policy = AdaptivePolicy()
        assert policy.initial_assignments <= policy.max_assignments
        assert policy.min_assignments <= policy.max_assignments

    def test_invalid_combinations_rejected(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(initial_assignments=5, max_assignments=3)
        with pytest.raises(ValueError):
            AdaptivePolicy(min_assignments=9, max_assignments=3)
        with pytest.raises(ValueError):
            AdaptivePolicy(confidence_threshold=1.5)
        with pytest.raises(ValueError):
            AdaptivePolicy(extra_per_round=0)

    def test_single_answer_is_never_resolved_below_min(self):
        policy = AdaptivePolicy(min_assignments=2, confidence_threshold=0.7)
        assert not policy.is_resolved(["Yes"])

    def test_unanimous_pair_is_resolved(self):
        policy = AdaptivePolicy(min_assignments=2, confidence_threshold=0.7)
        assert policy.is_resolved(["Yes", "Yes"])

    def test_split_pair_is_not_resolved(self):
        policy = AdaptivePolicy(min_assignments=2, confidence_threshold=0.7)
        assert not policy.is_resolved(["Yes", "No"])

    def test_cap_forces_resolution(self):
        policy = AdaptivePolicy(max_assignments=3, confidence_threshold=0.99)
        assert policy.is_resolved(["Yes", "No", "Yes"])

    def test_next_batch_respects_cap(self):
        policy = AdaptivePolicy(max_assignments=4, extra_per_round=3, confidence_threshold=0.99)
        assert policy.next_batch(["Yes", "No"]) == 2  # only 2 left before the cap
        assert policy.next_batch(["Yes", "No", "Yes", "No"]) == 0

    def test_wilson_mode_is_more_conservative(self):
        plain = AdaptivePolicy(confidence_threshold=0.7, use_wilson=False)
        wilson = AdaptivePolicy(confidence_threshold=0.7, use_wilson=True)
        answers = ["Yes", "Yes", "No"]
        assert plain.confidence(answers) > wilson.confidence(answers)

    def test_empty_answers_confidence_zero(self):
        assert AdaptivePolicy().confidence([]) == 0.0

    def test_stats_to_dict(self):
        stats = AdaptiveCollectionStats(rounds=2, answers_collected=10, items_resolved_early=3)
        assert stats.to_dict()["rounds"] == 2


class TestBudgetTracker:
    def test_charging_accumulates(self):
        tracker = BudgetTracker(price_per_assignment=0.05)
        tracker.charge(3, label="a")
        tracker.charge(2, label="b")
        assert tracker.spent == pytest.approx(0.25)
        assert tracker.total_assignments() == 5
        assert len(tracker.charges) == 2

    def test_budget_enforced(self):
        tracker = BudgetTracker(price_per_assignment=0.10, budget=0.50)
        tracker.charge(4)
        with pytest.raises(BudgetExceededError):
            tracker.charge(2)
        # The failed charge did not change the spend.
        assert tracker.spent == pytest.approx(0.40)
        assert tracker.remaining == pytest.approx(0.10)

    def test_can_afford(self):
        tracker = BudgetTracker(price_per_assignment=0.10, budget=0.30)
        assert tracker.can_afford(3)
        assert not tracker.can_afford(4)

    def test_unlimited_budget(self):
        tracker = BudgetTracker()
        assert tracker.can_afford(10**6)
        assert tracker.remaining is None

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BudgetTracker(price_per_assignment=0.0)
        with pytest.raises(ValueError):
            BudgetTracker(budget=-1.0)
        with pytest.raises(ValueError):
            BudgetTracker().charge(-1)

    def test_summary(self):
        tracker = BudgetTracker(price_per_assignment=0.02, budget=1.0)
        tracker.charge(10)
        summary = tracker.summary()
        assert summary["spent"] == pytest.approx(0.2)
        assert summary["assignments"] == 10


class TestAdaptiveCollection:
    @pytest.fixture
    def dataset(self):
        return make_image_label_dataset(num_images=30, seed=3)

    def test_adaptive_uses_fewer_answers_than_fixed(self, dataset):
        fixed_cc = CrowdContext.in_memory(seed=3, ground_truth=dataset.ground_truth)
        fixed = (
            fixed_cc.CrowdData(dataset.images, "fixed")
            .set_presenter(ImageLabelPresenter())
            .publish_task(n_assignments=5)
            .get_result()
        )
        fixed_answers = sum(len(r["assignments"]) for r in fixed.column("result"))

        adaptive_cc = CrowdContext.in_memory(seed=3, ground_truth=dataset.ground_truth)
        policy = AdaptivePolicy(initial_assignments=2, max_assignments=5, confidence_threshold=0.7)
        adaptive = (
            adaptive_cc.CrowdData(dataset.images, "adaptive")
            .set_presenter(ImageLabelPresenter())
            .publish_task(n_assignments=policy.initial_assignments)
            .get_result_adaptive(policy)
        )
        adaptive_answers = sum(len(r["assignments"]) for r in adaptive.column("result"))
        assert adaptive_answers < fixed_answers
        assert adaptive.last_adaptive_stats is not None
        assert adaptive.last_adaptive_stats.answers_collected == adaptive_answers

    def test_adaptive_respects_max_assignments(self, dataset):
        cc = CrowdContext.in_memory(seed=3, ground_truth=dataset.ground_truth)
        policy = AdaptivePolicy(
            initial_assignments=2, max_assignments=4, confidence_threshold=0.999
        )
        data = (
            cc.CrowdData(dataset.images, "capped")
            .set_presenter(ImageLabelPresenter())
            .publish_task(n_assignments=2)
            .get_result_adaptive(policy)
        )
        for result in data.column("result"):
            assert len(result["assignments"]) <= 4

    def test_adaptive_results_are_cached_for_rerun(self, dataset, tmp_path):
        db = str(tmp_path / "adaptive.db")
        policy = AdaptivePolicy(initial_assignments=2, max_assignments=5)

        def run():
            cc = CrowdContext.with_sqlite(db, seed=3, ground_truth=dataset.ground_truth)
            data = (
                cc.CrowdData(dataset.images, "adaptive")
                .set_presenter(ImageLabelPresenter())
                .publish_task(n_assignments=policy.initial_assignments)
                .get_result_adaptive(policy)
                .mv()
            )
            labels = data.column("mv")
            stats = cc.client.statistics()
            cc.close()
            return labels, stats

        first_labels, first_stats = run()
        second_labels, second_stats = run()
        assert first_labels == second_labels
        assert first_stats["tasks"] == len(dataset)
        assert second_stats["tasks"] == 0

    def test_adaptive_is_logged(self, dataset):
        cc = CrowdContext.in_memory(seed=3, ground_truth=dataset.ground_truth)
        data = (
            cc.CrowdData(dataset.images, "logged")
            .set_presenter(ImageLabelPresenter())
            .publish_task(n_assignments=2)
            .get_result_adaptive(AdaptivePolicy(initial_assignments=2))
        )
        last = data.manipulation_history()[-1]
        assert last.operation == "get_result_adaptive"
        assert "rounds" in last.parameters

    def test_adaptive_before_publish_rejected(self, dataset):
        cc = CrowdContext.in_memory(seed=3)
        data = cc.CrowdData(dataset.images, "bad").set_presenter(ImageLabelPresenter())
        from repro.exceptions import CrowdDataError

        with pytest.raises(CrowdDataError):
            data.get_result_adaptive()


class TestBudgetWiring:
    def test_publish_charges_budget(self):
        dataset = make_image_label_dataset(num_images=10, seed=5)
        budget = BudgetTracker(price_per_assignment=0.02)
        cc = CrowdContext.in_memory(seed=5, ground_truth=dataset.ground_truth, budget=budget)
        (
            cc.CrowdData(dataset.images, "charged")
            .set_presenter(ImageLabelPresenter())
            .publish_task(n_assignments=3)
        )
        assert budget.total_assignments() == 30
        assert budget.spent == pytest.approx(0.60)

    def test_budget_exceeded_fails_fast(self):
        dataset = make_image_label_dataset(num_images=10, seed=5)
        budget = BudgetTracker(price_per_assignment=0.10, budget=1.0)  # only 10 assignments
        cc = CrowdContext.in_memory(seed=5, ground_truth=dataset.ground_truth, budget=budget)
        data = cc.CrowdData(dataset.images, "over").set_presenter(ImageLabelPresenter())
        with pytest.raises(BudgetExceededError):
            data.publish_task(n_assignments=3)

    def test_rerun_from_cache_costs_nothing(self, tmp_path):
        dataset = make_image_label_dataset(num_images=8, seed=5)
        db = str(tmp_path / "budget.db")

        def run(budget):
            cc = CrowdContext.with_sqlite(db, seed=5, ground_truth=dataset.ground_truth, budget=budget)
            (
                cc.CrowdData(dataset.images, "reuse")
                .set_presenter(ImageLabelPresenter())
                .publish_task(n_assignments=3)
                .get_result()
            )
            cc.close()

        first_budget = BudgetTracker(price_per_assignment=0.02)
        run(first_budget)
        second_budget = BudgetTracker(price_per_assignment=0.02)
        run(second_budget)
        assert first_budget.spent > 0
        assert second_budget.spent == 0.0

    def test_extend_task_redundancy_on_platform(self):
        cc = CrowdContext.in_memory(seed=5, ground_truth=lambda obj: "Yes")
        data = (
            cc.CrowdData(["a", "b"], "extend_redundancy")
            .set_presenter(ImageLabelPresenter())
            .publish_task(n_assignments=2)
            .get_result()
        )
        task_id = data.column("task")[0]["task_id"]
        (task,) = cc.client.extend_tasks_redundancy({task_id: 2})
        assert task.n_assignments == 4
        assert cc.client.statistics()["pending_assignments"] == 2
        cc.client.simulate_work()
        runs = dict(cc.client.get_task_runs_page(task.project_id, 10))
        assert len(runs[task_id]) == 4
