#!/usr/bin/env python
"""Architecture tour — Figure 1 of the paper, component by component.

Walks through every box in the Reprowd architecture diagram with the smallest
possible working example of each: the storage engine, the simulated
crowdsourcing platform and worker pool, the presenters, the quality-control
component, CrowdData, and a crowdsourced operator built on top.

Run:
    python examples/architecture_tour.py
"""

from __future__ import annotations

import os
import tempfile

from repro import CrowdContext
from repro.config import PlatformConfig, WorkerPoolConfig
from repro.datasets import make_entity_resolution_dataset
from repro.operators import TransitiveCrowdJoin
from repro.platform import PlatformClient, PlatformServer
from repro.presenters import ImageLabelPresenter, RecordComparisonPresenter
from repro.quality import dawid_skene, majority_vote
from repro.storage import SqliteEngine
from repro.workers import WorkerPool


def section(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="reprowd_tour_")

    # -------------------------------------------------------------- Database
    section("1. Database (storage engine): durable task/result columns")
    engine = SqliteEngine(os.path.join(workdir, "tour.db"))
    engine.create_table("demo")
    engine.put("demo", "greeting", {"text": "hello, crowd"})
    print("stored and read back:", engine.get("demo", "greeting"))
    print("tables in the shared file:", engine.list_tables())

    # -------------------------------------------- Crowdsourcing platform ----
    section("2. Crowdsourcing platform + workers (simulated PyBossa)")
    pool = WorkerPool.from_config(WorkerPoolConfig(size=12, mean_accuracy=0.9, seed=3))
    server = PlatformServer(worker_pool=pool, config=PlatformConfig(seed=3))
    client = PlatformClient(server)
    project = client.create_project("tour-project", description="architecture tour")
    (task,) = client.create_tasks(
        project.project_id,
        [
            {
                "info": {
                    "object": "http://img/1.jpg",
                    "candidates": ["Yes", "No"],
                    "_true_answer": "Yes",
                },
                "n_assignments": 3,
            }
        ],
    )
    client.simulate_work(project.project_id)
    ((_, runs),) = client.get_task_runs_page(project.project_id, 1)
    answers = [run.answer for run in runs]
    print(f"project {project.name!r}, task {task.task_id}, answers from the crowd: {answers}")
    print("worker pool composition:", pool.statistics()["behaviors"])

    # ------------------------------------------------------------ Presenters
    section("3. Presenters (the web UI shown to workers)")
    image_presenter = ImageLabelPresenter(question="Is there a face?")
    pair_presenter = RecordComparisonPresenter()
    print("image label task HTML (truncated):")
    print("  " + image_presenter.render("http://img/1.jpg")[:100] + "...")
    print("record comparison task types known to the registry:",
          sorted({image_presenter.task_type, pair_presenter.task_type}))

    # ------------------------------------------------------ Quality control
    section("4. Quality control (answer aggregation)")
    votes = {
        "img1": [("w1", "Yes"), ("w2", "Yes"), ("w3", "No")],
        "img2": [("w1", "No"), ("w2", "No"), ("w3", "No")],
    }
    print("majority vote :", majority_vote(votes))
    print("Dawid-Skene EM:", dawid_skene(votes))

    # ------------------------------------------------------------ CrowdData
    section("5. CrowdData + CrowdContext (the bridge in the middle)")
    cc = CrowdContext.with_sqlite(os.path.join(workdir, "experiment.db"), seed=3)
    cc.set_ground_truth({"http://img/1.jpg": "Yes", "http://img/2.jpg": "No"}.get)
    data = (
        cc.CrowdData(["http://img/1.jpg", "http://img/2.jpg"], "tour_table")
        .set_presenter(image_presenter)
        .publish_task(n_assignments=3)
        .get_result()
        .mv()
    )
    print("columns:", data.columns)
    print("majority-vote labels:", data.column("mv"))
    print("manipulation log:", data.log.operations())

    # --------------------------------------------------- Crowd operators ----
    section("6. Crowdsourced operators built on CrowdData (join example)")
    er = make_entity_resolution_dataset(num_entities=8, duplicates_per_entity=3, seed=3)
    join = TransitiveCrowdJoin(cc, "tour_join")
    result = join.join(er.records, ground_truth=er.pair_ground_truth)
    print(f"candidate pairs asked: {result.report.crowd_tasks}, "
          f"inferred by transitivity: {result.report.inferred}, "
          f"matches found: {len(result.matches)} (truth: {len(er.matching_pairs)})")
    print("because the join used CrowdData, its lineage is queryable:",
          f"{len(result.crowddata.lineage())} answers recorded")

    cc.close()
    engine.close()
    print(f"\n(artifacts written under {workdir})")


if __name__ == "__main__":
    main()
