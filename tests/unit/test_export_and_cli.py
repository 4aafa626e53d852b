"""Unit tests for the experiment exporter and the command-line interface."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import CrowdContext, ExperimentExporter
from repro.cli import main as cli_main
from repro.core.export import (
    stored_experiment_summary,
    stored_lineage,
    stored_manipulations,
    stored_tables,
)
from repro.datasets import make_image_label_dataset
from repro.exceptions import CrowdDataError
from repro.presenters import ImageLabelPresenter


@pytest.fixture
def dataset():
    return make_image_label_dataset(num_images=8, seed=5)


@pytest.fixture
def experiment_db(tmp_path, dataset):
    """A completed experiment in a SQLite file; returns (db_path, labels)."""
    db_path = str(tmp_path / "exp.db")
    cc = CrowdContext.with_sqlite(db_path, seed=5, ground_truth=dataset.ground_truth)
    data = (
        cc.CrowdData(dataset.images, "cli_table")
        .set_presenter(ImageLabelPresenter())
        .publish_task(n_assignments=3)
        .get_result()
        .mv()
    )
    labels = data.column("mv")
    cc.close()
    return db_path, labels


@pytest.fixture
def live_crowddata(dataset):
    cc = CrowdContext.in_memory(seed=5, ground_truth=dataset.ground_truth)
    data = (
        cc.CrowdData(dataset.images, "export_table")
        .set_presenter(ImageLabelPresenter())
        .publish_task(n_assignments=3)
        .get_result()
        .mv()
    )
    yield data
    cc.close()


class TestExperimentExporter:
    def test_to_dict_contains_all_sections(self, live_crowddata):
        payload = ExperimentExporter(live_crowddata).to_dict()
        assert payload["table"] == "export_table"
        assert len(payload["rows"]) == 8
        assert len(payload["lineage"]) == 24
        assert [m["operation"] for m in payload["manipulations"]][0] == "init"

    def test_to_json_roundtrips(self, live_crowddata, tmp_path):
        path = ExperimentExporter(live_crowddata).to_json(str(tmp_path / "exp.json"))
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["cache"]["cached_results"] == 8

    def test_answers_to_csv(self, live_crowddata, tmp_path):
        path = ExperimentExporter(live_crowddata).answers_to_csv(str(tmp_path / "answers.csv"))
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 24
        assert {"worker_id", "answer", "task_id"} <= set(rows[0])

    def test_decisions_to_csv(self, live_crowddata, tmp_path):
        path = ExperimentExporter(live_crowddata).decisions_to_csv(str(tmp_path / "mv.csv"))
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["id", "object", "mv"]
        assert len(rows) == 9

    def test_decisions_require_the_column(self, live_crowddata, tmp_path):
        with pytest.raises(CrowdDataError):
            ExperimentExporter(live_crowddata).decisions_to_csv(
                str(tmp_path / "nope.csv"), decision_column="em"
            )

    def test_answers_csv_requires_results(self, tmp_path):
        cc = CrowdContext.in_memory(seed=1)
        data = cc.CrowdData(["a"], "empty")
        with pytest.raises(CrowdDataError):
            ExperimentExporter(data).answers_to_csv(str(tmp_path / "x.csv"))
        cc.close()


class TestEngineLevelReaders:
    def test_stored_tables_and_summary(self, experiment_db):
        db_path, _ = experiment_db
        from repro.storage import SqliteEngine

        with SqliteEngine(db_path) as engine:
            assert stored_tables(engine) == ["cli_table"]
            summary = stored_experiment_summary(engine, "cli_table")
            assert summary["cached_tasks"] == 8
            assert summary["answers"] == 24
            assert "publish_task" in summary["manipulations"]
            assert len(stored_lineage(engine, "cli_table")) == 24
            assert stored_manipulations(engine, "cli_table")[0].operation == "init"

    def test_readers_tolerate_missing_tables(self, tmp_path):
        from repro.storage import SqliteEngine

        with SqliteEngine(str(tmp_path / "fresh.db")) as engine:
            assert stored_tables(engine) == []
            assert stored_lineage(engine, "nope") == []
            assert stored_manipulations(engine, "nope") == []


class TestCli:
    def test_tables_command(self, experiment_db, capsys):
        db_path, _ = experiment_db
        assert cli_main(["tables", db_path]) == 0
        assert "cli_table" in capsys.readouterr().out

    def test_describe_command(self, experiment_db, capsys):
        db_path, _ = experiment_db
        assert cli_main(["describe", db_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["table"] == "cli_table"
        assert payload[0]["answers"] == 24

    def test_history_command(self, experiment_db, capsys):
        db_path, _ = experiment_db
        assert cli_main(["history", db_path, "cli_table"]) == 0
        output = capsys.readouterr().out
        assert "publish_task" in output and "quality_control" in output

    def test_history_unknown_table_fails(self, experiment_db, capsys):
        db_path, _ = experiment_db
        assert cli_main(["history", db_path, "nope"]) == 1

    def test_lineage_command(self, experiment_db, capsys):
        db_path, _ = experiment_db
        assert cli_main(["lineage", db_path, "cli_table"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["answers"] == 24
        assert payload["distinct_workers"] >= 3

    def test_export_command(self, experiment_db, tmp_path, capsys):
        db_path, _ = experiment_db
        out = str(tmp_path / "export.json")
        assert cli_main(["export", db_path, "cli_table", out]) == 0
        with open(out, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["summary"]["cached_results"] == 8
        assert len(payload["lineage"]) == 24

    def test_missing_database_is_refused_not_created(self, tmp_path, capsys):
        missing = tmp_path / "missing.db"
        for command in (["tables"], ["describe"], ["lineage"]):
            argv = command + [str(missing)] + (["t"] if command == ["lineage"] else [])
            assert cli_main(argv) == 2
            assert "no such database file" in capsys.readouterr().err
        assert not missing.exists()

    def test_closed_stdout_exits_quietly(self, experiment_db):
        db_path, _ = experiment_db
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "lineage", db_path, "cli_table"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        # Close the read end before the CLI writes a byte: every write it
        # makes hits a closed pipe, like ``| head -0``.
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert b"Traceback" not in stderr
        assert b"BrokenPipeError" not in stderr
        assert proc.returncode == 1

    def test_cli_is_read_only(self, experiment_db):
        db_path, labels = experiment_db
        cli_main(["describe", db_path])
        cli_main(["lineage", db_path, "cli_table"])
        # Rerunning the experiment still reproduces the same labels.
        dataset = make_image_label_dataset(num_images=8, seed=5)
        cc = CrowdContext.with_sqlite(db_path, seed=5, ground_truth=dataset.ground_truth)
        data = (
            cc.CrowdData(dataset.images, "cli_table")
            .set_presenter(ImageLabelPresenter())
            .publish_task(n_assignments=3)
            .get_result()
            .mv()
        )
        assert data.column("mv") == labels
        cc.close()
