"""Unit tests for repro.config."""

from __future__ import annotations

import os

import pytest

from repro.config import (
    DEFAULT_REDUNDANCY,
    PlatformConfig,
    ReprowdConfig,
    StorageConfig,
    WorkerPoolConfig,
)
from repro.exceptions import ConfigurationError
from repro.workload.scenario import ScenarioSpec


class TestStorageConfig:
    def test_defaults(self):
        config = StorageConfig()
        assert config.engine == "sqlite"
        assert config.synchronous is True

    def test_with_path_returns_copy(self):
        config = StorageConfig()
        updated = config.with_path("other.db")
        assert updated.path == "other.db"
        assert config.path != "other.db"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            StorageConfig().path = "x"  # type: ignore[misc]


class TestReprowdConfig:
    def test_in_memory_factory(self):
        config = ReprowdConfig.in_memory(seed=99)
        assert config.storage.engine == "memory"
        assert config.platform.seed == 99
        assert config.workers.seed == 99

    def test_sqlite_factory(self):
        config = ReprowdConfig.sqlite("/tmp/x.db", seed=3)
        assert config.storage.engine == "sqlite"
        assert config.storage.path == "/tmp/x.db"

    def test_from_mapping_roundtrip(self):
        config = ReprowdConfig.from_mapping(
            {
                "storage": {"engine": "memory", "path": ":memory:"},
                "platform": {"default_redundancy": 5},
                "workers": {"size": 10, "mean_accuracy": 0.9},
                "seed": 42,
            }
        )
        assert config.storage.engine == "memory"
        assert config.platform.default_redundancy == 5
        assert config.workers.size == 10
        assert config.seed == 42

    def test_from_mapping_defaults(self):
        config = ReprowdConfig.from_mapping({})
        assert config.platform.default_redundancy == DEFAULT_REDUNDANCY

    @pytest.mark.parametrize(
        "build, mapping, section, keys",
        [
            (ReprowdConfig.from_mapping, {"platform": {"group_commit": True}},
             "platform", ["group_commit"]),
            (ReprowdConfig.from_mapping, {"platform": {"append_batch_size": 8}},
             "platform", ["append_batch_size"]),
            (ReprowdConfig.from_mapping, {"platform": {"grup_commit": True, "seed": 1}},
             "platform", ["grup_commit"]),
            (ReprowdConfig.from_mapping, {"storage": {"engin": "memory", "shard": 2}},
             "storage", ["engin", "shard"]),
            (ReprowdConfig.from_mapping,
             {"platform": {"store_engine": {"path": "x.db", "wal": True}}},
             "platform.store_engine", ["wal"]),
            (ReprowdConfig.from_mapping, {"workers": {"sizes": 3}}, "workers", ["sizes"]),
            (ReprowdConfig.from_mapping, {"platfrom": {}}, "top-level", ["platfrom"]),
            (ScenarioSpec.from_mapping, {"group_commit": True},
             "scenario", ["group_commit"]),
            (ScenarioSpec.from_mapping,
             {**ScenarioSpec().to_mapping(), "append_batch_size": 4},
             "scenario", ["append_batch_size"]),
        ],
    )
    def test_from_mapping_rejects_unknown_keys(self, build, mapping, section, keys):
        with pytest.raises(ConfigurationError) as raised:
            build(mapping)
        message = str(raised.value)
        assert f"unknown {section} config key" in message
        for key in keys:
            assert repr(key) in message

    def test_resolve_db_path_memory(self):
        assert ReprowdConfig.in_memory().resolve_db_path() == ":memory:"

    def test_resolve_db_path_relative(self, tmp_path):
        config = ReprowdConfig.sqlite("rel.db")
        resolved = config.resolve_db_path(base_dir=str(tmp_path))
        assert resolved == os.path.join(str(tmp_path), "rel.db")

    def test_resolve_db_path_absolute(self):
        config = ReprowdConfig.sqlite("/abs/path.db")
        assert config.resolve_db_path(base_dir="/elsewhere") == "/abs/path.db"


class TestPlatformAndWorkerConfig:
    def test_platform_defaults(self):
        config = PlatformConfig()
        assert config.default_redundancy == DEFAULT_REDUNDANCY
        assert config.failure_rate == 0.0

    def test_worker_pool_defaults(self):
        config = WorkerPoolConfig()
        assert config.size == 25
        assert 0.0 <= config.mean_accuracy <= 1.0
