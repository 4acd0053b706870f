"""Tests for repro.artifacts.manifest (per-stage provenance records)."""

import json

import pytest

from repro.artifacts.manifest import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA,
    RunManifest,
    StageRecord,
)
from repro.artifacts.store import ArtifactRecord
from repro.errors import SerializationError


def _record(name="record", fingerprint="f" * 64):
    return StageRecord(
        name=name,
        fingerprint=fingerprint,
        seconds=1.5,
        started_at=10.0,
        finished_at=11.5,
        outputs={
            "dataset": ArtifactRecord(
                path="dataset.npz", digest="sha256:aa", size=3, kind="file"
            )
        },
        meta={"n_samples": 42},
    )


class TestRoundTrip:
    def test_save_load_preserves_records(self, tmp_path):
        manifest = RunManifest(tmp_path / MANIFEST_NAME)
        manifest.set(_record())
        manifest.save()

        loaded = RunManifest.load(tmp_path)
        assert not loaded.recovered
        assert loaded.names() == ["record"]
        got = loaded.get("record")
        assert got.fingerprint == "f" * 64
        assert got.meta == {"n_samples": 42}
        assert got.outputs["dataset"].digest == "sha256:aa"

    def test_missing_manifest_loads_empty(self, tmp_path):
        loaded = RunManifest.load(tmp_path)
        assert len(loaded) == 0
        assert not loaded.recovered

    def test_remove_and_contains(self, tmp_path):
        manifest = RunManifest(tmp_path / MANIFEST_NAME)
        manifest.set(_record())
        assert "record" in manifest
        assert manifest.remove("record")
        assert not manifest.remove("record")
        assert "record" not in manifest


class TestCorruption:
    """A defective manifest always degrades to 'nothing proved ran'."""

    def test_truncated_json_recovers_empty(self, tmp_path):
        manifest = RunManifest(tmp_path / MANIFEST_NAME)
        manifest.set(_record())
        manifest.save()
        text = (tmp_path / MANIFEST_NAME).read_text()
        (tmp_path / MANIFEST_NAME).write_text(text[: len(text) // 2])

        loaded = RunManifest.load(tmp_path)
        assert len(loaded) == 0
        assert loaded.recovered

    def test_wrong_schema_recovers_empty(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(
            json.dumps({"schema": "someone-elses/v9", "stages": []})
        )
        loaded = RunManifest.load(tmp_path)
        assert len(loaded) == 0
        assert loaded.recovered

    def test_malformed_stage_record_recovers_empty(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(
            json.dumps({"schema": MANIFEST_SCHEMA, "stages": [{"name": "x"}]})
        )
        loaded = RunManifest.load(tmp_path)
        assert len(loaded) == 0
        assert loaded.recovered

    def test_non_object_json_recovers_empty(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("[1, 2, 3]")
        loaded = RunManifest.load(tmp_path)
        assert len(loaded) == 0
        assert loaded.recovered


class TestStageRecordSerialization:
    def test_roundtrip(self):
        record = _record()
        again = StageRecord.from_dict(record.to_dict())
        assert again == record

    def test_malformed_raises(self):
        with pytest.raises(SerializationError):
            StageRecord.from_dict({"fingerprint": "x"})

    def test_handler_errors_roundtrip(self):
        record = _record()
        record.handler_errors = 3
        assert StageRecord.from_dict(record.to_dict()).handler_errors == 3

    def test_record_without_handler_errors_loads_zero(self):
        # Manifests written before the field existed keep loading.
        data = _record().to_dict()
        del data["handler_errors"]
        assert StageRecord.from_dict(data) == _record()
