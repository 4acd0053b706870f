"""The run manifest: per-stage provenance records for a pipeline run.

``manifest.json`` at the root of a run directory records, for every
completed stage, the fingerprint it executed under, digests of every
output artifact, its duration (monotonic clock) and wall-clock start and
finish times, and free-form metadata.  A re-run loads the manifest,
recomputes each stage's fingerprint, and skips the stage iff the
fingerprints match *and* every recorded output still verifies on disk.

Robustness rule: a missing, truncated, or otherwise corrupt manifest is
never an error — it loads as an *empty* manifest, which simply means no
stage can prove it already ran, so everything re-runs.  The store's
atomic writes make a corrupt manifest unlikely, but a run directory is
user-visible state and must never be able to crash the pipeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.artifacts.store import ArtifactRecord
from repro.errors import SerializationError
from repro.utils.atomic import atomic_write_text

#: Bump when the manifest layout changes: old manifests then load as
#: empty (full re-run) instead of being misread.
MANIFEST_SCHEMA = "gansec-run-manifest/v1"

MANIFEST_NAME = "manifest.json"


@dataclass
class StageRecord:
    """Provenance of one completed stage execution."""

    name: str
    fingerprint: str
    status: str = "completed"
    seconds: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    outputs: dict[str, ArtifactRecord] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    #: Event-subscriber exceptions the bus captured while the stage ran.
    handler_errors: int = 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "seconds": self.seconds,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "outputs": {key: rec.to_dict() for key, rec in self.outputs.items()},
            "meta": self.meta,
            "handler_errors": self.handler_errors,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StageRecord":
        try:
            return cls(
                name=str(data["name"]),
                fingerprint=str(data["fingerprint"]),
                status=str(data.get("status", "completed")),
                seconds=float(data.get("seconds", 0.0)),
                started_at=float(data.get("started_at", 0.0)),
                finished_at=float(data.get("finished_at", 0.0)),
                outputs={
                    str(key): ArtifactRecord.from_dict(rec)
                    for key, rec in dict(data.get("outputs", {})).items()
                },
                meta=dict(data.get("meta", {})),
                handler_errors=int(data.get("handler_errors", 0)),
            )
        except (KeyError, TypeError, ValueError, SerializationError) as exc:
            raise SerializationError(
                f"malformed stage record: {data!r}"
            ) from exc


class RunManifest:
    """In-memory view of a run directory's ``manifest.json``."""

    def __init__(self, path):
        self.path = Path(path)
        self._stages: dict[str, StageRecord] = {}
        self.recovered = False  #: True if the on-disk manifest was corrupt

    # -- persistence ----------------------------------------------------------
    @classmethod
    def load(cls, run_dir) -> "RunManifest":
        """Load the manifest under *run_dir*; corruption yields empty.

        Any defect — unreadable file, truncated JSON, wrong schema tag,
        malformed stage records — degrades to an empty manifest with
        ``recovered`` set, so the caller re-runs stages instead of
        crashing or trusting bad provenance.
        """
        manifest = cls(Path(run_dir) / MANIFEST_NAME)
        if not manifest.path.is_file():
            return manifest
        try:
            data = json.loads(manifest.path.read_text(encoding="utf-8"))
            if data.get("schema") != MANIFEST_SCHEMA:
                raise SerializationError(
                    f"unknown manifest schema: {data.get('schema')!r}"
                )
            for entry in data.get("stages", []):
                record = StageRecord.from_dict(entry)
                manifest._stages[record.name] = record
        except (OSError, ValueError, AttributeError, SerializationError):
            manifest._stages = {}
            manifest.recovered = True
        return manifest

    def save(self) -> None:
        """Atomically rewrite ``manifest.json``."""
        payload = {
            "schema": MANIFEST_SCHEMA,
            "stages": [self._stages[name].to_dict() for name in self._stages],
        }
        atomic_write_text(self.path, json.dumps(payload, indent=2) + "\n")

    # -- records --------------------------------------------------------------
    def get(self, name: str) -> StageRecord | None:
        return self._stages.get(name)

    def set(self, record: StageRecord) -> None:
        self._stages[record.name] = record

    def remove(self, name: str) -> bool:
        """Drop the record for *name*; True if one existed."""
        return self._stages.pop(name, None) is not None

    def names(self) -> list[str]:
        return list(self._stages)

    def clear(self) -> None:
        self._stages = {}

    def __len__(self) -> int:
        return len(self._stages)

    def __contains__(self, name: str) -> bool:
        return name in self._stages

    def __repr__(self):
        return f"RunManifest({str(self.path)!r}, stages={len(self._stages)})"
