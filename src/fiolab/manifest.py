"""Run manifests: every experiment writes one before computing and
finalises it afterwards, so interrupted runs leave a visible marker, failed
runs record their error and a finished manifest can reproduce its outputs
byte for byte."""
from __future__ import annotations

import hashlib
import json
import platform
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__ as _version


def file_sha256(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    experiment: str
    config_text: str
    config_digest: str
    seed: int
    jobs: int
    status: str = "running"
    started_at: str = ""
    finished_at: str = ""
    tool_version: str = _version
    platform: str = field(default_factory=platform.platform)
    outputs: list[dict] = field(default_factory=list)
    error: str = ""
    # FFT rounding, and so the CSV bytes, depend on the numpy build
    numpy_version: str = ""
    # a rerun lists the outputs whose sha256 differs from the manifest it reran
    hash_mismatch: list[str] = field(default_factory=list)

    @classmethod
    def start(cls, command: str, experiment: str, config_text: str,
              config_digest: str, seed: int, jobs: int) -> "RunManifest":
        return cls(
            command=command, experiment=experiment, config_text=config_text,
            config_digest=config_digest, seed=seed, jobs=jobs,
            started_at=datetime.now(timezone.utc).isoformat(),
            numpy_version=np.__version__,
        )

    def write(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")
        return path

    def finalize(self, path, output_files) -> Path:
        self.outputs = [
            {"path": Path(p).name, "sha256": file_sha256(p)} for p in output_files
        ]
        self.finished_at = datetime.now(timezone.utc).isoformat()
        self.status = "done"
        return self.write(path)

    def fail(self, path, exc: Exception) -> Path:
        self.error = f"{type(exc).__name__}: {exc}"
        self.finished_at = datetime.now(timezone.utc).isoformat()
        self.status = "failed"
        return self.write(path)


def load_manifest(path) -> RunManifest:
    """The manifest at path.  Manifests written before registry_entries was
    dropped carry it, always as []; it is ignored, and any other key that
    is not a field raises TypeError."""
    data = json.loads(Path(path).read_text())
    data.pop("registry_entries", None)
    return RunManifest(**data)
