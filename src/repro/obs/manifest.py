"""Run manifests: what ran, with what configuration, for how long.

Every recorded experiment writes a ``manifest.json`` next to its
``events.jsonl``. The manifest is the provenance half of
reproducibility: the seed and config hash pin *what* the run was, the
version/platform fields say *where* it ran, and the wall time makes
perf regressions visible across recorded runs.
"""

from __future__ import annotations

import datetime as _datetime
import hashlib
import json
import os
import platform as _platform
import sys
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

MANIFEST_FILENAME = "manifest.json"
EVENTS_FILENAME = "events.jsonl"


def config_hash(config: Dict[str, Any]) -> str:
    """SHA-256 of the canonical-JSON form of a config mapping.

    Canonical means sorted keys and no whitespace variance, so two runs
    with the same effective configuration hash identically regardless
    of argument order.
    """
    canonical = json.dumps(
        config, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Provenance record of one experiment run."""

    command: str
    seed: int
    config: Dict[str, Any]
    config_sha256: str
    version: str
    python: str
    platform: str
    started_at: str
    wall_time_s: float
    workers: Optional[int] = None
    #: Passes run per trial-set label. Not part of ``config_sha256``;
    #: empty in manifests written before it existed.
    trial_sets: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def create(
        cls,
        command: str,
        seed: int,
        config: Dict[str, Any],
        wall_time_s: float,
        workers: Optional[int] = None,
        started_at: Optional[str] = None,
        trial_sets: Optional[Dict[str, int]] = None,
    ) -> "RunManifest":
        """Build a manifest, stamping version/platform and the hash.

        ``started_at`` is injectable so a recorded run is a pure
        function of its inputs: the CLI threads a stamp down from
        ``--started-at`` (or reads the clock once, at that edge). The
        fallback below exists only for direct library callers that do
        not care about byte-reproducible manifests.
        """
        from .. import __version__

        if started_at is None:
            started_at = _datetime.datetime.now(  # repro: allow[det-wallclock] library fallback; the CLI injects the stamp
                _datetime.timezone.utc
            ).isoformat()
        return cls(
            command=command,
            seed=seed,
            config=dict(config),
            config_sha256=config_hash(config),
            version=__version__,
            python=sys.version.split()[0],
            platform=_platform.platform(),
            started_at=started_at,
            wall_time_s=wall_time_s,
            workers=workers,
            trial_sets=dict(trial_sets or {}),
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "RunManifest":
        return cls(**doc)


def manifest_path(directory: str) -> str:
    return os.path.join(directory, MANIFEST_FILENAME)


def events_path(directory: str) -> str:
    return os.path.join(directory, EVENTS_FILENAME)


def write_manifest(directory: str, manifest: RunManifest) -> str:
    """Write ``manifest.json`` into ``directory`` (created if needed)."""
    os.makedirs(directory, exist_ok=True)
    path = manifest_path(directory)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest.to_dict(), handle, indent=2)
        handle.write("\n")
    return path


def read_manifest(path: str) -> RunManifest:
    """Read a manifest from a file path or a recording directory."""
    if os.path.isdir(path):
        path = manifest_path(path)
    with open(path, "r", encoding="utf-8") as handle:
        return RunManifest.from_dict(json.load(handle))
