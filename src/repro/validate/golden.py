"""Golden-trace regression: canonical recorded runs pinned as digests.

Every scene of the catalog (:data:`repro.world.scenarios.catalog.SCENES`)
is pinned as a fully instrumented recorded run — every link waterfall,
slot, RNG derivation, and tag outcome — reduced to a digest document
under ``tests/golden/<name>.json``. The document stores the SHA-256 of
the canonical JSONL event stream plus a human-readable summary (reads,
rounds, miss causes, slot outcomes), so a regression report says *what*
drifted, not just that something did.

Because every record is a pure function of ``(seed, trial)`` and the
JSONL form is canonical (sorted keys, shortest-form float repr), the
digest is bit-stable across runs, platforms, and Python versions; any
change — a single flipped slot outcome included — changes the digest
and fails the check. Intentional physics changes re-pin the documents
with ``python -m repro validate --bless``.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Iterable, List, Optional

from ..obs.jsonl import dump_records
from ..obs.recorder import Recorder
from ..sim.rng import SeedSequence
from ..world.scenarios.catalog import SCENES, Scene, get_scene
from .result import CheckResult, failed, ok

PILLAR = "golden"

#: ``tests/golden/`` at the repository root (this file lives in
#: ``src/repro/validate/``).
GOLDEN_DIR = os.path.join(
    os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    ),
    "tests",
    "golden",
)

#: Golden runs pin their own seed; they must not drift when the CLI is
#: invoked with a different ``--seed`` (that would defeat regression
#: pinning), so this is deliberately NOT the CLI seed.
GOLDEN_SEED = 20070625


def records_digest(lines: Iterable[str]) -> str:
    """SHA-256 over canonical JSONL lines (newline-joined)."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def compute_golden_doc(scene: Scene) -> Dict[str, Any]:
    """Run a catalog scene fully instrumented and reduce it to its
    digest document."""
    task = scene.build()
    task.simulator.recorder = Recorder(detail=True)
    lines: List[str] = []
    tags_read: List[int] = []
    rounds: List[int] = []
    durations: List[float] = []
    slot_outcomes: Dict[str, int] = {}
    miss_causes: Dict[str, int] = {}
    for trial in range(scene.trials):
        result = task(SeedSequence(GOLDEN_SEED), trial)
        observation = result.obs
        lines.extend(dump_records(observation.records()))
        tags_read.append(
            sum(1 for out in observation.tag_outcomes if out.read)
        )
        rounds.append(result.rounds)
        durations.append(result.duration_s)
        for slot in observation.slot_records:
            slot_outcomes[slot.outcome] = slot_outcomes.get(slot.outcome, 0) + 1
        for out in observation.tag_outcomes:
            if not out.read and out.cause is not None:
                miss_causes[out.cause.value] = (
                    miss_causes.get(out.cause.value, 0) + 1
                )
    return {
        "scenario": scene.name,
        "description": scene.description,
        "seed": GOLDEN_SEED,
        "trials": scene.trials,
        "record_count": len(lines),
        "records_sha256": records_digest(lines),
        "summary": {
            "tags_read": tags_read,
            "rounds": rounds,
            "duration_s": durations,
            "slot_outcomes": dict(sorted(slot_outcomes.items())),
            "miss_causes": dict(sorted(miss_causes.items())),
        },
    }


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def diff_golden_docs(
    expected: Dict[str, Any], actual: Dict[str, Any]
) -> List[str]:
    """Human-readable field-level differences (empty = identical)."""
    diffs: List[str] = []
    for key in ("seed", "trials", "record_count", "records_sha256"):
        if expected.get(key) != actual.get(key):
            diffs.append(
                f"{key}: pinned {expected.get(key)!r} != measured "
                f"{actual.get(key)!r}"
            )
    pinned_summary = expected.get("summary", {})
    measured_summary = actual.get("summary", {})
    for key in sorted(set(pinned_summary) | set(measured_summary)):
        if pinned_summary.get(key) != measured_summary.get(key):
            diffs.append(
                f"summary.{key}: pinned {pinned_summary.get(key)!r} != "
                f"measured {measured_summary.get(key)!r}"
            )
    return diffs


def check_golden(
    names: Optional[Iterable[str]] = None, deep: bool = False
) -> List[CheckResult]:
    """Recompute every pinned scenario and compare against its document.

    ``deep`` is accepted for runner uniformity; golden runs are already
    exact, so there is no deeper profile to widen into.
    """
    results: List[CheckResult] = []
    selected = list(names) if names is not None else list(SCENES)
    for name in selected:
        scene = SCENES.get(name)
        check_name = f"golden:{name}"
        if scene is None:
            results.append(
                failed(
                    check_name,
                    PILLAR,
                    f"unknown golden scenario {name!r}; known: "
                    + ", ".join(sorted(SCENES)),
                )
            )
            continue
        path = golden_path(name)
        if not os.path.exists(path):
            results.append(
                failed(
                    check_name,
                    PILLAR,
                    f"no pinned document at {path}; run "
                    f"`python -m repro validate --bless` to create it",
                    path=path,
                )
            )
            continue
        with open(path, "r", encoding="utf-8") as handle:
            expected = json.load(handle)
        actual = compute_golden_doc(scene)
        diffs = diff_golden_docs(expected, actual)
        if diffs:
            results.append(
                failed(
                    check_name,
                    PILLAR,
                    "trace drifted from pinned document: " + "; ".join(diffs),
                    diffs=diffs,
                    path=path,
                )
            )
        else:
            results.append(
                ok(
                    check_name,
                    PILLAR,
                    f"{actual['record_count']} records match digest "
                    f"{actual['records_sha256'][:12]}…",
                    record_count=actual["record_count"],
                    records_sha256=actual["records_sha256"],
                )
            )
    return results


def bless_golden(names: Optional[Iterable[str]] = None) -> List[str]:
    """(Re)compute and write the pinned documents; returns the paths.

    This is the *intentional drift* flow: after a deliberate physics or
    protocol change, re-pin and commit the new documents alongside it.
    """
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    selected = list(names) if names is not None else list(SCENES)
    paths: List[str] = []
    for name in selected:
        doc = compute_golden_doc(get_scene(name))
        path = golden_path(name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        paths.append(path)
    return paths
