"""The ``python -m repro explain`` pipeline: why did this tag miss?

Re-runs one pass of a catalog scene
(:data:`repro.world.scenarios.catalog.SCENES`) with a detailed recorder
(link waterfalls, slots, RNG provenance), picks a tag, and renders the
dominant-loss story: the per-term forward link-budget waterfall of the
best dwell the tag ever got, the attributed
:class:`~repro.obs.records.MissCause`, and the pass-level context.
Everything derives from ``(seed, trial)``, so the same invocation
reproduces the same waterfall bit-for-bit.

This module sits *above* the scenario layer (it runs catalog scenes),
which is why it is not imported from ``repro.obs.__init__`` — import
it directly or through the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..rf.link import forward_waterfall
from ..sim.rng import SeedSequence
from ..world.scenarios.catalog import get_scene
from .recorder import PassObservation, Recorder
from .records import DwellLinkRecord, TagOutcomeRecord


def record_waterfall(record: DwellLinkRecord) -> List[Tuple[str, float]]:
    """The ordered waterfall of one recorded dwell (losses negated).

    A short-circuited dwell has no fading draw; its waterfall sums to
    the *no-fading* power at the tag, which is exactly the quantity the
    short-circuit classified as hopeless.
    """
    return forward_waterfall(
        tx_power_dbm=record.tx_power_dbm,
        cable_loss_db=record.cable_loss_db,
        reader_gain_dbi=record.reader_gain_dbi,
        path_gain_db=record.path_gain_db,
        shadowing_db=record.shadowing_db,
        tag_gain_dbi=record.tag_gain_dbi,
        polarization_loss_db=record.polarization_loss_db,
        obstruction_db=record.obstruction_db,
        detuning_db=record.detuning_db,
        coupling_db=record.coupling_db,
        fault_loss_db=record.fault_loss_db,
        fading_db=record.fading_db if record.fading_db is not None else 0.0,
    )


@dataclass(frozen=True)
class Explanation:
    """The rendered-ready result of one explain run."""

    scenario: str
    seed: int
    trial: int
    outcome: TagOutcomeRecord
    #: The dwell where the forward link came closest to closing
    #: (``None`` when the tag never got a link evaluation at all).
    best_dwell: Optional[DwellLinkRecord]
    waterfall: Tuple[Tuple[str, float], ...]
    tag_sensitivity_dbm: float
    pass_summary: Dict[str, Any]

    @property
    def power_at_tag_dbm(self) -> Optional[float]:
        if not self.waterfall:
            return None
        return sum(value for _, value in self.waterfall)

    @property
    def forward_margin_db(self) -> Optional[float]:
        power = self.power_at_tag_dbm
        if power is None:
            return None
        return power - self.tag_sensitivity_dbm

    def to_payload(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "trial": self.trial,
            "tag": self.outcome.to_dict(),
            "best_dwell": (
                self.best_dwell.to_dict()
                if self.best_dwell is not None
                else None
            ),
            "waterfall": [
                {"term": term, "db": value} for term, value in self.waterfall
            ],
            "power_at_tag_dbm": self.power_at_tag_dbm,
            "tag_sensitivity_dbm": self.tag_sensitivity_dbm,
            "forward_margin_db": self.forward_margin_db,
            "pass": self.pass_summary,
        }

    def render(self) -> str:
        out = self.outcome
        lines = [
            f"explain — scenario '{self.scenario}', seed {self.seed}, "
            f"trial {self.trial}",
        ]
        if out.read:
            first = (
                f"{out.first_read_time:.2f}s"
                if out.first_read_time is not None
                else "?"
            )
            lines.append(
                f"tag {out.epc}: READ ({out.reads} reads, first at t={first})"
            )
        else:
            cause = out.cause.value if out.cause is not None else "unknown"
            lines.append(f"tag {out.epc}: MISSED — cause: {cause}")
        lines.append(
            f"  dwells evaluated {out.dwells_evaluated}, "
            f"energized {out.energized_dwells}, "
            f"collision slots {out.collision_slots}, "
            f"garbled solo slots {out.solo_garbled_slots}"
        )
        if self.best_dwell is None:
            lines.append(
                "  no link evaluation recorded for this tag "
                "(it never shared a dwell with a powered antenna)"
            )
        else:
            dwell = self.best_dwell
            note = (
                " (short-circuited: provably hopeless, no fading draw)"
                if dwell.short_circuited
                else ""
            )
            lines.append(
                f"  best dwell: t={dwell.time:.2f}s "
                f"{dwell.reader_id}/{dwell.antenna_id}{note}"
            )
            lines.append("  forward link waterfall:")
            for term, value in self.waterfall:
                unit = "dBm" if term == "tx power (dBm)" else "dB"
                lines.append(f"    {term:<22s} {value:+9.2f} {unit}")
            lines.append(
                f"    {'= power at tag':<22s} "
                f"{self.power_at_tag_dbm:+9.2f} dBm"
            )
            lines.append(
                f"    {'tag sensitivity':<22s} "
                f"{self.tag_sensitivity_dbm:+9.2f} dBm"
            )
            lines.append(
                f"    {'= forward margin':<22s} "
                f"{self.forward_margin_db:+9.2f} dB"
            )
        summary = self.pass_summary
        causes = ", ".join(
            f"{name}={count}"
            for name, count in sorted(summary["miss_causes"].items())
        )
        lines.append(
            f"pass: {summary['population']} tags, {summary['read']} read"
            + (f"; misses by cause: {causes}" if causes else "")
        )
        return "\n".join(lines)


def run_instrumented_pass(
    scenario_name: str, seed: int, trial: int = 0
) -> Tuple[Any, Any, PassObservation]:
    """One fully-captured pass of a catalog scene, fault plan included:
    ``(simulator, result, observation)``."""
    task = get_scene(scenario_name).build()
    task.simulator.recorder = Recorder(detail=True)
    result = task(SeedSequence(seed), trial)
    return task.simulator, result, result.obs


def _select_outcome(
    observation: PassObservation, tag: Optional[str]
) -> TagOutcomeRecord:
    """Resolve ``--tag`` (EPC, population index, or None = first miss)."""
    outcomes = observation.tag_outcomes
    if tag is None:
        for out in outcomes:
            if not out.read:
                return out
        return outcomes[0]
    for out in outcomes:
        if out.epc == tag:
            return out
    if tag.isdigit() and int(tag) < len(outcomes):
        return outcomes[int(tag)]
    known = ", ".join(out.epc for out in outcomes[:8])
    raise ValueError(
        f"tag {tag!r} is neither an EPC of this pass nor a population "
        f"index; first EPCs: {known}"
    )


def explain_tag(
    scenario_name: str,
    seed: int,
    trial: int = 0,
    tag: Optional[str] = None,
) -> Explanation:
    """Run the pipeline end to end and explain one tag's outcome."""
    sim, _result, observation = run_instrumented_pass(
        scenario_name, seed, trial
    )
    if observation is None:  # pragma: no cover - recorder always attached
        raise ValueError("instrumented pass produced no observation")
    outcome = _select_outcome(observation, tag)
    candidates = [
        rec for rec in observation.link_records if rec.epc == outcome.epc
    ]
    sensitivity = sim.env.tag_sensitivity_dbm
    best: Optional[DwellLinkRecord] = None
    best_power: Optional[float] = None
    for rec in candidates:
        power = sum(value for _, value in record_waterfall(rec))
        if best_power is None or power > best_power:
            best, best_power = rec, power
    waterfall = tuple(record_waterfall(best)) if best is not None else ()
    read_count = sum(1 for out in observation.tag_outcomes if out.read)
    causes: Dict[str, int] = {}
    for out in observation.tag_outcomes:
        if not out.read and out.cause is not None:
            causes[out.cause.value] = causes.get(out.cause.value, 0) + 1
    return Explanation(
        scenario=scenario_name,
        seed=seed,
        trial=trial,
        outcome=outcome,
        best_dwell=best,
        waterfall=waterfall,
        tag_sensitivity_dbm=sensitivity,
        pass_summary={
            "population": len(observation.tag_outcomes),
            "read": read_count,
            "miss_causes": causes,
            "truncated_link_records": observation.truncated_link_records,
        },
    )


def stats_payload(directory: str) -> Dict[str, Any]:
    """Summarise a recorded run directory (manifest + events.jsonl)."""
    from .jsonl import read_events_jsonl
    from .manifest import events_path, read_manifest

    manifest = read_manifest(directory)
    records = read_events_jsonl(events_path(directory))
    by_type: Dict[str, int] = {}
    tags_read = 0
    tags_missed = 0
    causes: Dict[str, int] = {}
    for record in records:
        doc_type = record.to_dict()["type"]
        by_type[doc_type] = by_type.get(doc_type, 0) + 1
        if isinstance(record, TagOutcomeRecord):
            if record.read:
                tags_read += 1
            else:
                tags_missed += 1
                if record.cause is not None:
                    causes[record.cause.value] = (
                        causes.get(record.cause.value, 0) + 1
                    )
    return {
        "directory": directory,
        "manifest": manifest.to_dict(),
        "events": len(records),
        "events_by_type": dict(sorted(by_type.items())),
        # A manifest without trial sets cannot say how many passes ran.
        "passes": (
            sum(manifest.trial_sets.values()) if manifest.trial_sets else None
        ),
        "trial_sets": dict(manifest.trial_sets),
        "tag_outcomes": {
            "read": tags_read,
            "missed": tags_missed,
            "miss_causes": dict(sorted(causes.items())),
        },
    }


def render_stats(payload: Dict[str, Any]) -> str:
    """Human-readable view of :func:`stats_payload`."""
    manifest = payload["manifest"]
    outcome = payload["tag_outcomes"]
    lines = [
        f"recorded run: {payload['directory']}",
        (
            f"  command={manifest['command']} seed={manifest['seed']} "
            f"workers={manifest['workers']} "
            f"wall={manifest['wall_time_s']:.2f}s"
        ),
        (
            f"  version={manifest['version']} python={manifest['python']} "
            f"config_sha256={manifest['config_sha256'][:12]}…"
        ),
        f"events: {payload['events']}"
        + (
            f" across {payload['passes']} passes in "
            f"{len(payload['trial_sets'])} trial sets"
            if payload["trial_sets"]
            else ""
        ),
    ]
    for doc_type, count in payload["events_by_type"].items():
        lines.append(f"  {doc_type:<13s} {count}")
    total = outcome["read"] + outcome["missed"]
    if total:
        lines.append(
            f"tag outcomes: {outcome['read']}/{total} read "
            f"({100.0 * outcome['read'] / total:.1f}%)"
        )
        for cause, count in outcome["miss_causes"].items():
            lines.append(f"  miss cause {cause:<16s} {count}")
    return "\n".join(lines)
