"""Metamorphic relations: properties between *pairs* of runs.

Where an invariant constrains one run, a metamorphic relation
constrains how two related runs may differ — the follow-up run is the
oracle. The deterministic sweeps here run from ``python -m repro
validate`` and CI; the randomized Hypothesis versions live in
``tests/validate/test_metamorphic.py`` and explore the same relations
with generated inputs:

* **redundancy never hurts** — adding an opportunity can only raise
  the independence-model reliability, and correlation can only lower
  it (checked at the model layer, where the relation is exact; the
  simulator adds coupling/collision physics that legitimately trade
  off);
* **EPC relabeling** — renaming tags permutes per-tag records but
  cannot change any aggregate (reads, miss-cause histogram, slot
  outcomes), checked on the recorded events of an instrumented pass;
* **seed-split merge** — a trial loop fanned out over worker processes
  merges to the same :class:`~repro.core.experiment.TrialSet` as the
  serial loop, outcomes and order both;
* **round trips** — CRC-16 verification, SGTIN-96 bits/hex codecs, the
  JSONL record codec, and the run manifest dict codec are lossless.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from ..core.experiment import run_trials
from ..core.redundancy import (
    combined_reliability,
    combined_reliability_correlated,
    marginal_gain,
)
from ..obs.explain import run_instrumented_pass
from ..obs.jsonl import dump_records, parse_records
from ..obs.manifest import RunManifest
from ..obs.records import SlotRecord, TagOutcomeRecord
from ..protocol.crc import (
    bits_to_bytes,
    bytes_to_bits,
    crc16,
    verify_crc16,
)
from ..protocol.epc import MAX_SERIAL, Sgtin96
from ..sim.rng import SeedSequence
from ..world.scenarios.catalog import SCENES
from .result import CheckResult, failed, ok
from .statistics import mean_confidence_interval  # noqa: F401  (re-export for tests)

PILLAR = "metamorphic"

FLOAT_TOL = 1e-12


# ---------------------------------------------------------------------------
# redundancy never hurts (model layer, exact)


def check_redundancy_never_hurts(seed: int, deep: bool = False) -> CheckResult:
    """Adding an opportunity never lowers ``R_C``; correlation never
    raises it above the independent combination."""
    seeds = SeedSequence(seed)
    rng = seeds.stream("validate:redundancy")
    cases = 500 if deep else 120
    for i in range(cases):
        n = rng.randint(1, 6)
        ps = [rng.uniform(0.0, 1.0) for _ in range(n)]
        extra = rng.uniform(0.0, 1.0)
        base = combined_reliability(ps)
        grown = combined_reliability(ps + [extra])
        if grown < base - FLOAT_TOL:
            return failed(
                "redundancy_never_hurts",
                PILLAR,
                f"adding opportunity p={extra:.4f} lowered R_C "
                f"{base:.6f} -> {grown:.6f} (case {i})",
                case=i,
                base=base,
                grown=grown,
            )
        gain = marginal_gain(ps, extra)
        if gain < -FLOAT_TOL:
            return failed(
                "redundancy_never_hurts",
                PILLAR,
                f"marginal_gain returned {gain:.6g} < 0 (case {i})",
                case=i,
                gain=gain,
            )
        correlation = rng.uniform(0.0, 1.0)
        correlated = combined_reliability_correlated(ps, correlation)
        if correlated > base + FLOAT_TOL:
            return failed(
                "redundancy_never_hurts",
                PILLAR,
                f"correlation {correlation:.3f} raised reliability above "
                f"the independence model: {correlated:.6f} > {base:.6f} "
                f"(case {i})",
                case=i,
                correlation=correlation,
            )
        if correlated < max(ps) - FLOAT_TOL:
            return failed(
                "redundancy_never_hurts",
                PILLAR,
                f"correlated combination {correlated:.6f} fell below the "
                f"best single opportunity {max(ps):.6f} (case {i})",
                case=i,
            )
    return ok(
        "redundancy_never_hurts",
        PILLAR,
        f"{cases} random opportunity sets: R_C monotone in opportunities, "
        f"correlation bounded by [max(p), R_C]",
        cases=cases,
    )


# ---------------------------------------------------------------------------
# EPC relabeling


def _observation_aggregates(
    tag_records: List[TagOutcomeRecord],
    slot_records: List[SlotRecord],
) -> Dict[str, Any]:
    """Label-free aggregates of one recorded pass."""
    causes: Dict[str, int] = {}
    for out in tag_records:
        if not out.read and out.cause is not None:
            causes[out.cause.value] = causes.get(out.cause.value, 0) + 1
    slot_outcomes: Dict[str, int] = {}
    for slot in slot_records:
        slot_outcomes[slot.outcome] = slot_outcomes.get(slot.outcome, 0) + 1
    return {
        "population": len(tag_records),
        "read": sum(1 for out in tag_records if out.read),
        "total_reads": sum(out.reads for out in tag_records),
        "miss_causes": dict(sorted(causes.items())),
        "slot_outcomes": dict(sorted(slot_outcomes.items())),
        "responder_slots": sum(len(s.responders) for s in slot_records),
    }


def relabel_records(
    tag_records: List[TagOutcomeRecord],
    slot_records: List[SlotRecord],
    mapping: Dict[str, str],
) -> Tuple[List[TagOutcomeRecord], List[SlotRecord]]:
    """Apply an EPC bijection to recorded events (records are frozen, so
    relabeled copies are returned)."""
    import dataclasses

    new_tags = [
        dataclasses.replace(out, epc=mapping[out.epc]) for out in tag_records
    ]
    new_slots = [
        dataclasses.replace(
            slot,
            responders=tuple(mapping[epc] for epc in slot.responders),
            winner=mapping[slot.winner] if slot.winner is not None else None,
        )
        for slot in slot_records
    ]
    return new_tags, new_slots


def check_epc_relabel_aggregates(seed: int, deep: bool = False) -> CheckResult:
    """Relabeling every EPC through a bijection permutes per-tag records
    but leaves every aggregate of the pass untouched."""
    trials = 3 if deep else 1
    for trial in range(trials):
        _sim, _result, observation = run_instrumented_pass(
            "cart-front", seed, trial
        )
        tag_records = list(observation.tag_outcomes)
        slot_records = list(observation.slot_records)
        epcs = sorted({out.epc for out in tag_records})
        mapping = {epc: f"RELABEL-{i:04d}" for i, epc in enumerate(epcs)}
        new_tags, new_slots = relabel_records(
            tag_records, slot_records, mapping
        )
        before = _observation_aggregates(tag_records, slot_records)
        after = _observation_aggregates(new_tags, new_slots)
        if before != after:
            drifted = [k for k in before if before[k] != after[k]]
            return failed(
                "epc_relabel_aggregates",
                PILLAR,
                f"relabeling changed aggregate(s) {drifted} on trial "
                f"{trial}",
                trial=trial,
                before=before,
                after=after,
            )
        if sorted(out.epc for out in new_tags) != sorted(mapping.values()):
            return failed(
                "epc_relabel_aggregates",
                PILLAR,
                f"relabeled records are not a permutation of the bijection "
                f"image on trial {trial}",
                trial=trial,
            )
    return ok(
        "epc_relabel_aggregates",
        PILLAR,
        f"{trials} instrumented pass(es): EPC bijection left reads, "
        f"miss causes and slot outcomes unchanged",
        trials=trials,
    )


# ---------------------------------------------------------------------------
# seed-split merge


def check_seed_split_merge(seed: int, deep: bool = False) -> CheckResult:
    """A worker-pool trial loop merges to the serial loop's TrialSet:
    same outcomes, same trial-index order."""
    task = SCENES["walk-front"].build()
    reps = 6 if deep else 4
    serial = run_trials("validate-merge", task, reps, seed=seed, workers=1)
    split = run_trials("validate-merge", task, reps, seed=seed, workers=2)
    if serial != split:
        first = next(
            (
                i
                for i, (a, b) in enumerate(
                    zip(serial.outcomes, split.outcomes)
                )
                if a != b
            ),
            None,
        )
        return failed(
            "seed_split_merge",
            PILLAR,
            f"parallel trial set diverged from serial (first differing "
            f"trial: {first})",
            repetitions=reps,
            first_divergence=first,
        )
    if len(split.trial_seconds) != reps:
        return failed(
            "seed_split_merge",
            PILLAR,
            f"parallel run returned {len(split.trial_seconds)} trial "
            f"timings for {reps} trials",
            repetitions=reps,
        )
    return ok(
        "seed_split_merge",
        PILLAR,
        f"{reps} trials: workers=2 merged bit-identical to serial, "
        f"timings in trial order",
        repetitions=reps,
    )


# ---------------------------------------------------------------------------
# round trips


def check_codec_round_trips(seed: int, deep: bool = False) -> CheckResult:
    """CRC-16, SGTIN-96 and byte/bit codecs are lossless round trips."""
    seeds = SeedSequence(seed)
    rng = seeds.stream("validate:codec")
    cases = 400 if deep else 100
    for i in range(cases):
        payload = bytes(rng.randint(0, 255) for _ in range(rng.randint(1, 24)))
        bits = bytes_to_bits(payload)
        if bits_to_bytes(bits) != payload:
            return failed(
                "codec_round_trips",
                PILLAR,
                f"bytes->bits->bytes mangled payload at case {i}",
                case=i,
            )
        crc = crc16(bits)
        if not verify_crc16(bits, crc):
            return failed(
                "codec_round_trips",
                PILLAR,
                f"crc16 failed to verify its own value at case {i}",
                case=i,
                crc=crc,
            )
        # A single flipped bit must break verification.
        flip = rng.randint(0, len(bits) - 1)
        corrupted = list(bits)
        corrupted[flip] ^= 1
        if verify_crc16(corrupted, crc):
            return failed(
                "codec_round_trips",
                PILLAR,
                f"crc16 accepted a single-bit corruption at case {i} "
                f"(bit {flip})",
                case=i,
                bit=flip,
            )
        partition = rng.randint(0, 6)
        from ..protocol.epc import _PARTITIONS

        cp_bits, _, ir_bits, _ = _PARTITIONS[partition]
        epc = Sgtin96(
            filter_value=rng.randint(0, 7),
            partition=partition,
            company_prefix=rng.randint(0, (1 << cp_bits) - 1),
            item_reference=rng.randint(0, (1 << ir_bits) - 1),
            serial=rng.randint(0, MAX_SERIAL),
        )
        if Sgtin96.from_bits(epc.to_bits()) != epc:
            return failed(
                "codec_round_trips",
                PILLAR,
                f"SGTIN-96 bits round trip mangled {epc!r} (case {i})",
                case=i,
            )
        if Sgtin96.from_hex(epc.to_hex()) != epc:
            return failed(
                "codec_round_trips",
                PILLAR,
                f"SGTIN-96 hex round trip mangled {epc!r} (case {i})",
                case=i,
            )
    return ok(
        "codec_round_trips",
        PILLAR,
        f"{cases} random payloads: CRC-16 verifies and rejects 1-bit "
        f"corruption, SGTIN-96 bits/hex round-trip exactly",
        cases=cases,
    )


def check_record_round_trips(seed: int, deep: bool = False) -> CheckResult:
    """JSONL record codec and manifest dict codec reproduce an
    instrumented pass's events bit-for-bit."""
    _sim, _result, observation = run_instrumented_pass("walk-front", seed, 0)
    records = list(observation.records())
    if not records:
        return failed(
            "record_round_trips",
            PILLAR,
            "instrumented pass produced no records to round-trip",
        )
    lines = list(dump_records(records))
    rebuilt = list(parse_records(lines))
    if rebuilt != records:
        first = next(
            (i for i, (a, b) in enumerate(zip(rebuilt, records)) if a != b),
            None,
        )
        return failed(
            "record_round_trips",
            PILLAR,
            f"JSONL round trip diverged at record {first} of "
            f"{len(records)}",
            records=len(records),
            first_divergence=first,
        )
    manifest = RunManifest.create(
        command="validate",
        seed=seed,
        config={"scenario": "walk-front", "trials": 1},
        wall_time_s=0.0,
        workers=None,
        started_at="2007-06-25T00:00:00+00:00",
    )
    if RunManifest.from_dict(manifest.to_dict()) != manifest:
        return failed(
            "record_round_trips",
            PILLAR,
            "RunManifest dict round trip is not the identity",
        )
    return ok(
        "record_round_trips",
        PILLAR,
        f"{len(records)} recorded events and the run manifest round-trip "
        f"losslessly",
        records=len(records),
    )


#: Ordered registry the runner walks; names are stable CLI/report keys.
METAMORPHIC_CHECKS: Dict[str, Callable[[int, bool], CheckResult]] = {
    "redundancy_never_hurts": check_redundancy_never_hurts,
    "epc_relabel_aggregates": check_epc_relabel_aggregates,
    "seed_split_merge": check_seed_split_merge,
    "codec_round_trips": check_codec_round_trips,
    "record_round_trips": check_record_round_trips,
}
