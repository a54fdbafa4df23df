"""The metamorphic pillar: the fast checks pass, and the relabeling
transform actually does what the equivalence claim needs it to do."""

from repro.obs.explain import run_instrumented_pass
from repro.validate.metamorphic import (
    METAMORPHIC_CHECKS,
    check_codec_round_trips,
    check_record_round_trips,
    check_redundancy_never_hurts,
    relabel_records,
)

SEED = 20070625


class TestRegistry:
    def test_all_checks_registered(self):
        assert list(METAMORPHIC_CHECKS) == [
            "redundancy_never_hurts",
            "epc_relabel_aggregates",
            "seed_split_merge",
            "codec_round_trips",
            "record_round_trips",
        ]


class TestFastChecksPass:
    def test_redundancy_never_hurts(self):
        result = check_redundancy_never_hurts(SEED, deep=False)
        assert result.passed, result.detail
        assert result.pillar == "metamorphic"

    def test_codec_round_trips(self):
        result = check_codec_round_trips(SEED, deep=False)
        assert result.passed, result.detail

    def test_record_round_trips(self):
        result = check_record_round_trips(SEED, deep=False)
        assert result.passed, result.detail


class TestRelabelRecords:
    def test_bijection_renames_without_losing_records(self):
        _, _, obs = run_instrumented_pass("walk-front", SEED)
        mapping = {
            out.epc: f"RENAMED-{i:04d}"
            for i, out in enumerate(obs.tag_outcomes)
        }
        tags, slots = relabel_records(
            obs.tag_outcomes, obs.slot_records, mapping
        )
        assert len(tags) == len(obs.tag_outcomes)
        assert len(slots) == len(obs.slot_records)
        assert {t.epc for t in tags} == set(mapping.values())
        # Read/miss verdicts ride along unchanged.
        assert [t.read for t in tags] == [
            t.read for t in obs.tag_outcomes
        ]
        # Slot responders are renamed consistently with the tags.
        for before, after in zip(obs.slot_records, slots):
            assert after.outcome == before.outcome
            assert after.responders == tuple(
                mapping[epc] for epc in before.responders
            )
