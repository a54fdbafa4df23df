"""Tests for the explain pipeline and recorded-run stats."""

import pytest

from repro.obs.explain import (
    explain_tag,
    render_stats,
    run_instrumented_pass,
    stats_payload,
)
from repro.obs.records import MissCause
from repro.validate.golden import GOLDEN_SEED
from repro.world.scenarios.catalog import SCENES


class TestScenarios:
    def test_registry_contains_the_paper_workloads(self):
        assert "cart-front" in SCENES
        assert "walk-front" in SCENES

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="cart"):
            run_instrumented_pass("conveyor", seed=1)


class TestExplainTag:
    def test_deterministic(self):
        """Two explain runs of the same (scenario, seed, trial, tag)
        produce identical payloads — the acceptance invariant."""
        a = explain_tag("walk-front", seed=7, trial=1)
        b = explain_tag("walk-front", seed=7, trial=1)
        assert a.to_payload() == b.to_payload()
        assert a.render() == b.render()

    def test_waterfall_arithmetic(self):
        explanation = explain_tag("walk-front", seed=7, trial=1)
        total = sum(value for _, value in explanation.waterfall)
        assert explanation.power_at_tag_dbm == pytest.approx(total)
        assert explanation.forward_margin_db == pytest.approx(
            explanation.power_at_tag_dbm - explanation.tag_sensitivity_dbm
        )

    def test_select_by_index_and_epc(self):
        by_index = explain_tag("walk-front", seed=7, trial=1, tag="0")
        by_epc = explain_tag(
            "walk-front", seed=7, trial=1, tag=by_index.outcome.epc
        )
        assert by_index.to_payload() == by_epc.to_payload()

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            explain_tag("walk-front", seed=7, trial=1, tag="NOT-AN-EPC")

    def test_faulted_scene_runs_its_fault_plan(self):
        """The cart whose antenna goes silent at t=1s: every miss, the
        first one included, is attributed to the injected fault."""
        explanation = explain_tag("cart-antenna-fault", seed=GOLDEN_SEED)
        assert not explanation.outcome.read
        assert explanation.outcome.cause is MissCause.FAULT_MASKED
        assert explanation.pass_summary["miss_causes"] == {
            MissCause.FAULT_MASKED.value: 4
        }

    def test_render_mentions_the_outcome(self):
        explanation = explain_tag("walk-front", seed=7, trial=1)
        text = explanation.render()
        assert explanation.outcome.epc in text
        assert "forward margin" in text


class TestStats:
    def _record_run(self, tmp_path):
        from repro.obs import (
            Recorder,
            RunManifest,
            events_path,
            write_events_jsonl,
            write_manifest,
        )

        _, _, observation = run_instrumented_pass("walk-front", seed=7, trial=0)
        recorder = Recorder()
        recorder.absorb_observation(observation)
        directory = str(tmp_path / "run")
        write_manifest(
            directory,
            RunManifest.create(
                command="walk-front", seed=7, config={}, wall_time_s=0.5
            ),
        )
        write_events_jsonl(events_path(directory), recorder.events)
        return directory

    def test_stats_payload_counts_events(self, tmp_path):
        directory = self._record_run(tmp_path)
        payload = stats_payload(directory)
        assert payload["manifest"]["command"] == "walk-front"
        assert payload["events"] > 0
        assert payload["events_by_type"].get("tag") == 1
        outcomes = payload["tag_outcomes"]
        assert outcomes["read"] + outcomes["missed"] == 1
        # This manifest lists no trial sets: the pass count is unknown.
        assert payload["trial_sets"] == {}
        assert payload["passes"] is None

    def test_render_stats(self, tmp_path):
        directory = self._record_run(tmp_path)
        text = render_stats(stats_payload(directory))
        assert "recorded run" in text
        assert "seed=7" in text
        # This manifest lists no trial sets, so no pass count is claimed.
        assert "across" not in text

    def test_missing_directory_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            stats_payload(str(tmp_path / "nope"))
