"""CLI-level observability tests: --json, --record, explain, stats."""

import io
import json
import os
from contextlib import redirect_stdout

from repro.cli import build_parser, main


def _run(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


class TestJsonFlag:
    def test_every_subcommand_accepts_json(self):
        parser = build_parser()
        for argv in (
            ["table1", "--json"],
            ["read-range", "--json"],
            ["table2", "--json"],
            ["table3", "--json"],
            ["reader-redundancy", "--json"],
            ["faults", "--json"],
            ["plan", "--json"],
            ["report", "--json"],
            ["explain", "--json"],
            ["stats", "somewhere", "--json"],
        ):
            args = parser.parse_args(argv)
            assert args.json is True

    def test_plan_json_payload_parses(self):
        code, output = _run(["plan", "--target", "0.99", "--json"])
        assert code == 0
        payload = json.loads(output)
        assert payload["command"] == "plan"
        assert payload["tags_per_object"] >= 1

    def test_experiment_commands_accept_record(self):
        parser = build_parser()
        args = parser.parse_args(["table1", "--record", "/tmp/x"])
        assert args.record == "/tmp/x"


class TestExplainCommand:
    def test_exit_zero_and_waterfall_text(self):
        code, output = _run(
            ["explain", "--scenario", "walk", "--pass-seed", "7"]
        )
        assert code == 0
        assert "forward link waterfall" in output
        assert "tag sensitivity" in output

    def test_json_payload_parses(self):
        code, output = _run(
            ["explain", "--scenario", "walk", "--pass-seed", "7", "--json"]
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["scenario"] == "walk"
        assert isinstance(payload["waterfall"], list)

    def test_unknown_scenario_exits_one(self):
        code, _ = _run(["explain", "--scenario", "conveyor"])
        assert code == 1


class TestRecordAndStats:
    def test_record_then_stats_round_trip(self, tmp_path):
        directory = str(tmp_path / "run")
        code, output = _run(
            ["faults", "--reps", "1", "--record", directory]
        )
        assert code == 0
        assert "recorded" in output
        assert os.path.exists(os.path.join(directory, "manifest.json"))
        assert os.path.exists(os.path.join(directory, "events.jsonl"))

        code, output = _run(["stats", directory])
        assert code == 0
        assert "recorded run" in output

        code, output = _run(["stats", directory, "--json"])
        assert code == 0
        payload = json.loads(output)
        assert payload["manifest"]["command"] == "faults"
        assert payload["events"] > 0

    def test_record_json_payload_reports_recording(self, tmp_path):
        directory = str(tmp_path / "run")
        code, output = _run(
            ["faults", "--reps", "1", "--record", directory, "--json"]
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["recording"]["directory"] == directory
        assert payload["recording"]["events"] > 0

    def test_stats_on_missing_directory_exits_one(self, tmp_path):
        code, _ = _run(["stats", str(tmp_path / "nope")])
        assert code == 1
