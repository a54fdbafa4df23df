"""``python -m repro validate`` end to end, through ``cli.main``.

The two acceptance pins: the full run exits zero on a pristine tree,
and it exits nonzero the moment the link physics in ``rf/link.py`` is
monkeypatched into a non-reciprocal channel.
"""

import dataclasses
import json

import pytest

import repro.rf.link as link_mod
import repro.validate.golden as golden_mod
from repro.cli import main
from repro.validate import run_validation
from repro.world.scenarios.catalog import SCENES


class TestFullRun:
    def test_pristine_tree_exits_zero(self, capsys):
        """The whole suite — all three pillars — passes on main."""
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "validate: PASS" in out
        assert "invariants" in out and "metamorphic" in out
        assert "golden" in out

    def test_json_payload_shape(self, capsys):
        code = main(["validate", "--pillar", "golden", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["total"] == len(SCENES)
        assert {c["pillar"] for c in payload["checks"]} == {"golden"}


class TestReciprocityViolation:
    def test_broken_link_physics_exits_nonzero(self, capsys, monkeypatch):
        """Monkeypatch ``rf/link.py`` into a non-reciprocal channel:
        validate must fail and the report must name the check."""
        original = link_mod.compose_link

        def lopsided(*args, **kwargs):
            result = original(*args, **kwargs)
            return dataclasses.replace(
                result, reverse_power_dbm=result.reverse_power_dbm + 2.0
            )

        monkeypatch.setattr(link_mod, "compose_link", lopsided)
        code = main(["validate", "--check", "link_reciprocity"])
        assert code != 0
        out = capsys.readouterr().out
        assert "[FAIL] link_reciprocity" in out
        assert "validate: FAIL" in out


class TestSelection:
    def test_check_filter_runs_only_named_checks(self):
        report = run_validation(checks=["link_reciprocity"])
        assert [r.name for r in report.results] == ["link_reciprocity"]
        assert report.exit_code == 0

    def test_unknown_check_name_fails_loudly(self, capsys):
        assert main(["validate", "--check", "no_such_law"]) == 1
        assert "no_such_law" in capsys.readouterr().out

    def test_unknown_pillar_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["validate", "--pillar", "vibes"])

    def test_golden_check_selector(self, capsys):
        code = main(["validate", "--check", "golden:tag-plane-3m"])
        assert code == 0
        out = capsys.readouterr().out
        assert "golden:tag-plane-3m" in out
        # Only the named check ran.
        assert "(1/1 checks)" in out


class TestDeepProfile:
    def test_env_var_enables_deep(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE_DEEP", "1")
        code = main(
            ["validate", "--check", "codec_round_trips", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["deep"] is True

    def test_flag_enables_deep(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_VALIDATE_DEEP", raising=False)
        code = main(
            ["validate", "--deep", "--check", "codec_round_trips", "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["deep"] is True


class TestBlessFlow:
    def test_bless_writes_selected_document(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(golden_mod, "GOLDEN_DIR", str(tmp_path))
        code = main(["validate", "--bless", "--golden", "tag-plane-3m"])
        assert code == 0
        out = capsys.readouterr().out
        assert "blessed" in out and "tag-plane-3m.json" in out
        assert (tmp_path / "tag-plane-3m.json").exists()

    def test_bless_then_validate_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.setattr(golden_mod, "GOLDEN_DIR", str(tmp_path))
        assert main(["validate", "--bless", "--golden", "tag-plane-3m"]) == 0
        assert (
            main(["validate", "--check", "golden:tag-plane-3m"]) == 0
        )
