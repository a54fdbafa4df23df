"""Run manifests: canonical config hashing and the manifest.json file."""

import json
import os
import sys

import pytest

import repro
from repro.obs.manifest import (
    EVENTS_FILENAME,
    MANIFEST_FILENAME,
    RunManifest,
    config_hash,
    events_path,
    manifest_path,
    read_manifest,
    write_manifest,
)

STAMP = "2006-06-01T00:00:00+00:00"


def _manifest(**overrides):
    kwargs = dict(
        command="faults",
        seed=17,
        config={"reps": 2, "portal": "cart"},
        wall_time_s=1.5,
        started_at=STAMP,
    )
    kwargs.update(overrides)
    return RunManifest.create(**kwargs)


class TestConfigHash:
    def test_is_sha256_hex(self):
        digest = config_hash({"reps": 3})
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")

    def test_nested_key_order_is_irrelevant(self):
        a = {"outer": {"x": 1, "y": [1, 2]}, "z": None}
        b = {"z": None, "outer": {"y": [1, 2], "x": 1}}
        assert config_hash(a) == config_hash(b)

    def test_list_order_matters(self):
        assert config_hash({"rates": [0.1, 0.2]}) != config_hash(
            {"rates": [0.2, 0.1]}
        )

    def test_non_json_values_hash_by_their_string(self):
        value = frozenset({1})
        assert config_hash({"v": value}) == config_hash({"v": str(value)})

    def test_empty_config_hashes(self):
        assert config_hash({}) == config_hash({})
        assert config_hash({}) != config_hash({"reps": 0})


class TestRunManifest:
    def test_create_stamps_provenance(self):
        manifest = _manifest()
        assert manifest.version == repro.__version__
        assert manifest.python == sys.version.split()[0]
        assert manifest.platform
        assert manifest.started_at == STAMP
        assert manifest.workers is None

    def test_create_hashes_the_config(self):
        manifest = _manifest(config={"a": 1})
        assert manifest.config_sha256 == config_hash({"a": 1})

    def test_create_copies_the_config(self):
        config = {"reps": 2}
        manifest = _manifest(config=config)
        config["reps"] = 99
        assert manifest.config == {"reps": 2}

    def test_same_inputs_same_manifest(self):
        assert _manifest() == _manifest()

    def test_workers_recorded(self):
        assert _manifest(workers=2).workers == 2

    def test_dict_round_trip(self):
        manifest = _manifest(workers=3)
        assert RunManifest.from_dict(manifest.to_dict()) == manifest

    def test_dict_survives_json(self):
        manifest = _manifest()
        doc = json.loads(json.dumps(manifest.to_dict()))
        assert RunManifest.from_dict(doc) == manifest

    def test_trial_sets_recorded_outside_the_config_hash(self):
        manifest = _manifest(trial_sets={"faults:single-clean": 2})
        assert manifest.trial_sets == {"faults:single-clean": 2}
        assert manifest.config_sha256 == _manifest().config_sha256

    def test_manifest_without_trial_sets_loads(self):
        doc = _manifest().to_dict()
        del doc["trial_sets"]
        assert RunManifest.from_dict(doc).trial_sets == {}

    def test_unknown_field_rejected(self):
        doc = dict(_manifest().to_dict(), extra=1)
        with pytest.raises(TypeError):
            RunManifest.from_dict(doc)


class TestManifestFiles:
    def test_paths_inside_the_run_directory(self):
        assert manifest_path("runs/x") == os.path.join("runs/x", MANIFEST_FILENAME)
        assert events_path("runs/x") == os.path.join("runs/x", EVENTS_FILENAME)
        assert MANIFEST_FILENAME != EVENTS_FILENAME

    def test_write_creates_nested_directories(self, tmp_path):
        directory = str(tmp_path / "a" / "b")
        path = write_manifest(directory, _manifest())
        assert path == manifest_path(directory)
        assert os.path.isfile(path)

    def test_file_is_indented_json_ending_in_newline(self, tmp_path):
        path = write_manifest(str(tmp_path), _manifest())
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        assert text.endswith("}\n")
        assert json.loads(text)["command"] == "faults"
        assert "\n  " in text

    def test_rewrite_replaces_the_manifest(self, tmp_path):
        write_manifest(str(tmp_path), _manifest(seed=1))
        write_manifest(str(tmp_path), _manifest(seed=2))
        assert read_manifest(str(tmp_path)).seed == 2

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_manifest(str(tmp_path))
