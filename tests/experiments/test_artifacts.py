"""Tests of batch artifact generation."""

import json

import pytest

from repro.experiments.artifacts import write_artifacts


class TestWriteArtifacts:
    def test_writes_text_json_and_index(self, tmp_path):
        written = write_artifacts(tmp_path, ["table2", "fig3", "fig5"], fast=True)
        assert set(written) == {"table2", "fig3", "fig5"}
        for experiment_id, path in written.items():
            assert path.exists()
            json_path = tmp_path / f"{experiment_id}.json"
            doc = json.loads(json_path.read_text())
            assert doc["experiment_id"] == experiment_id
            json.dumps(doc)  # fully JSON-representable
        index = (tmp_path / "INDEX.txt").read_text()
        assert "table2" in index and "fig5" in index

    def test_numpy_values_serialised(self, tmp_path):
        write_artifacts(tmp_path, ["fig3"], fast=True)
        doc = json.loads((tmp_path / "fig3.json").read_text())
        tc = doc["data"]["tc"]
        assert isinstance(tc, list) and isinstance(tc[0], list)
        assert tc[0][0] > tc[3][3]  # corner TC > centre TC survives the trip

    def test_unknown_id_rejected_before_running(self, tmp_path):
        with pytest.raises(ValueError):
            write_artifacts(tmp_path, ["fig99"])
        assert not (tmp_path / "INDEX.txt").exists()

    def test_directory_created(self, tmp_path):
        target = tmp_path / "nested" / "artifacts"
        write_artifacts(target, ["table2"])
        assert (target / "table2.txt").exists()

    def test_fig8_json_is_deterministic(self, tmp_path):
        # fig8's data must hold no wall-clock runtime, so two runs of the
        # same commit write the same bytes.
        write_artifacts(tmp_path / "a", ["fig8"], fast=True)
        write_artifacts(tmp_path / "b", ["fig8"], fast=True)
        assert (tmp_path / "a" / "fig8.json").read_bytes() == (
            tmp_path / "b" / "fig8.json"
        ).read_bytes()
        doc = json.loads((tmp_path / "a" / "fig8.json").read_text())["data"]
        assert set(doc["sss"]) == {"perm", "apls", "max_apl", "dev_apl"}
        assert sorted(doc["sss"]["perm"]) == list(range(64))

    def test_corrupted_artifact_quarantined_and_rewritten(self, tmp_path):
        write_artifacts(tmp_path, ["fig3"], fast=True)
        path = tmp_path / "fig3.json"
        good = path.read_bytes()
        path.write_bytes(good[:-2] + bytes([good[-2] ^ 0xFF]) + good[-1:])

        write_artifacts(tmp_path, ["fig3"], fast=True)
        assert (tmp_path / "fig3.json.corrupt").exists()  # damaged bytes kept
        assert path.read_bytes() == good
