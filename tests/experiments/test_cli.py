"""Tests of the experiments command-line entry point."""

import json

import pytest

from repro.experiments.__main__ import main


class TestExperimentsCLI:
    def test_single_experiment(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "10.3375" in out

    def test_fast_flag(self, capsys):
        assert main(["table2", "--fast"]) == 0
        assert "8x8 mesh" in capsys.readouterr().out

    def test_output_dir(self, capsys, tmp_path):
        target = tmp_path / "artifacts"
        assert main(["fig3", "--output-dir", str(target)]) == 0
        assert (target / "fig3.txt").exists()
        assert (target / "fig3.json").exists()
        assert (target / "INDEX.txt").exists()

    def test_profile_is_independent_of_worker_count(self, capsys, tmp_path):
        calls = {}
        for workers in (1, 2):
            target = tmp_path / f"w{workers}"
            argv = ["measured", "--fast", "--profile", "--output-dir", str(target),
                    "--workers", str(workers)]
            assert main(argv) == 0
            summary = json.loads((target / "measured.profile.json").read_text())
            for entry in summary.values():
                assert set(entry) == {"seconds", "calls"}
                assert entry["seconds"] >= 0.0
            calls[workers] = {name: e["calls"] for name, e in summary.items()}
        assert calls[1] == calls[2]
        assert calls[1]["experiment.measured"] == 1
        assert calls[1]["parallel.cell"] == 2
        for phase in ("noc.warmup", "noc.measure", "noc.drain"):
            assert calls[1][phase] == 2
        for phase in ("sss.select", "sss.swap", "sss.polish"):
            assert calls[1][phase] == 1

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])
