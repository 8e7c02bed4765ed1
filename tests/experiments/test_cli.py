"""Tests of the experiments command-line entry point."""

import json
from collections import Counter

import pytest

from repro.experiments import EXPERIMENTS, scorecard
from repro.experiments.__main__ import main
from repro.noc import cc_kernel


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

    def test_profile_counts_the_batched_replays(self, capsys, tmp_path):
        """``measured`` replays both mappings in one batch: on the compiled
        kernel that is one call of each ``noc.*`` phase, and one per
        mapping on the fast path that stands in without it."""
        assert main(["measured", "--fast", "--profile", "--output-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "measured.profile.json").read_text())
        for entry in summary.values():
            assert set(entry) == {"seconds", "calls"}
            assert entry["seconds"] >= 0.0
        calls = {name: e["calls"] for name, e in summary.items()}
        assert calls["experiment.measured"] == 1
        batched = 1 if cc_kernel.library() is not None else 2
        for phase in ("noc.warmup", "noc.measure", "noc.drain"):
            assert calls[phase] == batched
        for phase in ("sss.select", "sss.swap", "sss.polish"):
            assert calls[phase] == 1

    @pytest.mark.parametrize(
        "flag", [["--workers", "2"], ["--progress"]], ids=["workers", "progress"]
    )
    def test_no_process_pool_flags(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["fig9", *flag])
        assert exc.value.code == 2

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])


@pytest.fixture(scope="module")
def profiled_all(tmp_path_factory):
    """One profiled ``all --fast`` run whose scored producers count their calls."""
    calls = Counter()

    def counted(name, produce):
        def run(**kwargs):
            calls[name] += 1
            return produce(**kwargs)

        return run

    target = tmp_path_factory.mktemp("all")
    with pytest.MonkeyPatch.context() as mp:
        for name, produce in scorecard._PRODUCERS.items():
            wrapped = counted(name, produce)
            mp.setitem(scorecard._PRODUCERS, name, wrapped)
            mp.setitem(EXPERIMENTS, name, wrapped)
        argv = ["all", "--fast", "--profile", "--output-dir", str(target)]
        assert main(argv) == 0
    return calls, target


class TestAllComputesThePaperOnce:
    def test_every_scored_artifact_is_computed_once(self, profiled_all):
        calls, _ = profiled_all
        assert calls == {name: 1 for name in scorecard._PRODUCERS}

    def test_scorecard_equals_a_standalone_one(self, profiled_all, tmp_path):
        _, target = profiled_all
        argv = ["scorecard", "--fast", "--profile", "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        assert (target / "scorecard.txt").read_bytes() == (
            tmp_path / "scorecard.txt"
        ).read_bytes()
        # The standalone scorecard solves; inside `all` it only scores.
        spans = {
            name: set(json.loads((d / "scorecard.profile.json").read_text()))
            for name, d in (("all", target), ("alone", tmp_path))
        }
        assert {"sa", "mc", "sss.swap"} <= spans["alone"]
        assert not {"sa", "mc", "sss.swap"} & spans["all"]
