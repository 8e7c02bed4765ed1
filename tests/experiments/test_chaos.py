"""Chaos drills: kill/wedge workers mid-campaign, corrupt artifacts, resume.

The acceptance bar for the crash-safety layer is byte-identity: a fig9
campaign that is SIGKILLed (or deliberately stopped) partway through and
then re-launched must produce artifacts byte-for-byte identical to an
uninterrupted run's.  These tests stage exactly those crashes using the
marker-file helpers in :mod:`tests.experiments.chaos` (monkeypatches do
not reach pool workers; marker files do).
"""

from __future__ import annotations

import pytest

from repro.experiments.artifacts import write_artifacts
from repro.experiments.parallel import CellFailure, parallel_map
from repro.experiments.resilience import RunInterrupted, RunLedger, config_fingerprint
from repro.workloads.parsec import CONFIG_NAMES

# Plain import: pytest prepends this directory to sys.path (no package
# __init__.py here), and pool workers resolve the module the same way.
from chaos import arm_kill, arm_wedge, chaos_sweep_cell, flip_tail_byte, wedge_sweep_cell

pytestmark = pytest.mark.slow


def _fig9_ledger(output_dir):
    return RunLedger(
        output_dir / ".ledger" / "fig9.jsonl",
        experiment="fig9",
        fingerprint=config_fingerprint("fig9", fast=True),
    )


def _artifact_bytes(directory, name="fig9"):
    return (
        (directory / f"{name}.txt").read_bytes(),
        (directory / f"{name}.json").read_bytes(),
    )


class TestSigkillResume:
    def test_killed_worker_then_resume_is_byte_identical(self, tmp_path):
        out_resumed = tmp_path / "resumed"
        out_clean = tmp_path / "clean"
        chaos_dir = tmp_path / "chaos"
        cells = [(name, True, str(chaos_dir)) for name in CONFIG_NAMES]

        # Run 1: the C3 worker is SIGKILLed mid-campaign.  With no
        # retries the campaign dies (CellFailure after the broken pool is
        # replaced) — but every cell that finished first was journaled.
        arm_kill(chaos_dir, "C3")
        out_resumed.mkdir()
        with _fig9_ledger(out_resumed) as ledger:
            with pytest.raises(CellFailure):
                parallel_map(
                    chaos_sweep_cell,
                    cells,
                    workers=2,
                    timeout=120,
                    retries=0,
                    backoff=0,
                    ledger=ledger,
                    cell_keys=CONFIG_NAMES,
                )
        with _fig9_ledger(out_resumed) as ledger:
            survivors = len(ledger)
        assert 0 < survivors < len(CONFIG_NAMES)  # killed cell never journaled

        # Run 2: relaunch through the real artifact writer, which opens
        # the same ledger (same experiment + fingerprint) and resumes.
        write_artifacts(out_resumed, ["fig9"], fast=True, workers=2)

        # Reference: an uninterrupted, never-journaled run.
        write_artifacts(out_clean, ["fig9"], fast=True, resume=False)
        assert _artifact_bytes(out_resumed) == _artifact_bytes(out_clean)

    def test_wedged_worker_journals_survivors(self, tmp_path):
        chaos_dir = tmp_path / "chaos"
        cells = [(name, True, str(chaos_dir)) for name in CONFIG_NAMES[:4]]
        arm_wedge(chaos_dir, "C2")
        with RunLedger(
            tmp_path / "l.jsonl", experiment="fig9", fingerprint="t" * 16
        ) as ledger:
            out = parallel_map(
                wedge_sweep_cell,
                cells,
                workers=2,
                timeout=15,
                retries=0,
                backoff=0,
                on_failure="none",
                ledger=ledger,
                cell_keys=CONFIG_NAMES[:4],
            )
            assert out[1] is None  # the wedged cell timed out
            done = [k for k in CONFIG_NAMES[:4] if k in ledger]
        assert "C2" not in done
        assert len(done) == 3  # every survivor was journaled


class TestDeliberateInterrupt:
    def test_max_cells_partial_then_resume_byte_identical(self, tmp_path):
        out = tmp_path / "partial"
        out_clean = tmp_path / "clean"

        with pytest.raises(RunInterrupted):
            write_artifacts(out, ["fig9"], fast=True, max_cells=3)
        with _fig9_ledger(out) as ledger:
            assert len(ledger) == 3
        assert not (out / "fig9.json").exists()  # no artifact from a partial run

        write_artifacts(out, ["fig9"], fast=True)
        run_doc = (out / "fig9.run.json").read_text()
        assert '"cells_resumed": 3' in run_doc
        assert '"cells_computed": 5' in run_doc

        write_artifacts(out_clean, ["fig9"], fast=True, resume=False)
        assert _artifact_bytes(out) == _artifact_bytes(out_clean)

    def test_no_resume_discards_journal(self, tmp_path):
        out = tmp_path / "a"
        with pytest.raises(RunInterrupted):
            write_artifacts(out, ["fig9"], fast=True, max_cells=2)
        assert (out / ".ledger" / "fig9.jsonl").exists()
        write_artifacts(out, ["fig9"], fast=True, resume=False)
        assert not (out / ".ledger" / "fig9.jsonl").exists()


class TestArtifactCorruption:
    def test_corrupted_artifact_quarantined_and_recomputed(self, tmp_path):
        out = tmp_path / "art"
        write_artifacts(out, ["fig3"], fast=True)  # fig3: cheap, no fan-out
        good = (out / "fig3.json").read_bytes()
        flip_tail_byte(out / "fig3.json")

        write_artifacts(out, ["fig3"], fast=True)
        assert (out / "fig3.json.corrupt").exists()  # damaged bytes kept for autopsy
        assert (out / "fig3.json").read_bytes() == good  # recomputed, identical

    def test_stale_ledger_of_other_config_quarantined(self, tmp_path):
        out = tmp_path / "art"
        with pytest.raises(RunInterrupted):
            write_artifacts(out, ["fig9"], fast=True, max_cells=1)
        # Same directory, different knobs: the fingerprint changes, so
        # the stale journal must be quarantined, not resumed from.
        with RunLedger(
            out / ".ledger" / "fig9.jsonl",
            experiment="fig9",
            fingerprint=config_fingerprint("fig9", fast=False),
        ) as ledger:
            assert len(ledger) == 0
            assert ledger.recovered_from is not None
