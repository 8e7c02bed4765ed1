"""Tests of the cycle-measured APL comparison harness."""

import pytest

from repro.experiments.measured import measured_apl_comparison
from repro.experiments.resilience import RunLedger


@pytest.mark.slow
class TestMeasuredComparison:
    @pytest.fixture(scope="class")
    def report(self):
        return measured_apl_comparison("C1", fast=True, cycles=4_000)

    def test_ordering_survives_measurement(self, report):
        """SSS must beat Global on *measured* max-APL and dev-APL too."""
        glob = report.data["Global"]
        sss = report.data["SSS"]
        assert sss["measured_max"] < glob["measured_max"]
        assert sss["measured_dev"] < glob["measured_dev"]

    def test_measured_tracks_analytic(self, report):
        """Measured values exceed analytic by a bounded convention offset
        (destination pipeline + reply serialization), not arbitrarily."""
        for alg in ("Global", "SSS"):
            d = report.data[alg]
            offset = d["measured_max"] - d["analytic_max"]
            assert 0 < offset < 8

    def test_per_app_measurements_present(self, report):
        assert len(report.data["SSS"]["measured_by_app"]) == 4
        assert "measured APL" in report.text


@pytest.mark.parametrize("workers", [1, 2])
def test_ledger_journals_every_replay(tmp_path, workers):
    """Every replay is journaled at any worker count; a re-run recomputes none."""

    def run():
        ledger = RunLedger(tmp_path / "measured.jsonl", experiment="measured", fingerprint="t")
        try:
            return measured_apl_comparison(
                "C1", fast=True, cycles=1_000, workers=workers, ledger=ledger
            )
        finally:
            ledger.close()

    first, second = run(), run()
    assert first.run_report.cells_computed == 2
    assert (second.run_report.cells_resumed, second.run_report.cells_computed) == (2, 0)
    assert second.text == first.text
