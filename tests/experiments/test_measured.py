"""Tests of the cycle-measured APL comparison harness."""

import pytest

from repro.experiments.measured import measured_apl_comparison


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


@pytest.fixture(scope="module")
def serial_c1():
    return measured_apl_comparison("C1", fast=True, cycles=1_000, workers=1)


@pytest.mark.parametrize("workers", [1, 2])
def test_workers_do_not_change_the_report(serial_c1, workers):
    """A re-run at any worker count replays both mappings and gives the
    serial run's numbers and text."""
    report = measured_apl_comparison("C1", fast=True, cycles=1_000, workers=workers)
    assert set(report.data) == {"Global", "SSS"}
    assert report.data == serial_c1.data
    assert report.text == serial_c1.text
