"""Tests of the cycle-measured APL comparison harness."""

import pytest

from repro.experiments.base import run_algorithms, standard_instance
from repro.experiments.measured import measured_apl_comparison
from repro.noc.simulator import NoCSimulator
from repro.noc.traffic import MappedWorkloadTraffic


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
def c1_report():
    return measured_apl_comparison("C1", fast=True, cycles=1_000)


@pytest.mark.parametrize("alg", ["Global", "SSS"])
def test_report_equals_solo_simulator_runs(c1_report, alg):
    """The batched replay gives each mapping's solo ``NoCSimulator`` numbers
    (seed 13, request/reply traffic, busiest thread at 4% injection)."""
    instance = standard_instance("C1")
    result = run_algorithms(
        instance, fast=True, seed_tag="C1", algorithms=("Global", "SSS")
    )[alg]
    wl = instance.workload
    cycles_per_unit = max(1000.0, float((wl.cache_rates + wl.mem_rates).max()) / 0.04)
    assert set(c1_report.data) == {"Global", "SSS"}
    traffic = MappedWorkloadTraffic(
        instance,
        result.mapping,
        cycles_per_unit=cycles_per_unit,
        generate_replies=True,
        seed=13,
    )
    stats = NoCSimulator(instance.mesh, traffic).run(warmup=500, measure=1_000).stats
    data = c1_report.data[alg]
    assert data["measured_by_app"] == stats.apl_by_app()
    assert data["measured_max"] == stats.max_apl()
    assert data["measured_dev"] == stats.dev_apl()
    assert data["measured_percentiles"] == stats.percentiles_by_app()
