"""End-to-end tests: every experiment runs and its paper-shape claims hold.

These use the fast budgets; the benchmarks run paper-scale budgets.  Shape
assertions mirror DESIGN.md's per-experiment expectations.
"""

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.base import run_algorithms, standard_instance
from repro.experiments.figures import fig3, fig4, fig5, fig8, fig9, fig10
from repro.experiments.power import analytic_noc_power, fig11
from repro.experiments.runtime import fig12
from repro.experiments.tables import table1, table2, table3, table4


class TestRegistry:
    def test_every_paper_artifact_present(self):
        paper_artifacts = {
            "table1", "table2", "table3", "table4",
            "fig3", "fig4", "fig5", "fig8", "fig9", "fig10", "fig11", "fig12",
        }
        assert paper_artifacts <= set(EXPERIMENTS)
        extras = set(EXPERIMENTS) - paper_artifacts
        assert all(
            e.startswith("sensitivity") or e in ("scorecard", "measured")
            for e in extras
        )

    def test_reports_render(self):
        report = table2()
        assert "8x8 mesh" in report.text
        assert str(report).startswith("== table2")


@pytest.mark.slow
class TestTableShapes:
    def test_table1_global_exacerbates_imbalance(self):
        report = table1(fast=True)
        avg = report.data["avg"]
        assert avg["g_global"] < avg["g_random"]  # Global improves g-APL...
        assert avg["max_global"] > avg["max_random"]  # ...but raises max-APL
        assert avg["dev_global"] > 2 * avg["dev_random"]  # and blows up dev

    def test_table3_matches_paper_exactly(self):
        report = table3()
        for name in ("C1", "C5", "C8"):
            row = report.data[name]
            assert row["cache_mean"] == pytest.approx(row["paper_cache_mean"], rel=1e-6)
            assert row["cache_std"] == pytest.approx(row["paper_cache_std"], rel=1e-6)

    def test_table4_sss_most_balanced(self):
        report = table4(fast=True)
        reductions = report.data["reductions"]
        assert reductions["Global"] > 0.9  # paper: 99.65%
        for name in ("C1", "C4", "C8"):
            row = report.data[name]
            assert row["SSS"] < row["Global"]


class TestFigureShapes:
    def test_fig3_latency_gradients(self):
        report = fig3()
        tc, tm = report.data["tc"], report.data["tm"]
        assert tc[0, 0] > tc[3, 3]  # cache: corners worst
        assert tm[0, 0] < tm[3, 3]  # memory: corners best
        assert tm[0, 0] == 0.0

    def test_fig5_exact_paper_values(self):
        report = fig5()
        good, bad = report.data["good"], report.data["bad"]
        assert good.apls[0] == pytest.approx(10.3375)
        assert bad.apls[0] == pytest.approx(11.5375)
        assert good.dev_apl == pytest.approx(0.0, abs=1e-9)
        assert bad.dev_apl == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.slow
    def test_fig4_lightest_app_squeezed_out(self):
        report = fig4(fast=True)
        apls = report.data["apls"]
        active = apls[~np.isnan(apls)]
        # Under Global the app APLs are visibly imbalanced.
        assert active.max() - active.min() > 1.0

    @pytest.mark.slow
    def test_fig8_sss_balances(self):
        report = fig8(fast=True)
        sss = report.data["sss"]
        glob = report.data["global"]
        assert sss["max_apl"] < glob["max_apl"]
        assert sss["dev_apl"] < 0.2 * glob["dev_apl"]

    @pytest.mark.slow
    def test_fig9_ordering(self):
        report = fig9(fast=True)
        imp = report.data["improvements"]
        assert imp["SSS"] > 0.05  # paper: 10.42%
        assert imp["SSS"] >= imp["MC"] - 0.01

    @pytest.mark.slow
    def test_fig10_small_overhead(self):
        report = fig10(fast=True)
        losses = report.data["losses"]
        assert 0 <= losses["SSS"] < 0.10  # paper: < 3.82%
        assert losses["SSS"] <= losses["MC"] + 0.01


class TestPower:
    def test_analytic_power_positive_and_mapping_dependent(self):
        instance = standard_instance("C1")
        results = run_algorithms(instance, fast=True, seed_tag="C1",
                                 algorithms=("Global", "SSS"))
        p_global = analytic_noc_power(instance, results["Global"].mapping)
        p_sss = analytic_noc_power(instance, results["SSS"].mapping)
        assert p_global.dynamic > 0
        # Global minimises rate-weighted hops, so its power is the lowest.
        assert p_global.dynamic <= p_sss.dynamic * 1.001

    @pytest.mark.slow
    def test_fig11_small_power_overhead(self):
        report = fig11(fast=True)
        overheads = report.data["overheads"]
        assert overheads["SSS"] < 0.10  # paper: < 2.7%

    def test_analytic_power_matches_simulator_roughly(self):
        """Cross-check the analytic activity estimate against the cycle
        simulator on one mapping (requests only, same flit accounting)."""
        from repro.core.problem import Mapping
        from repro.noc.simulator import NoCSimulator
        from repro.noc.traffic import MappedWorkloadTraffic

        instance = standard_instance("C2")
        mapping = Mapping(np.arange(instance.n))
        traffic = MappedWorkloadTraffic(
            instance, mapping, cycles_per_unit=1000, generate_replies=True, seed=0
        )
        sim = NoCSimulator(instance.mesh, traffic)
        res = sim.run(warmup=500, measure=4000)
        analytic = analytic_noc_power(instance, mapping)
        measured = res.power.dynamic
        assert measured == pytest.approx(analytic.dynamic, rel=0.5)


@pytest.mark.slow
class TestRuntime:
    def test_fig12_diminishing_returns(self):
        report = fig12(fast=True)
        sa_max = report.data["sa_max_apl"]
        budgets = report.data["budgets"]
        # More SA iterations never hurt (best-seen is monotone per run;
        # across independent runs allow small noise).
        assert sa_max[budgets[-1]] <= sa_max[budgets[0]] + 0.05
