"""Figure 10: normalized g-APL of the four algorithms."""

from conftest import run_once

from repro.experiments.figures import fig10


def test_fig10(benchmark, report_printer):
    report = run_once(benchmark, fig10)
    report_printer(report)
    losses = report.data["losses"]
    # Paper: all within 6% of Global; SSS best (< 3.82%).
    assert 0 <= losses["SSS"] < 0.08
    assert losses["MC"] < 0.10
    assert losses["SA"] < 0.10
    assert losses["SSS"] <= losses["MC"] + 0.005
