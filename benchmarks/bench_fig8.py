"""Figure 8: SSS mapping of C1 and per-application APL comparison."""

from conftest import run_once

from repro.experiments.figures import fig8


def test_fig8(benchmark, report_printer):
    report = run_once(benchmark, fig8)
    report_printer(report)
    sss = report.data["sss"]
    glob = report.data["global"]
    # SSS lowers the worst app's APL (paper: 25.15 -> 22.40, 10.89%).
    assert sss["max_apl"] < glob["max_apl"]
    # And the four APLs become nearly equal.
    assert sss["dev_apl"] < 0.1 * glob["dev_apl"]
