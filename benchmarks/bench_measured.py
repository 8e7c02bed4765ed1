"""Cycle-measured APL comparison (the paper's Garnet-based methodology).

The paper measures its APLs in simulation; so does this bench: the four
algorithms' C1 mappings are replayed through the cycle-level NoC with
request/reply traffic and the measured per-application APLs compared.
"""

from conftest import run_once

from repro.experiments.measured import measured_apl_comparison


def test_measured_apls(benchmark, report_printer):
    report = run_once(
        benchmark,
        measured_apl_comparison,
        "C1",
        algorithms=("Global", "SSS"),
        cycles=20_000,
    )
    report_printer(report)
    glob, sss = report.data["Global"], report.data["SSS"]
    # The paper's Figure 8(b), measured: SSS lowers the worst app's APL
    # and compresses the spread by an order of magnitude.
    assert sss["measured_max"] < glob["measured_max"]
    assert sss["measured_dev"] < 0.3 * glob["measured_dev"]
    improvement = 1 - sss["measured_max"] / glob["measured_max"]
    print(f"\nmeasured worst-app improvement: {improvement:.2%} (paper: 10.89%)")
    assert improvement > 0.05
