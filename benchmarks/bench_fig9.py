"""Figure 9: max-APL of the four algorithms across C1-C8."""

from conftest import run_once

from repro.experiments.figures import fig9


def test_fig9(benchmark, report_printer):
    report = run_once(benchmark, fig9)
    report_printer(report)
    imp = report.data["improvements"]
    # Paper: MC 8.74%, SA 9.44%, SSS 10.42% below Global.
    assert imp["SSS"] > 0.05
    assert imp["SA"] > 0.04
    assert imp["MC"] > 0.03
    # SSS leads (ties within noise allowed).
    assert imp["SSS"] >= imp["MC"] - 0.005
    for name, row in report.data.items():
        if name == "improvements":
            continue
        assert row["SSS"] < row["Global"]
