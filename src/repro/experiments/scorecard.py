"""Reproduction scorecard: every shape claim checked in one run.

EXPERIMENTS.md states, per table/figure, what must hold for the
reproduction to count (who wins, directions of change, magnitudes).  This
module encodes those claims as predicates over the experiment reports and
prints a pass/fail scorecard — the one-command answer to "does this
repository still reproduce the paper?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.experiments.figures import fig3, fig5, fig8, fig9, fig10
from repro.experiments.power import fig11
from repro.experiments.runtime import fig12
from repro.experiments.tables import table1, table3, table4
from repro.utils.text import format_table

from repro.experiments.base import ExperimentReport

__all__ = ["Claim", "CLAIMS", "run_scorecard"]


@dataclass(frozen=True)
class Claim:
    artifact: str
    statement: str
    check: Callable[[dict], bool]


def _claims() -> list[Claim]:
    return [
        Claim(
            "table1", "Global lowers g-APL below the random average",
            lambda d: d["table1"].data["avg"]["g_global"]
            < d["table1"].data["avg"]["g_random"],
        ),
        Claim(
            "table1", "Global raises max-APL above the random average",
            lambda d: d["table1"].data["avg"]["max_global"]
            > d["table1"].data["avg"]["max_random"],
        ),
        Claim(
            "table1", "Global multiplies dev-APL at least 2x",
            lambda d: d["table1"].data["avg"]["dev_global"]
            > 2 * d["table1"].data["avg"]["dev_random"],
        ),
        Claim(
            "table3", "generated rate statistics equal Table 3 (<0.1%)",
            lambda d: all(
                abs(row["cache_mean"] / row["paper_cache_mean"] - 1) < 1e-3
                and abs(row["cache_std"] / row["paper_cache_std"] - 1) < 1e-3
                for key, row in d["table3"].data.items()
            ),
        ),
        Claim(
            "table4", "SSS cuts dev-APL vs Global by > 90%",
            lambda d: d["table4"].data["reductions"]["Global"] > 0.9,
        ),
        Claim(
            "table4", "SSS dev-APL below MC's on nearly every configuration",
            # >= 7 of 8 tolerates stochastic-budget noise in fast runs;
            # full budgets give 8/8.
            lambda d: sum(
                row["SSS"] < row["MC"]
                for key, row in d["table4"].data.items()
                if key != "reductions"
            )
            >= 7,
        ),
        Claim(
            "fig3", "cache latency peaks at corners, memory at centre",
            lambda d: d["fig3"].data["tc"][0, 0] == d["fig3"].data["tc"].max()
            and d["fig3"].data["tm"][0, 0] == 0.0,
        ),
        Claim(
            "fig5", "4x4 example APLs are exactly 10.3375 / 11.5375",
            lambda d: abs(d["fig5"].data["good"].max_apl - 10.3375) < 1e-9
            and abs(d["fig5"].data["bad"].max_apl - 11.5375) < 1e-9,
        ),
        Claim(
            "fig8", "SSS beats Global on C1's worst app and balances APLs",
            lambda d: d["fig8"].data["sss"]["max_apl"] < d["fig8"].data["global"]["max_apl"]
            and d["fig8"].data["sss"]["dev_apl"] < 0.1 * d["fig8"].data["global"]["dev_apl"],
        ),
        Claim(
            "fig9", "max-APL order: Global worst, SSS >= 5% better",
            lambda d: d["fig9"].data["improvements"]["SSS"] > 0.05,
        ),
        Claim(
            "fig9", "SSS at least ties MC and SA",
            lambda d: d["fig9"].data["improvements"]["SSS"]
            >= d["fig9"].data["improvements"]["MC"] - 0.005,
        ),
        Claim(
            "fig10", "SSS g-APL overhead under 8% and smallest of the three",
            lambda d: 0 <= d["fig10"].data["losses"]["SSS"] < 0.08
            and d["fig10"].data["losses"]["SSS"]
            <= d["fig10"].data["losses"]["MC"] + 0.005,
        ),
        Claim(
            "fig11", "SSS power overhead small and best of the three",
            lambda d: d["fig11"].data["overheads"]["SSS"] < 0.06
            and d["fig11"].data["overheads"]["SSS"]
            <= d["fig11"].data["overheads"]["MC"] + 0.005,
        ),
        Claim(
            "fig12", "SA shows diminishing returns and does not beat SSS",
            lambda d: (
                lambda budgets, sa, sss: sa[budgets[-1]] < sa[budgets[0]]
                and sa[budgets[-1]] >= sss * 0.995
            )(
                d["fig12"].data["budgets"],
                d["fig12"].data["sa_max_apl"],
                d["fig12"].data["sss_max_apl"],
            ),
        ),
    ]


CLAIMS = _claims()

_PRODUCERS = {
    "table1": table1,
    "table3": table3,
    "table4": table4,
    "fig3": fig3,
    "fig5": fig5,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
}


def run_scorecard(
    *, fast: bool = False, reports: dict[str, ExperimentReport] | None = None
) -> ExperimentReport:
    """Evaluate every claim over the reports of the artifacts it names.

    ``reports`` holds reports already built at the same ``fast`` (an
    ``all`` run passes its own); any needed artifact missing from it is
    computed here.
    """
    built = reports or {}
    reports = {
        a: built[a] if a in built else _PRODUCERS[a](fast=fast)
        for a in sorted({c.artifact for c in CLAIMS})
    }
    rows = []
    passed = 0
    for claim in CLAIMS:
        ok = bool(claim.check(reports))
        passed += ok
        rows.append([claim.artifact, claim.statement, "PASS" if ok else "FAIL"])
    text = format_table(
        ["artifact", "claim", "status"],
        rows,
        title="reproduction scorecard",
    )
    text += f"\n{passed}/{len(CLAIMS)} claims hold"
    return ExperimentReport(
        "scorecard",
        "shape-claim scorecard",
        text,
        {"passed": passed, "total": len(CLAIMS), "rows": rows},
    )
