"""Reproduction harnesses for every table and figure in the paper.

Each experiment is a callable returning an
:class:`~repro.experiments.base.ExperimentReport`; the registry maps the
paper's artifact ids to them.  Run from the command line::

    python -m repro.experiments table1
    python -m repro.experiments all --fast
"""

from repro.experiments.base import (
    ALGORITHM_ORDER,
    ExperimentReport,
    run_algorithms,
    standard_instance,
    standard_model,
)
from repro.experiments.figures import fig3, fig4, fig5, fig8, fig9, fig10
from repro.experiments.power import analytic_noc_power, fig11
from repro.experiments.runtime import fig12, sa_runtime_sweep
from repro.experiments.sensitivity import latency_param_sensitivity, seed_sensitivity
from repro.experiments.tables import table1, table2, table3, table4

#: The full registry: the paper's artifacts in paper order, then the
#: beyond-the-paper robustness studies.
EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "sensitivity-seeds": lambda fast=False: seed_sensitivity(
        n_seeds=2 if fast else 5
    ),
    "sensitivity-params": lambda fast=False: latency_param_sensitivity(),
}


def _scorecard(fast=False):
    from repro.experiments.scorecard import run_scorecard

    return run_scorecard(fast=fast)


def _measured(fast=False, workers=1, ledger=None, max_cells=None):
    from repro.experiments.measured import measured_apl_comparison

    return measured_apl_comparison(
        "C1", fast=fast, workers=workers, ledger=ledger, max_cells=max_cells
    )


EXPERIMENTS["scorecard"] = _scorecard
EXPERIMENTS["measured"] = _measured

__all__ = [
    "ALGORITHM_ORDER",
    "EXPERIMENTS",
    "ExperimentReport",
    "analytic_noc_power",
    "fig3",
    "fig4",
    "fig5",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "latency_param_sensitivity",
    "run_algorithms",
    "sa_runtime_sweep",
    "seed_sensitivity",
    "standard_instance",
    "standard_model",
    "table1",
    "table2",
    "table3",
    "table4",
]
