"""Reproduction harnesses for every table and figure in the paper.

Each experiment is a callable returning an
:class:`~repro.experiments.base.ExperimentReport`; the registry maps the
paper's artifact ids to them.  Run from the command line::

    python -m repro.experiments table1
    python -m repro.experiments all --fast

:func:`run_experiments` is the one experiment loop behind both the
printing CLI and :func:`~repro.experiments.artifacts.write_artifacts`.
"""

from contextlib import nullcontext

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
from repro.obs import reqtrace

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


def _scorecard(fast=False, reports=None):
    from repro.experiments.scorecard import run_scorecard

    return run_scorecard(fast=fast, reports=reports)


def _measured(fast=False):
    from repro.experiments.measured import measured_apl_comparison

    return measured_apl_comparison("C1", fast=fast)


EXPERIMENTS["scorecard"] = _scorecard
EXPERIMENTS["measured"] = _measured


def run_experiments(ids, *, fast=False, profile=False):
    """Run the experiments ``ids`` in order, each exactly once.

    Yields ``(id, report, spans)``: ``spans`` is ``None``, or with
    ``profile=True`` the experiment's per-span timings
    (:func:`repro.obs.reqtrace.span_summary`) from its own trace rooted
    at ``experiment.<id>``.  ``scorecard`` scores the reports this loop
    has already built, so ``all`` computes every artifact once; run
    alone, it computes the ones it needs.
    """
    reports = {}
    for experiment_id in ids:
        kwargs = {"reports": reports} if experiment_id == "scorecard" else {}
        timer = (
            reqtrace.profiled(f"experiment.{experiment_id}") if profile else nullcontext()
        )
        with timer as registry:
            report = EXPERIMENTS[experiment_id](fast=fast, **kwargs)
        reports[experiment_id] = report
        yield experiment_id, report, reqtrace.span_summary(registry) if profile else None


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
    "run_experiments",
    "sa_runtime_sweep",
    "seed_sensitivity",
    "standard_instance",
    "standard_model",
    "table1",
    "table2",
    "table3",
    "table4",
]
