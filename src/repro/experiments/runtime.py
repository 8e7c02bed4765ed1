"""Figure 12: simulated-annealing quality as a function of runtime.

SA is given budgets spanning ~0.1x to ~100x of SSS's own runtime (both
on the compiled solver kernels; see ``FULL_ITER_BUDGETS``); its
best-found max-APL (averaged over the eight configurations and normalised
to SSS's) is reported per budget.  Expected shape: SA improves with
runtime but with diminishing returns, and does not beat SSS by more than
0.5% even at the largest budget.
"""

from __future__ import annotations

import numpy as np

from repro.core.baselines import simulated_annealing
from repro.core.sss import sort_select_swap
from repro.experiments.base import (
    CONFIG_NAMES,
    ExperimentReport,
    standard_instance,
)
from repro.utils.rng import stable_seed
from repro.utils.text import format_table

__all__ = ["fig12", "sa_runtime_sweep"]

#: SA iteration budgets for the sweep; calibrated so the smallest runs far
#: faster than SSS and the largest ~100x slower (the log-x axis of Fig. 12).
#: Measured with the compiled kernels on a 2-vCPU x86-64 VM (SSS ~2-2.5 ms
#: per configuration, SA ~62 ns per iteration plus ~0.2 ms per call):
#: about 0.1-0.2x, 0.3x, 2x, 15x and 100-125x of SSS.  Without a C
#: compiler SA runs ~15 us per iteration, so the full sweep takes minutes.
FULL_ITER_BUDGETS = (1_000, 8_000, 64_000, 512_000, 4_096_000)
FAST_ITER_BUDGETS = (100, 400, 1_600)


def sa_runtime_sweep(
    config_names=CONFIG_NAMES, iter_budgets=FULL_ITER_BUDGETS
) -> dict:
    """Run SSS once and SA at each budget, per configuration."""
    sss_times, sss_max = [], []
    sa_times = {b: [] for b in iter_budgets}
    sa_max = {b: [] for b in iter_budgets}
    for name in config_names:
        instance = standard_instance(name)
        sss = sort_select_swap(instance)
        sss_times.append(sss.runtime_seconds)
        sss_max.append(sss.max_apl)
        for budget in iter_budgets:
            sa = simulated_annealing(
                instance, n_iters=budget, seed=stable_seed("fig12", name, budget)
            )
            sa_times[budget].append(sa.runtime_seconds)
            sa_max[budget].append(sa.max_apl)
    return {
        "sss_runtime": float(np.mean(sss_times)),
        "sss_max_apl": float(np.mean(sss_max)),
        "budgets": list(iter_budgets),
        "sa_runtime": {b: float(np.mean(sa_times[b])) for b in iter_budgets},
        "sa_max_apl": {b: float(np.mean(sa_max[b])) for b in iter_budgets},
    }


def fig12(*, fast: bool = False) -> ExperimentReport:
    budgets = FAST_ITER_BUDGETS if fast else FULL_ITER_BUDGETS
    configs = CONFIG_NAMES[:2] if fast else CONFIG_NAMES
    sweep = sa_runtime_sweep(configs, budgets)
    rows = []
    for b in budgets:
        ratio = sweep["sa_runtime"][b] / max(sweep["sss_runtime"], 1e-9)
        norm = sweep["sa_max_apl"][b] / sweep["sss_max_apl"]
        rows.append([b, ratio, norm])
    text = format_table(
        ["SA iterations", "runtime / SSS runtime", "max-APL / SSS max-APL"],
        rows,
        title="Figure 12: SA quality vs runtime (normalized to SSS)",
        float_fmt="{:.3f}",
    )
    final_norm = rows[-1][2]
    text += (
        f"\nat the largest budget SA reaches {final_norm:.4f}x SSS max-APL "
        "(paper: SSS still ahead at 100x runtime)"
    )
    return ExperimentReport("fig12", "SA runtime/quality trade-off", text, sweep)
