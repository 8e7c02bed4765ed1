"""Benchmarks of the baselines beyond the paper: the genetic algorithm and
cluster-move simulated annealing."""

from conftest import run_once

from repro.core.baselines import simulated_annealing
from repro.core.genetic import GAConfig, genetic_algorithm
from repro.core.sss import sort_select_swap
from repro.experiments.base import standard_instance
from repro.utils.text import format_table


def test_evolutionary_baselines(benchmark):
    """Section IV's claim at paper scale: GA and cluster-SA at comparable
    budgets do not beat SSS."""

    def run():
        rows = []
        for name in ("C1", "C4", "C7"):
            instance = standard_instance(name)
            sss = sort_select_swap(instance)
            ga = genetic_algorithm(
                instance, GAConfig(population=64, generations=60), seed=0
            )
            sa_cluster = simulated_annealing(
                instance, n_iters=3_000, seed=0, move="cluster"
            )
            rows.append(
                [name, sss.max_apl, ga.max_apl, sa_cluster.max_apl,
                 sss.runtime_seconds * 1e3, ga.runtime_seconds * 1e3]
            )
        return rows

    rows = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["config", "SSS", "GA", "cluster-SA", "SSS ms", "GA ms"],
            rows,
            title="extension baselines (max-APL)",
        )
    )
    for row in rows:
        assert row[1] <= row[2] + 1e-9  # SSS <= GA
        assert row[1] <= row[3] + 1e-9  # SSS <= cluster-SA
