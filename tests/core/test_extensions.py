"""Tests of the GA and cluster-SA baselines."""

import numpy as np
import pytest

from repro.core.baselines import simulated_annealing
from repro.core.genetic import GAConfig, genetic_algorithm, _pmx
from repro.core.sss import sort_select_swap
from repro.utils.rng import as_rng


class TestGeneticAlgorithm:
    def test_pmx_produces_permutation(self):
        rng = as_rng(0)
        for _ in range(50):
            a = rng.permutation(12)
            b = rng.permutation(12)
            child = _pmx(a, b, rng)
            assert sorted(child.tolist()) == list(range(12))

    def test_ga_valid_and_deterministic(self, small_instance):
        cfg = GAConfig(population=16, generations=10)
        r1 = genetic_algorithm(small_instance, cfg, seed=4)
        r2 = genetic_algorithm(small_instance, cfg, seed=4)
        assert sorted(r1.mapping.perm.tolist()) == list(range(small_instance.n))
        assert np.array_equal(r1.mapping.perm, r2.mapping.perm)

    def test_ga_improves_over_generations(self, small_instance):
        short = genetic_algorithm(small_instance, GAConfig(population=24, generations=3), seed=1)
        long = genetic_algorithm(small_instance, GAConfig(population=24, generations=60), seed=1)
        assert long.max_apl <= short.max_apl + 1e-9

    def test_ga_loses_to_sss(self, c1_instance):
        """The paper's Section IV claim, made testable: evolutionary search
        at comparable budget does not beat SSS."""
        ga = genetic_algorithm(c1_instance, GAConfig(population=48, generations=40), seed=2)
        sss = sort_select_swap(c1_instance)
        assert sss.max_apl <= ga.max_apl + 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GAConfig(population=1)
        with pytest.raises(ValueError):
            GAConfig(tournament=100)
        with pytest.raises(ValueError):
            GAConfig(crossover_rate=2.0)
        with pytest.raises(ValueError):
            GAConfig(elite=64, population=64)


class TestClusterSA:
    def test_cluster_move_valid(self, small_instance):
        r = simulated_annealing(small_instance, n_iters=500, seed=0, move="cluster")
        assert sorted(r.mapping.perm.tolist()) == list(range(small_instance.n))
        assert r.extra["move"] == "cluster"

    def test_cluster_evaluation_consistent(self, small_instance):
        from repro.core.metrics import evaluate_mapping

        r = simulated_annealing(small_instance, n_iters=800, seed=3, move="cluster")
        fresh = evaluate_mapping(
            small_instance.workload, r.mapping.perm,
            small_instance.tc, small_instance.tm,
        )
        assert r.max_apl == pytest.approx(fresh.max_apl)

    def test_invalid_move_kind(self, small_instance):
        with pytest.raises(ValueError):
            simulated_annealing(small_instance, n_iters=10, move="teleport")

    def test_invalid_cluster_size(self, small_instance):
        with pytest.raises(ValueError):
            simulated_annealing(
                small_instance, n_iters=10, move="cluster", cluster_size=100
            )
