"""Tests of the Global / Random / Monte Carlo / SA baselines."""

import itertools

import numpy as np
import pytest

from repro.core.baselines import (
    OBJECTIVES,
    global_mapping,
    monte_carlo,
    random_average,
    random_mapping,
    simulated_annealing,
)
from repro.core.latency import Mesh, MeshLatencyModel
from repro.core.metrics import evaluate_mapping
from repro.core.problem import Mapping, OBMInstance
from repro.core.workload import Application, Workload


def tiny_instance(seed: int = 0) -> OBMInstance:
    """2x2 mesh, 2 apps x 2 threads — small enough to brute force."""
    rng = np.random.default_rng(seed)
    model = MeshLatencyModel(Mesh.square(2))
    apps = (
        Application("a", rng.uniform(0.5, 2, 2), rng.uniform(0, 0.5, 2)),
        Application("b", rng.uniform(2, 5, 2), rng.uniform(0, 0.5, 2)),
    )
    return OBMInstance(model, Workload(apps))


def brute_force(instance, key):
    best = None
    for perm in itertools.permutations(range(instance.n)):
        ev = instance.evaluate(Mapping(np.array(perm)))
        value = key(ev)
        if best is None or value < best:
            best = value
    return best


class TestGlobal:
    def test_global_is_exact_g_apl_optimum(self):
        for seed in range(5):
            inst = tiny_instance(seed)
            result = global_mapping(inst)
            assert result.g_apl == pytest.approx(
                brute_force(inst, lambda ev: ev.g_apl)
            )

    def test_global_no_worse_than_everyone_on_g_apl(self, c1_instance):
        glob = global_mapping(c1_instance)
        for other in (
            random_mapping(c1_instance, seed=0),
            monte_carlo(c1_instance, n_samples=200, seed=0),
            simulated_annealing(c1_instance, n_iters=500, seed=0),
        ):
            assert glob.g_apl <= other.g_apl + 1e-9

    def test_result_fields(self, small_instance):
        r = global_mapping(small_instance)
        assert r.algorithm == "Global"
        assert r.runtime_seconds >= 0
        assert "total_latency" in r.extra


class TestRandom:
    def test_random_mapping_seeded(self, small_instance):
        a = random_mapping(small_instance, seed=7)
        b = random_mapping(small_instance, seed=7)
        assert np.array_equal(a.mapping.perm, b.mapping.perm)

    def test_random_average_fields(self, small_instance):
        avg = random_average(small_instance, n_samples=500, seed=1)
        assert avg["max_apl"] >= avg["g_apl"] - 1e-9
        assert avg["dev_apl"] >= 0
        assert avg["n_samples"] == 500

    def test_random_average_matches_manual(self, small_instance):
        """Batched vectorised metrics must equal per-mapping evaluation."""
        inst = small_instance
        avg = random_average(inst, n_samples=64, seed=3, batch=16)
        # Replay the generator's permutation batches and evaluate each
        # mapping individually through the reference evaluator.
        rng = np.random.default_rng(3)
        maxs, devs, gs = [], [], []
        for _ in range(4):
            perms = rng.permuted(
                np.broadcast_to(np.arange(inst.n, dtype=np.int64), (16, inst.n)),
                axis=1,
            )
            for perm in perms:
                ev = inst.evaluate(Mapping(perm))
                maxs.append(ev.max_apl)
                devs.append(ev.dev_apl)
                gs.append(ev.g_apl)
        assert avg["max_apl"] == pytest.approx(np.mean(maxs))
        assert avg["dev_apl"] == pytest.approx(np.mean(devs))
        assert avg["g_apl"] == pytest.approx(np.mean(gs))

    def test_invalid_sample_count(self, small_instance):
        with pytest.raises(ValueError):
            random_average(small_instance, n_samples=0)


class TestMonteCarlo:
    def test_mc_improves_with_samples(self, small_instance):
        few = monte_carlo(small_instance, n_samples=10, seed=5)
        many = monte_carlo(small_instance, n_samples=2000, seed=5)
        assert many.max_apl <= few.max_apl + 1e-9

    def test_mc_best_matches_reported(self, small_instance):
        r = monte_carlo(small_instance, n_samples=100, seed=2)
        assert r.extra["objective_value"] == pytest.approx(r.max_apl)

    def test_mc_seeded_deterministic(self, small_instance):
        a = monte_carlo(small_instance, n_samples=100, seed=9)
        b = monte_carlo(small_instance, n_samples=100, seed=9)
        assert np.array_equal(a.mapping.perm, b.mapping.perm)

    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    def test_named_objectives(self, objective, small_instance):
        r = monte_carlo(small_instance, n_samples=100, seed=1, objective=objective)
        ev = small_instance.evaluate(r.mapping)
        assert r.extra["objective_value"] == pytest.approx(
            OBJECTIVES[objective](ev)
        )

    def test_callable_objective(self, small_instance):
        r = monte_carlo(
            small_instance,
            n_samples=64,
            seed=1,
            objective=lambda ev: ev.max_apl + ev.dev_apl,
        )
        assert sorted(r.mapping.perm.tolist()) == list(range(small_instance.n))

    def test_unknown_objective_rejected(self, small_instance):
        with pytest.raises(ValueError):
            monte_carlo(small_instance, n_samples=10, objective="latency")

    def test_dev_objective_exhibits_figure5_pathology(self, figure5_instance):
        """Optimising dev-APL can 'balance' at a bad level (Section III.A):
        its g-APL should be no better than the max-APL optimiser's."""
        dev = monte_carlo(figure5_instance, n_samples=3000, seed=4, objective="dev_apl")
        mx = monte_carlo(figure5_instance, n_samples=3000, seed=4, objective="max_apl")
        assert dev.dev_apl <= mx.dev_apl + 1e-9
        assert dev.g_apl >= mx.g_apl - 1e-9


class TestSimulatedAnnealing:
    def test_sa_valid_permutation(self, small_instance):
        r = simulated_annealing(small_instance, n_iters=500, seed=0)
        assert sorted(r.mapping.perm.tolist()) == list(range(small_instance.n))

    def test_sa_seeded_deterministic(self, small_instance):
        a = simulated_annealing(small_instance, n_iters=300, seed=11)
        b = simulated_annealing(small_instance, n_iters=300, seed=11)
        assert np.array_equal(a.mapping.perm, b.mapping.perm)

    def test_sa_beats_single_random(self, c1_instance):
        sa = simulated_annealing(c1_instance, n_iters=3000, seed=0)
        rnd = random_mapping(c1_instance, seed=0)
        assert sa.max_apl < rnd.evaluation.max_apl

    def test_sa_reports_best_seen(self, small_instance):
        r = simulated_annealing(small_instance, n_iters=500, seed=3)
        assert r.extra["objective_value"] == pytest.approx(r.max_apl)
        assert r.extra["accepted_moves"] >= 0

    def test_sa_restarts(self, small_instance):
        r = simulated_annealing(small_instance, n_iters=400, seed=1, restarts=4)
        assert r.extra["restarts"] == 4
        assert sorted(r.mapping.perm.tolist()) == list(range(small_instance.n))

    def test_sa_explicit_temperature(self, small_instance):
        r = simulated_annealing(
            small_instance, n_iters=300, seed=1, initial_temperature=1.0
        )
        assert sorted(r.mapping.perm.tolist()) == list(range(small_instance.n))

    def test_invalid_parameters(self, small_instance):
        with pytest.raises(ValueError):
            simulated_annealing(small_instance, n_iters=0)
        with pytest.raises(ValueError):
            simulated_annealing(small_instance, n_iters=10, restarts=0)
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                simulated_annealing(small_instance, n_iters=10, initial_temperature=bad)
            with pytest.raises(ValueError):
                simulated_annealing(
                    small_instance, n_iters=10, final_temperature_fraction=bad
                )

    def test_sa_incremental_state_consistency(self, small_instance):
        """The final reported evaluation must match re-evaluating the
        returned mapping from scratch (guards the incremental deltas)."""
        r = simulated_annealing(small_instance, n_iters=2000, seed=7)
        fresh = evaluate_mapping(
            small_instance.workload,
            r.mapping.perm,
            small_instance.tc,
            small_instance.tm,
        )
        assert r.max_apl == pytest.approx(fresh.max_apl)
