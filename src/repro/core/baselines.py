"""Baseline mapping algorithms the paper compares against (Section V.A).

* :func:`global_mapping` — *Global*: minimise the total packet latency of
  all threads.  Because the total is separable per thread, this is a single
  N x N assignment problem which the Hungarian method solves *exactly*;
  Global is therefore the true optimum of the g-APL objective, not a
  heuristic.
* :func:`random_mapping` / :func:`random_average` — uniformly random
  permutations and the averaged metrics over many of them (the "Random"
  column of Table 1).
* :func:`monte_carlo` — *MC*: keep the best (min max-APL) of a large number
  of random mappings.
* :func:`simulated_annealing` — *SA*: Metropolis search whose move swaps
  the tiles of two random threads, with geometric cooling; returns the best
  mapping seen.  Swap moves run in the compiled ``sa_swap`` kernel
  (`repro.core.cc_solvers`) when the solver backend resolves to ``cc``,
  else in the Python loop below; both draw the same stream from the same
  generator and return bit-identical results.  Cluster moves always run
  in Python.

MC and SA accept a pluggable scalar ``objective`` so the ablation
benchmarks can also optimise dev-APL or g-APL and demonstrate the
Section III.A pathology of deviation-style objectives.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable

import numpy as np

from repro.core import cc_solvers, permkernels
from repro.core.hungarian import solve_assignment
from repro.core.metrics import MappingEvaluation
from repro.core.problem import Mapping, OBMInstance
from repro.core.results import MappingResult
from repro.obs import reqtrace
from repro.utils.rng import as_rng

__all__ = [
    "global_mapping",
    "random_mapping",
    "random_average",
    "monte_carlo",
    "simulated_annealing",
    "OBJECTIVES",
]


def _objective_max_apl(ev: MappingEvaluation) -> float:
    return ev.max_apl


def _objective_dev_apl(ev: MappingEvaluation) -> float:
    return ev.dev_apl


def _objective_g_apl(ev: MappingEvaluation) -> float:
    return ev.g_apl


#: Named objective functions for the search-based baselines.
OBJECTIVES: dict[str, Callable[[MappingEvaluation], float]] = {
    "max_apl": _objective_max_apl,
    "dev_apl": _objective_dev_apl,
    "g_apl": _objective_g_apl,
}


def _permutation_batch(
    rng: np.random.Generator, b: int, n: int
) -> np.ndarray:
    """``b`` independent uniform permutations of ``range(n)`` as a (b, n) array.

    One vectorised ``permuted`` call (independent Fisher-Yates per row)
    instead of a Python loop of ``rng.permutation`` — an order of magnitude
    faster at MC batch sizes.  Each row is still exactly uniform; only the
    consumed random stream differs from the old loop.
    """
    return rng.permuted(
        np.broadcast_to(np.arange(n, dtype=np.int64), (b, n)), axis=1
    )


def _resolve_objective(objective) -> Callable[[MappingEvaluation], float]:
    if callable(objective):
        return objective
    try:
        return OBJECTIVES[objective]
    except KeyError:
        raise ValueError(
            f"unknown objective {objective!r}; expected one of {sorted(OBJECTIVES)}"
        ) from None


def global_mapping(instance: OBMInstance) -> MappingResult:
    """Exact minimum-total-latency mapping (the *Global* baseline)."""
    t0 = time.perf_counter()
    assignment = solve_assignment(instance.cost_matrix)
    elapsed = time.perf_counter() - t0
    mapping = Mapping(assignment.col_of_row)
    return MappingResult(
        algorithm="Global",
        mapping=mapping,
        evaluation=instance.evaluate(mapping),
        runtime_seconds=elapsed,
        extra={"total_latency": assignment.total_cost},
    )


def random_mapping(instance: OBMInstance, seed=None) -> MappingResult:
    """A single uniformly random thread-to-tile permutation."""
    rng = as_rng(seed)
    t0 = time.perf_counter()
    mapping = Mapping(rng.permutation(instance.n).astype(np.int64))
    elapsed = time.perf_counter() - t0
    return MappingResult(
        algorithm="Random",
        mapping=mapping,
        evaluation=instance.evaluate(mapping),
        runtime_seconds=elapsed,
    )


def _batched_metrics(
    instance: OBMInstance, perms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised (max-APL, dev-APL, g-APL) for a batch of permutations.

    Thin wrapper over the instance's shared
    :class:`~repro.core.permkernels.PermutationBatchEvaluator`
    (bit-identical to the arithmetic that used to live here).
    """
    return instance.batch_evaluator.metrics(perms)


def random_average(
    instance: OBMInstance, n_samples: int = 10_000, seed=None, batch: int = 1024
) -> dict[str, float]:
    """Average max-APL / dev-APL / g-APL over random mappings (Table 1).

    The paper averages the metrics of >10^4 random mappings to characterise
    the "no mapping policy" operating point.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = as_rng(seed)
    totals = np.zeros(3)
    done = 0
    while done < n_samples:
        b = min(batch, n_samples - done)
        perms = _permutation_batch(rng, b, instance.n)
        max_apls, dev_apls, g_apls = _batched_metrics(instance, perms)
        totals += np.array([max_apls.sum(), dev_apls.sum(), g_apls.sum()])
        done += b
    return {
        "max_apl": totals[0] / n_samples,
        "dev_apl": totals[1] / n_samples,
        "g_apl": totals[2] / n_samples,
        "n_samples": n_samples,
    }


def monte_carlo(
    instance: OBMInstance,
    n_samples: int = 10_000,
    seed=None,
    objective="max_apl",
    batch: int = 1024,
) -> MappingResult:
    """Best-of-``n_samples`` random mappings under ``objective`` (the *MC* baseline)."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    obj = _resolve_objective(objective)
    rng = as_rng(seed)
    t0 = time.perf_counter()
    evaluator = instance.batch_evaluator
    best_perm = None
    best_value = np.inf
    done = 0
    with reqtrace.span("mc", samples=n_samples):
        while done < n_samples:
            b = min(batch, n_samples - done)
            perms = _permutation_batch(rng, b, instance.n)
            if obj in (_objective_max_apl, _objective_dev_apl, _objective_g_apl):
                max_apls, dev_apls, g_apls = evaluator.metrics(perms)
                values = {
                    _objective_max_apl: max_apls,
                    _objective_dev_apl: dev_apls,
                    _objective_g_apl: g_apls,
                }[obj]
            else:
                # Arbitrary callable: batch-computed latency sums feed
                # chunked MappingEvaluation construction (bit-identical
                # to per-permutation evaluate_mapping, minus the
                # per-permutation gather).
                values = evaluator.objective_values(perms, obj)
            # First-minimum tie-break within the batch (np.argmin), strict
            # < across batches: the earliest sampled optimum wins overall.
            idx = int(np.argmin(values))
            if values[idx] < best_value:
                best_value = float(values[idx])
                best_perm = perms[idx].copy()
            done += b
    if reqtrace.is_active():
        reqtrace.count(
            "solver_iterations_total", n_samples,
            "iterations / samples / generations run per solver", solver="mc",
        )
    elapsed = time.perf_counter() - t0
    mapping = Mapping(best_perm)
    return MappingResult(
        algorithm="MC",
        mapping=mapping,
        evaluation=instance.evaluate(mapping),
        runtime_seconds=elapsed,
        extra={"n_samples": n_samples, "objective_value": best_value},
    )


#: Random moves sampled from each start state to set the initial temperature.
_TEMPERATURE_PROBES = 64


class _AnnealState:
    """Incremental objective evaluation for thread-pair swap moves."""

    def __init__(self, instance: OBMInstance, perm: np.ndarray) -> None:
        wl = instance.workload
        self.c = wl.cache_rates
        self.m = wl.mem_rates
        self.tc = instance.tc
        self.tm = instance.tm
        self.app_of_thread = wl.app_of_thread
        self.volumes = np.where(wl.app_volumes > 0, wl.app_volumes, 1.0)
        self.active = wl.active_apps
        self.perm = perm.copy()
        per_thread = self.c * self.tc[self.perm] + self.m * self.tm[self.perm]
        self.numerators = np.add.reduceat(per_thread, wl.boundaries[:-1])

    def _thread_cost(self, j: int, tile: int) -> float:
        return self.c[j] * self.tc[tile] + self.m[j] * self.tm[tile]

    def max_apl(self) -> float:
        return float((self.numerators / self.volumes)[self.active].max())

    def propose_swap(self, a: int, b: int) -> tuple[float, np.ndarray]:
        """Max-APL after swapping threads ``a`` and ``b``, plus app deltas."""
        ta, tb = self.perm[a], self.perm[b]
        deltas = np.zeros_like(self.numerators)
        deltas[self.app_of_thread[a]] += self._thread_cost(a, tb) - self._thread_cost(a, ta)
        deltas[self.app_of_thread[b]] += self._thread_cost(b, ta) - self._thread_cost(b, tb)
        new_apls = (self.numerators + deltas) / self.volumes
        return float(new_apls[self.active].max()), deltas

    def apply_swap(self, a: int, b: int, deltas: np.ndarray) -> None:
        self.perm[a], self.perm[b] = self.perm[b], self.perm[a]
        self.numerators += deltas

    def propose_cluster(
        self, group_a: np.ndarray, group_b: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Max-APL after pairwise-swapping two disjoint thread groups
        (cluster-based SA move, Lu et al. [17])."""
        deltas = np.zeros_like(self.numerators)
        for a, b in zip(group_a, group_b):
            ta, tb = self.perm[a], self.perm[b]
            deltas[self.app_of_thread[a]] += self._thread_cost(a, tb) - self._thread_cost(a, ta)
            deltas[self.app_of_thread[b]] += self._thread_cost(b, ta) - self._thread_cost(b, tb)
        new_apls = (self.numerators + deltas) / self.volumes
        return float(new_apls[self.active].max()), deltas

    def apply_cluster(
        self, group_a: np.ndarray, group_b: np.ndarray, deltas: np.ndarray
    ) -> None:
        for a, b in zip(group_a, group_b):
            self.perm[a], self.perm[b] = self.perm[b], self.perm[a]
        self.numerators += deltas

    def probe_uphill(self, rng: np.random.Generator, current: float, lib=None):
        """Uphill deltas of random swap moves from the current state.

        With the compiled library ``lib`` the moves run in the kernel,
        drawing from ``rng`` exactly as the Python loop does.
        """
        if lib is not None:
            uphill = np.empty(_TEMPERATURE_PROBES)
            n_up, _ = self._cc_sa_swap(
                lib, rng, _TEMPERATURE_PROBES, uphill, 0, 1.0, 1.0,
                current, current, None,
            )
            return uphill[:n_up]
        uphill = []
        for _ in range(_TEMPERATURE_PROBES):
            a, b = rng.integers(len(self.perm), size=2)
            if a == b:
                continue
            value, _ = self.propose_swap(int(a), int(b))
            if value > current:
                uphill.append(value - current)
        return uphill

    def anneal_cc(
        self, lib, rng: np.random.Generator, n_iters: int, temperature: float,
        cooling: float, current: float, best_value: float, best_perm: np.ndarray,
    ) -> tuple[int, float]:
        """The swap-move Metropolis loop of one restart, in the kernel.

        Returns ``(accepted, best_value)``; every new best is copied into
        ``best_perm`` in place.
        """
        return self._cc_sa_swap(
            lib, rng, 0, None, n_iters, temperature, cooling,
            current, best_value, best_perm,
        )

    def _cc_sa_swap(
        self, lib, rng, n_probe, uphill, n_iters, temperature, cooling,
        current, best_value, best_perm,
    ) -> tuple[int, float]:
        io = np.array([current, best_value])
        count = cc_solvers.cc_sa_swap(
            lib, rng, self.perm, self.numerators, self.c, self.m, self.tc,
            self.tm, self.app_of_thread, self.volumes, self.active,
            n_probe, uphill, n_iters, temperature, cooling, io, best_perm,
        )
        return count, float(io[1])


def simulated_annealing(
    instance: OBMInstance,
    n_iters: int = 50_000,
    seed=None,
    initial_temperature: float | None = None,
    final_temperature_fraction: float = 1e-4,
    restarts: int = 1,
    move: str = "swap",
    cluster_size: int = 3,
) -> MappingResult:
    """The *SA* baseline: Metropolis search with random thread-pair swaps.

    The default move set follows the paper ("swapping the mapping of two
    randomly chosen threads"); ``move="cluster"`` instead pairwise-swaps
    two disjoint random groups of ``cluster_size`` threads (the
    cluster-based SA of Lu et al. [17], used as an ablation).  The initial
    temperature defaults to the mean uphill move magnitude sampled from
    the start state, and cools geometrically to
    ``final_temperature_fraction`` of itself over ``n_iters`` iterations.

    Swap moves run in the compiled kernel when
    :func:`~repro.core.permkernels.compiled_library` returns the library;
    the ``reference`` backend, and every cluster-move run, use the Python
    loop.  The kernel draws from the same generator, so results and the
    generator's final state are identical either way.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be positive")
    if restarts < 1:
        raise ValueError("restarts must be positive")
    if move not in ("swap", "cluster"):
        raise ValueError(f"unknown move kind {move!r}; expected 'swap' or 'cluster'")
    if move == "cluster" and not 1 <= cluster_size <= instance.n // 2:
        raise ValueError("cluster_size must be in [1, n_threads/2]")
    if initial_temperature is not None and not initial_temperature > 0:
        raise ValueError("initial_temperature must be positive")
    if not final_temperature_fraction > 0:
        raise ValueError("final_temperature_fraction must be positive")
    rng = as_rng(seed)
    t0 = time.perf_counter()

    lib = permkernels.compiled_library() if move == "swap" else None

    best_perm = None
    best_value = np.inf
    total_accepted = 0
    iters_per_restart = max(1, n_iters // restarts)

    with reqtrace.span("sa", iters=n_iters, restarts=restarts) as sa_span:
        for _ in range(restarts):
            perm = rng.permutation(instance.n).astype(np.int64)
            state = _AnnealState(instance, perm)
            current = state.max_apl()

            if initial_temperature is None:
                # Sample random moves to scale the temperature to typical deltas.
                uphill = state.probe_uphill(rng, current, lib)
                t_start = float(np.mean(uphill)) if len(uphill) else 1.0
                t_start = max(t_start, 1e-9)
            else:
                t_start = initial_temperature
            cooling = final_temperature_fraction ** (1.0 / iters_per_restart)

            temperature = t_start
            if current < best_value:
                best_value = current
                best_perm = state.perm.copy()
            if lib is not None:
                accepted, best_value = state.anneal_cc(
                    lib, rng, iters_per_restart, temperature, cooling,
                    current, best_value, best_perm,
                )
                total_accepted += accepted
                continue
            for _ in range(iters_per_restart):
                if move == "swap":
                    a, b = rng.integers(instance.n, size=2)
                    if a == b:
                        temperature *= cooling
                        continue
                    a, b = int(a), int(b)
                    value, deltas = state.propose_swap(a, b)
                    apply = lambda: state.apply_swap(a, b, deltas)
                else:
                    picks = rng.choice(instance.n, size=2 * cluster_size, replace=False)
                    group_a, group_b = picks[:cluster_size], picks[cluster_size:]
                    value, deltas = state.propose_cluster(group_a, group_b)
                    apply = lambda: state.apply_cluster(group_a, group_b, deltas)
                # math.exp is the C library's exp, the one the kernel
                # calls; NumPy's SIMD exp can differ from it by an ulp.
                accept = value <= current or rng.random() < math.exp(
                    -(value - current) / temperature
                )
                if accept:
                    apply()
                    current = value
                    total_accepted += 1
                    if current < best_value:
                        best_value = current
                        best_perm = state.perm.copy()
                temperature *= cooling
        sa_span.set(accepted=total_accepted)
    if reqtrace.is_active():
        reqtrace.count(
            "solver_iterations_total", restarts * iters_per_restart,
            "iterations / samples / generations run per solver", solver="sa",
        )

    elapsed = time.perf_counter() - t0
    mapping = Mapping(best_perm)
    return MappingResult(
        algorithm="SA",
        mapping=mapping,
        evaluation=instance.evaluate(mapping),
        runtime_seconds=elapsed,
        extra={
            "n_iters": n_iters,
            "restarts": restarts,
            "accepted_moves": total_accepted,
            "objective_value": best_value,
            "move": move,
        },
    )
