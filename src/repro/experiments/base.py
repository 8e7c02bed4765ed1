"""Shared experiment infrastructure: standard instances, algorithm sweeps.

Every per-table/figure module builds on the same canonical setup: the
Table 2 chip (8x8 mesh, corner controllers, default latency parameters)
and the Table 3 calibrated workloads C1..C8.  ``fast=True`` shrinks the
search budgets of the stochastic baselines so the test suite can exercise
every experiment end-to-end in seconds; benchmark runs use paper-scale
budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.baselines import (
    global_mapping,
    monte_carlo,
    random_average,
    simulated_annealing,
)
from repro.core.latency import LatencyParams, Mesh, MeshLatencyModel
from repro.core.problem import OBMInstance
from repro.core.results import MappingResult
from repro.core.sss import sort_select_swap
from repro.utils.rng import stable_seed
from repro.workloads.parsec import CONFIG_NAMES, parsec_config

__all__ = [
    "ExperimentReport",
    "standard_model",
    "standard_instance",
    "run_algorithms",
    "ALGORITHM_ORDER",
    "CONFIG_NAMES",
]

#: Paper order of the compared algorithms.
ALGORITHM_ORDER = ("Global", "MC", "SA", "SSS")

#: Search budgets per the paper: MC draws ~10^4 random mappings; SA is
#: "allowed to have similar runtime as SSS" (Section V.B.5).  3k SA
#: iterations matched SSS's wall-clock when both ran in Python.  Measured
#: on a 2-vCPU x86-64 VM (median over C1..C8), 3k iterations now take
#: ~0.56 ms against SSS's ~1.8 ms with the compiled kernels (~0.3x), and
#: ~46 ms against ~14 ms on the NumPy fallback (~3x).  The budget stays
#: because it pins Figure 9 and the benchmark campaign's digest; Figure 12
#: sweeps SA far beyond it.
FULL_BUDGETS = {"mc_samples": 10_000, "sa_iters": 3_000, "random_samples": 10_000}
FAST_BUDGETS = {"mc_samples": 400, "sa_iters": 1_500, "random_samples": 400}


@dataclass
class ExperimentReport:
    """Rendered output plus raw data of one reproduced table/figure.

    ``data`` is written to the ``<id>.json`` artifact, so it must hold
    only deterministic values: no wall-clock times.
    """

    experiment_id: str
    title: str
    text: str
    data: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"== {self.experiment_id}: {self.title} ==\n{self.text}"


def standard_model(
    n: int = 8, params: LatencyParams | None = None
) -> MeshLatencyModel:
    """The canonical latency model: n x n mesh, corner MCs, default timing."""
    return MeshLatencyModel(Mesh.square(n), params or LatencyParams())


def standard_instance(
    config_name: str,
    model: MeshLatencyModel | None = None,
    seed=None,
) -> OBMInstance:
    """OBM instance of one paper configuration on the canonical chip."""
    model = model or standard_model()
    threads_per_app = model.n_tiles // 4
    workload = parsec_config(config_name, threads_per_app=threads_per_app, seed=seed)
    return OBMInstance(model, workload)


def run_algorithms(
    instance: OBMInstance,
    *,
    fast: bool = False,
    seed_tag: str = "",
    algorithms: tuple[str, ...] = ALGORITHM_ORDER,
) -> dict[str, MappingResult]:
    """Run the paper's four mapping algorithms on one instance."""
    budgets = FAST_BUDGETS if fast else FULL_BUDGETS
    runners: dict[str, Callable[[], MappingResult]] = {
        "Global": lambda: global_mapping(instance),
        "MC": lambda: monte_carlo(
            instance,
            n_samples=budgets["mc_samples"],
            seed=stable_seed("mc", seed_tag),
        ),
        "SA": lambda: simulated_annealing(
            instance,
            n_iters=budgets["sa_iters"],
            seed=stable_seed("sa", seed_tag),
        ),
        "SSS": lambda: sort_select_swap(instance),
    }
    out = {}
    for name in algorithms:
        if name not in runners:
            raise ValueError(f"unknown algorithm {name!r}; expected {sorted(runners)}")
        out[name] = runners[name]()
    return out


def random_baseline(instance: OBMInstance, *, fast: bool = False, seed_tag: str = ""):
    """Averaged random-mapping metrics (Table 1's Random column)."""
    budgets = FAST_BUDGETS if fast else FULL_BUDGETS
    return random_average(
        instance,
        n_samples=budgets["random_samples"],
        seed=stable_seed("random", seed_tag),
    )
