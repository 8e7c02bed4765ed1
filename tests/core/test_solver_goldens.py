"""Bit-identity goldens for the mapping solvers across kernel backends.

``goldens/solver_results.json`` was captured from the pre-kernel
implementation (before the PR introducing `repro.core.permkernels`):
every solver result — permutation and all four paper metrics, floats
stored as ``float.hex()`` — on the Table 3 workloads C1..C8.  These
tests replay the exact same budgets through each locally available
kernel backend and require *bit* equality, pinning the refactor's core
contract: the compiled/batched kernels change solver speed, never
solver output.

The ``sa`` / ``sa_restarts`` / ``sa_cluster`` keys were added later,
captured from the interpreted simulated-annealing loop before its swap
moves got a compiled kernel; they additionally pin ``objective_value``
and ``accepted_moves``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import permkernels
from repro.core.baselines import monte_carlo, simulated_annealing
from repro.core.exact import ExactSolverLimits, branch_and_bound
from repro.core.genetic import GAConfig, genetic_algorithm
from repro.core.sss import multi_start_sss, sort_select_swap
from repro.experiments.base import standard_instance, standard_model
from repro.utils.rng import stable_seed

GOLDEN_PATH = Path(__file__).parent / "goldens" / "solver_results.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
CONFIGS = [f"C{i}" for i in range(1, 9)]


def _backends() -> list:
    """The C kernels and the pure-Python reference paths.

    ``cc`` is skipped only where no C compiler exists: with a compiler
    present, a broken build fails the fixture instead of skipping.
    """
    return [
        pytest.param(
            "cc",
            marks=pytest.mark.skipif(
                permkernels.backend_info()["cc_compiler"] is None,
                reason="no C compiler",
            ),
        ),
        "reference",
    ]


def _assert_matches(result, doc) -> None:
    ev = result.evaluation
    assert result.mapping.perm.tolist() == doc["perm"]
    assert float(ev.max_apl).hex() == doc["max_apl"]
    assert float(ev.dev_apl).hex() == doc["dev_apl"]
    assert float(ev.g_apl).hex() == doc["g_apl"]
    assert float(ev.min_max_ratio).hex() == doc["min_max_ratio"]


@pytest.fixture(params=_backends())
def backend(request):
    if request.param == "cc":
        info = permkernels.backend_info()
        assert info["cc"], f"C kernels failed to load: {info['cc_reason']}"
    with permkernels.force_backend(request.param):
        yield request.param


@pytest.mark.parametrize("name", CONFIGS)
def test_sss_matches_golden(name, backend):
    _assert_matches(sort_select_swap(standard_instance(name)), GOLDEN[name]["sss"])


@pytest.mark.parametrize("name", CONFIGS)
def test_monte_carlo_matches_golden(name, backend):
    result = monte_carlo(standard_instance(name), n_samples=2_000, seed=0)
    doc = GOLDEN[name]["mc"]
    _assert_matches(result, doc)
    assert float(result.extra["objective_value"]).hex() == doc["objective_value"]


@pytest.mark.parametrize("name", ["C1", "C4", "C8"])
def test_monte_carlo_dev_objective_matches_golden(name, backend):
    result = monte_carlo(
        standard_instance(name), n_samples=1_000, seed=7, objective="dev_apl"
    )
    _assert_matches(result, GOLDEN[name]["mc_dev"])


@pytest.mark.parametrize("name", CONFIGS)
def test_genetic_algorithm_matches_golden(name, backend):
    result = genetic_algorithm(
        standard_instance(name), GAConfig(population=24, generations=12), seed=0
    )
    _assert_matches(result, GOLDEN[name]["ga"])


#: (config, golden key, simulated_annealing kwargs).  ``sa`` is the
#: `run_algorithms` budget and seed; the rest cover restarts and the
#: cluster move.
SA_CASES = [
    *[(name, "sa", {"n_iters": 3_000, "seed": stable_seed("sa", name)}) for name in CONFIGS],
    *[
        (name, "sa_restarts", {"n_iters": 3_000, "seed": 0, "restarts": 4})
        for name in ("C1", "C4", "C8")
    ],
    ("C1", "sa_cluster", {"n_iters": 2_000, "seed": 0, "move": "cluster"}),
]


@pytest.mark.parametrize(
    "name,key,kwargs", SA_CASES, ids=[f"{key}-{name}" for name, key, _ in SA_CASES]
)
def test_sa_matches_golden(name, key, kwargs, backend):
    result = simulated_annealing(standard_instance(name), **kwargs)
    doc = GOLDEN[name][key]
    _assert_matches(result, doc)
    assert float(result.extra["objective_value"]).hex() == doc["objective_value"]
    assert result.extra["accepted_moves"] == doc["accepted_moves"]


@pytest.mark.parametrize("name", ["C1", "C4", "C8"])
def test_multi_start_matches_golden(name, backend):
    result = multi_start_sss(standard_instance(name), n_starts=4, seed=0)
    _assert_matches(result, GOLDEN[name]["multi_start"])


@pytest.mark.parametrize("name", ["C1", "C4", "C8"])
def test_branch_and_bound_matches_golden(name, backend):
    instance = standard_instance(name, model=standard_model(4))
    result = branch_and_bound(instance, limits=ExactSolverLimits(max_nodes=50_000))
    doc = GOLDEN["exact_4x4"][name]
    _assert_matches(result, doc)
    assert bool(result.extra["proved_optimal"]) == doc["proved_optimal"]
    assert int(result.extra["nodes"]) == doc["nodes"]


def test_reference_backend_matches_golden():
    """The untouched per-window path still reproduces its own goldens."""
    with permkernels.force_backend("reference"):
        _assert_matches(sort_select_swap(standard_instance("C3")), GOLDEN["C3"]["sss"])
        _assert_matches(
            multi_start_sss(standard_instance("C1"), n_starts=4, seed=0),
            GOLDEN["C1"]["multi_start"],
        )
