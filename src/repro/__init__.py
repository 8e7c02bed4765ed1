"""repro — reproduction of "Balancing On-Chip Network Latency in
Multi-Application Mapping for Chip-Multiprocessors" (Zhu et al., IPDPS 2014).

Top-level re-exports cover the everyday API:

>>> from repro import Mesh, MeshLatencyModel, OBMInstance, sort_select_swap
>>> from repro.workloads import parsec_config
>>> instance = OBMInstance(MeshLatencyModel(Mesh.square(8)), parsec_config("C1"))
>>> result = sort_select_swap(instance)
>>> result.evaluation.max_apl  # doctest: +SKIP

Subpackages
-----------
``repro.core``
    Latency model, OBM problem, sort-select-swap and baselines.
``repro.noc``
    Cycle-level wormhole mesh NoC simulator (the Garnet substitute).
``repro.cmp``
    CMP memory-system substrate: caches, address hashing, controllers.
``repro.workloads``
    Synthetic PARSEC-calibrated workload generation (C1..C8).
``repro.experiments``
    Reproduction harnesses for every table and figure in the paper.
"""

from repro.core import (
    Application,
    GAConfig,
    LatencyParams,
    Mapping,
    MappingEvaluation,
    MappingResult,
    Mesh,
    MeshLatencyModel,
    OBMInstance,
    OBMLowerBound,
    SSSConfig,
    Workload,
    branch_and_bound,
    evaluate_mapping,
    genetic_algorithm,
    global_mapping,
    max_apl_lower_bound,
    monte_carlo,
    random_average,
    random_mapping,
    select_only_mapping,
    simulated_annealing,
    solve_assignment,
    solve_sam,
    sort_select_swap,
)

__version__ = "1.0.0"

__all__ = [
    "Application",
    "GAConfig",
    "LatencyParams",
    "Mapping",
    "MappingEvaluation",
    "MappingResult",
    "Mesh",
    "MeshLatencyModel",
    "OBMInstance",
    "OBMLowerBound",
    "SSSConfig",
    "Workload",
    "__version__",
    "branch_and_bound",
    "evaluate_mapping",
    "genetic_algorithm",
    "global_mapping",
    "max_apl_lower_bound",
    "monte_carlo",
    "random_average",
    "random_mapping",
    "select_only_mapping",
    "simulated_annealing",
    "solve_assignment",
    "solve_sam",
    "sort_select_swap",
]
