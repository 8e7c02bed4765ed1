"""Core of the reproduction: the OBM problem and the mapping algorithms.

This package contains everything in the paper's Sections II.C--IV: the
analytic mesh latency model, the workload/metric formalism, the OBM problem
statement and its NP-completeness reduction, the exact Hungarian solver for
single-application mapping, the sort-select-swap heuristic, and the Global
/ Monte Carlo / simulated-annealing baselines.
"""

from repro.core.baselines import (
    OBJECTIVES,
    global_mapping,
    monte_carlo,
    random_average,
    random_mapping,
    simulated_annealing,
)
from repro.core.bounds import OBMLowerBound, max_apl_lower_bound
from repro.core.exact import ExactSolverLimits, branch_and_bound
from repro.core.genetic import GAConfig, genetic_algorithm
from repro.core.hungarian import AssignmentResult, solve_assignment
from repro.core.latency import LatencyParams, Mesh, MeshLatencyModel, corner_tiles
from repro.core.metrics import (
    MappingEvaluation,
    app_apls,
    dev_apl,
    evaluate_mapping,
    g_apl,
    max_apl,
    min_max_ratio,
)
from repro.core.problem import (
    Mapping,
    OBMInstance,
    obm_from_set_partition,
    set_partition_from_mapping,
)
from repro.core.results import MappingResult
from repro.core.sam import SAMResult, solve_sam
from repro.core.sss import (
    SSSConfig,
    select_only_mapping,
    sort_select_swap,
)
from repro.core.workload import Application, Workload

__all__ = [
    "Application",
    "AssignmentResult",
    "ExactSolverLimits",
    "GAConfig",
    "LatencyParams",
    "Mapping",
    "MappingEvaluation",
    "MappingResult",
    "Mesh",
    "MeshLatencyModel",
    "OBJECTIVES",
    "OBMInstance",
    "OBMLowerBound",
    "SAMResult",
    "SSSConfig",
    "Workload",
    "app_apls",
    "branch_and_bound",
    "corner_tiles",
    "dev_apl",
    "evaluate_mapping",
    "g_apl",
    "genetic_algorithm",
    "global_mapping",
    "max_apl",
    "max_apl_lower_bound",
    "min_max_ratio",
    "monte_carlo",
    "obm_from_set_partition",
    "random_average",
    "random_mapping",
    "select_only_mapping",
    "set_partition_from_mapping",
    "simulated_annealing",
    "solve_assignment",
    "solve_sam",
    "sort_select_swap",
]
