"""Workload synthesis: bursty rate generation calibrated to the paper's Table 3."""

from repro.workloads.parsec import (
    CONFIG_NAMES,
    PARSEC_CONFIGS,
    ConfigSpec,
    measured_table3_row,
    parsec_config,
    parsec_trace_matrices,
)
from repro.workloads.synthetic import (
    BurstProfile,
    RateMatrix,
    RateTargets,
    generate_rate_matrix,
)

__all__ = [
    "BurstProfile",
    "CONFIG_NAMES",
    "ConfigSpec",
    "PARSEC_CONFIGS",
    "RateMatrix",
    "RateTargets",
    "generate_rate_matrix",
    "measured_table3_row",
    "parsec_config",
    "parsec_trace_matrices",
]
