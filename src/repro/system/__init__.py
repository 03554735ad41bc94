"""System assembly: the scenario-driven system builder and experiment runner."""

from repro.system.builder import System, build_system
from repro.system.experiment import (
    ExperimentResult,
    RunTimings,
    run_experiment,
    run_experiment_timed,
)
from repro.system.platform import (
    cluster_specs_for,
    table1_settings,
    table2_core_types,
)

__all__ = [
    "ExperimentResult",
    "RunTimings",
    "System",
    "build_system",
    "cluster_specs_for",
    "run_experiment",
    "run_experiment_timed",
    "table1_settings",
    "table2_core_types",
]
