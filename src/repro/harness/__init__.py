"""Experiment harness: runners, metrics, sweeps, reporting, and the
global serializability checker."""

from repro.harness.metrics import MetricsCollector
from repro.harness.runner import (
    ExperimentConfig,
    ExperimentResult,
    build_system,
    run_experiment,
)
from repro.harness.serializability import (
    build_serialization_graph,
    check_serializable,
    find_dsg_cycle,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "MetricsCollector",
    "build_serialization_graph",
    "build_system",
    "check_serializable",
    "find_dsg_cycle",
    "run_experiment",
]
