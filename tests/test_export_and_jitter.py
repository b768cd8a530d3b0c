"""Tests for the network-jitter parameter."""

import pytest

from repro.errors import ConfigurationError
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.workload.params import WorkloadParams

TINY = WorkloadParams(n_sites=3, n_items=30, transactions_per_thread=6,
                      threads_per_site=2)


def test_jitter_validation():
    with pytest.raises(ConfigurationError):
        WorkloadParams(network_jitter=1.5).validate()
    WorkloadParams(network_jitter=0.5).validate()


def test_jitter_runs_remain_serializable_and_deterministic():
    params = TINY.replaced(network_jitter=0.9,
                           replication_probability=0.5)
    first = run_experiment(
        ExperimentConfig(protocol="backedge", params=params, seed=2))
    second = run_experiment(
        ExperimentConfig(protocol="backedge", params=params, seed=2))
    assert first.serializable is True
    assert first.duration == second.duration  # Seeded jitter.
    assert first.total_messages == second.total_messages


def test_jitter_changes_timing_vs_constant_latency():
    # PSL's remote reads sit on the critical path, so jittered latency
    # must shift the run's timing.
    base = TINY.replaced(replication_probability=0.5,
                         network_latency=0.005)
    constant = run_experiment(
        ExperimentConfig(protocol="psl", params=base, seed=2))
    jittered = run_experiment(
        ExperimentConfig(protocol="psl",
                         params=base.replaced(network_jitter=0.9),
                         seed=2))
    assert constant.duration != jittered.duration
