"""Tests for the replica-convergence checker."""

import pytest

from repro.core.base import ReplicatedSystem, SystemConfig
from repro.graph.placement import DataPlacement
from repro.harness.convergence import (
    ConvergenceViolation,
    check_convergence,
    divergent_replicas,
)
from repro.sim.environment import Environment


def build_system():
    placement = DataPlacement(3)
    placement.add_item("a", primary=0, replicas=[1, 2])
    placement.add_item("b", primary=1, replicas=[2])
    env = Environment()
    return ReplicatedSystem(env, placement, SystemConfig())


def test_fresh_system_is_convergent():
    system = build_system()
    assert divergent_replicas(system) == []
    check_convergence(system)  # No raise.


def test_divergence_detected_and_reported():
    system = build_system()
    system.site_of(0).engine.item("a").value = "fresh"
    problems = divergent_replicas(system)
    assert len(problems) == 2  # Both replicas of a disagree.
    items = {problem[0] for problem in problems}
    assert items == {"a"}
    with pytest.raises(ConvergenceViolation) as excinfo:
        check_convergence(system)
    assert "divergent" in str(excinfo.value)


def test_divergence_report_contains_sites_and_versions():
    system = build_system()
    record = system.site_of(2).engine.item("b")
    record.value = "stale"
    record.committed_version = 0
    (item, primary, replica, primary_v, replica_v), = \
        divergent_replicas(system)
    assert (item, primary, replica) == ("b", 1, 2)
    assert (primary_v, replica_v) == (0, 0)


def test_matching_values_with_different_versions_diverge():
    """A replica whose value matches its primary's but whose committed
    version does not missed (or double-applied) an update that happened
    to write the same value: a lost update the value alone hides."""
    system = build_system()
    replica = system.site_of(2).engine.item("a")
    replica.committed_version = 5  # Versions differ, values match.
    assert divergent_replicas(system) == [("a", 0, 2, 0, 5)]
    with pytest.raises(ConvergenceViolation):
        check_convergence(system)
