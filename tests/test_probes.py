"""Tests for the staleness probe."""

import pytest

from repro.harness.probes import StalenessProbe
from repro.testing import ScenarioBuilder


def busy_scenario(protocol="dag_wt"):
    scenario = (ScenarioBuilder(n_sites=3, protocol=protocol)
                .item("a", primary=0, replicas=[1, 2])
                .item("b", primary=1, replicas=[2]))
    for seq in range(1, 9):
        scenario.transaction(0, at=0.01 * seq, ops=[("w", "a")])
    return scenario


def test_staleness_probe_sees_zero_lag_when_quiescent():
    scenario = (ScenarioBuilder(n_sites=2, protocol="dag_wt")
                .item("a", primary=0, replicas=[1]))
    env, system, _protocol = scenario.build()
    probe = StalenessProbe(system, period=0.05)
    probe.start()
    env.run(until=0.5)
    assert probe.mean_version_lag() == 0.0
    assert probe.fraction_current() == 1.0
    assert probe.max_version_lag() == 0


def test_staleness_probe_tracks_propagation_lag():
    """With a slowed s0->s1 channel the replica lags, then catches up."""
    scenario = busy_scenario()
    env, system, _protocol = scenario.build()
    system.network._channel(0, 1)._latency = 0.3
    probe = StalenessProbe(system, period=0.02)
    probe.start()
    result = scenario.run(until=2.0, drain=1.0)
    assert result.all_committed
    assert probe.max_version_lag() > 0          # Lag was observed...
    assert probe.snapshot() == [0] * len(probe.snapshot())  # ...and gone.


def test_psl_replicas_stay_stale():
    """PSL never propagates: staleness grows with every commit."""
    scenario = busy_scenario(protocol="psl")
    env, system, _protocol = scenario.build()
    probe = StalenessProbe(system, period=0.05)
    probe.start()
    result = scenario.run(until=2.0)
    assert result.all_committed
    assert probe.max_version_lag() == 8  # All commits, never applied.
    assert probe.fraction_current() < 1.0
