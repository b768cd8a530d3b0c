"""Chaos under reconfiguration: fault injection while epoch transitions
are in flight.

The flagship scenario SIGKILLs a member in the middle of its epoch
transition: the replica-*gaining* member, or the primary of the item
it gains, whose fence must survive the restart.  The controller's
reconfig driver must abort cleanly (an unreachable member aborts the
transition everywhere), retry once the member restarts, and land the
transition — and the verdict must be green: converged against the
*final* placement, DSG acyclic, and every surviving member in the same
epoch (the controller files an ``epoch-divergence`` violation
otherwise).
"""

import pytest

from repro.chaos.controller import ChaosScenario, run_chaos
from repro.chaos.plan import FaultPlan, KillFault
from repro.cluster.spec import ClusterSpec
from repro.workload.params import WorkloadParams
from tests.helpers import free_base_port


def _scenario(killed=4, at=0.15, kill_at=0.2, down_for=0.8):
    params = WorkloadParams(n_sites=6, n_items=18,
                            placement_scheme="sharded-hash",
                            replication_factor=2,
                            threads_per_site=1,
                            transactions_per_thread=10,
                            read_txn_probability=0.2,
                            deadlock_timeout=0.05)
    return ChaosScenario(
        spec=ClusterSpec(params=params, protocol="dag_wt", seed=3,
                         base_port=free_base_port(params.n_sites)),
        plan=FaultPlan(seed=11, events=(
            KillFault(site=killed, at=kill_at, down_for=down_for),)),
        reconfig=({"at": at,
                   "change": {"kind": "add-replica", "site": 4,
                              "item": 1}},),
        name="kill-mid-transition")


def test_scenario_json_round_trip_keeps_reconfig(tmp_path):
    scenario = _scenario()
    path = str(tmp_path / "scenario.json")
    scenario.save(path)
    loaded = ChaosScenario.load(path)
    assert loaded.reconfig == scenario.reconfig
    assert loaded.spec.params.placement_scheme == "sharded-hash"
    assert loaded.name == scenario.name


def test_scenario_rejects_bad_reconfig_entries():
    base = _scenario()
    with pytest.raises(ValueError):
        ChaosScenario(spec=base.spec, plan=base.plan,
                      reconfig=({"at": -1.0,
                                 "change": {"kind": "add-replica",
                                            "site": 4,
                                            "item": 1}},)).validate()
    with pytest.raises(Exception):
        ChaosScenario(spec=base.spec, plan=base.plan,
                      reconfig=({"at": 0.1,
                                 "change": {"kind": "shuffle",
                                            "site": 4}},)).validate()


@pytest.mark.parametrize("killed", [4, 1])
def test_kill_of_gaining_member_mid_transition_recovers(tmp_path, killed):
    """The epoch-recovery invariant, live: the transition that loses a
    member — the gaining s4, or s1, the primary of the gained item —
    aborts, is retried after the restart, and the run ends converged in
    an agreed epoch > 0 with green oracles."""
    scenario = _scenario(killed)
    report = run_chaos(scenario, str(tmp_path), quiesce_timeout=30.0)
    assert report.ok, report.violations
    assert report.final_epoch == 1
    assert len(report.reconfigs) == 1
    assert report.reconfigs[0]["epoch"] == 1
    # The kill window overlapped the transition, so the driver needed
    # at least one attempt; a retry proves the abort path fired.
    assert report.reconfigs[0]["attempts"] >= 1
    assert report.committed > 0
    # The verdict was judged against the final (epoch 1) placement —
    # the gained replica is part of the convergence check.
    assert not any("epoch-divergence" in violation
                   for violation in report.violations)
