"""Integration tests for the BackEdge-over-DAG(T) extension (the TR
extension referenced in Sec. 4)."""

import pytest

from repro.errors import GraphError
from repro.graph.placement import DataPlacement
from repro.harness.convergence import check_convergence
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.harness.serializability import check_serializable
from repro.network.message import MessageType
from repro.workload.params import WorkloadParams
from tests.helpers import (
    histories,
    make_system,
    no_locks_leaked,
    run_client,
    spec,
)


def cyclic_placement():
    placement = DataPlacement(2)
    placement.add_item("a", primary=0, replicas=[1])
    placement.add_item("b", primary=1, replicas=[0])
    return placement


def test_reduces_to_dag_t_on_acyclic_graphs():
    placement = DataPlacement(3)
    placement.add_item("a", primary=0, replicas=[1, 2])
    placement.add_item("b", primary=1, replicas=[2])
    env, system, proto = make_system(placement, "backedge_t")
    assert proto.backedges == set()
    outcomes = []
    run_client(env, proto, spec(0, 1, ("w", "a")), 0.0, outcomes)
    env.run(until=1.0)
    assert outcomes[0][1] == "committed"
    sent = system.network.sent_by_type
    assert sent[MessageType.BACKEDGE] == 0
    assert sent[MessageType.SECONDARY] == 2  # direct, one hop each
    check_convergence(system)


def test_backedge_update_propagates_eagerly_and_converges():
    env, system, proto = make_system(cyclic_placement(), "backedge_t")
    assert len(proto.backedges) == 1
    outcomes = []
    run_client(env, proto, spec(0, 1, ("w", "a")), 0.0, outcomes)
    run_client(env, proto, spec(1, 1, ("w", "b")), 0.3, outcomes)
    env.run(until=3.0)
    assert [status for _g, status, _t in outcomes] == ["committed"] * 2
    sent = system.network.sent_by_type
    assert sent[MessageType.BACKEDGE] == 1
    assert sent[MessageType.DECISION] == 1
    check_convergence(system)
    check_serializable(histories(system))
    assert no_locks_leaked(system)


@pytest.mark.parametrize("seed", range(4))
def test_example_41_resolved(seed):
    env, system, proto = make_system(cyclic_placement(), "backedge_t",
                                     lock_timeout=0.02)
    outcomes = []
    run_client(env, proto, spec(0, 1, ("r", "b"), ("w", "a")),
               0.0005 * seed, outcomes)
    run_client(env, proto, spec(1, 1, ("r", "a"), ("w", "b")), 0.0,
               outcomes)
    env.run(until=3.0)
    statuses = [status for _g, status, _t in outcomes]
    assert len(statuses) == 2
    assert statuses != ["committed", "committed"]
    check_serializable(histories(system))
    assert no_locks_leaked(system)


@pytest.mark.parametrize("seed", range(6))
def test_contended_workload_serializable(seed):
    params = WorkloadParams(
        n_sites=4, n_items=24, threads_per_site=3,
        transactions_per_thread=15, replication_probability=0.6,
        site_probability=0.7, backedge_probability=0.5,
        read_op_probability=0.5, read_txn_probability=0.3,
        deadlock_timeout=0.02)
    config = ExperimentConfig(protocol="backedge_t", params=params,
                              seed=seed, drain_time=2.0)
    result = run_experiment(config)
    assert result.serializable is True
    assert result.committed > 0


def test_minimal_backedges_guarantee_ancestor_paths():
    """The constructor repairs the order-based backedge set to a minimal
    one, so each target has a DAG path back to the origin."""
    placement = DataPlacement(3)
    placement.add_item("a", primary=0, replicas=[1, 2])
    placement.add_item("b", primary=1, replicas=[0, 2])
    placement.add_item("c", primary=2, replicas=[0, 1])
    env, system, proto = make_system(placement, "backedge_t")
    dag = proto.graph
    for src, dst in proto.backedges:
        assert dst in dag.ancestors(src)


def test_rejects_unreachable_replica_site():
    placement = DataPlacement(3)
    placement.add_item("a", primary=0, replicas=[1, 2])
    env, system, proto = make_system(placement, "backedge_t")
    # Remove the direct edge behind the protocol's back and ask for
    # targets: the invariant check must fire.
    proto.graph = proto.graph.without_edges([(0, 2)])
    with pytest.raises(GraphError):
        proto._backedge_targets(0, {"a": 1})


def test_timestamp_oracle_sees_the_same_adoptions_as_dag_t():
    """On a DAG, BackEdge-T is DAG(T): its site timestamps advance
    through the same committed secondaries *and dummies*, and the
    timestamp oracle must be told about every one of them."""
    from repro.explorer import PerturbationPlan, ScenarioSpec, run_schedule
    from repro.explorer.oracles import TimestampMonotonicityOracle

    scenario = ScenarioSpec(
        protocol="dag_t", n_sites=3,
        items=((0, 0, (1, 2)), (1, 1, (2,))),
        transactions=((0, 1, 0.0, (("w", 0),)),
                      (1, 1, 0.1, (("r", 0), ("w", 1))),
                      (0, 2, 0.2, (("w", 0),))))
    plan = PerturbationPlan(seed=0, latency_scale=0.0,
                            schedule_noise=False)
    adopted = {}
    for protocol in ("dag_t", "backedge_t"):
        oracle = TimestampMonotonicityOracle()
        outcome = run_schedule(scenario.with_protocol(protocol), plan,
                               oracles=[oracle])
        assert not outcome.failures
        adopted[protocol] = oracle._adopted
    dummies = [entry for entries in adopted["dag_t"].values()
               for entry in entries if entry[1] is None]
    assert dummies
    assert adopted["backedge_t"] == adopted["dag_t"]
