"""Deep scenario tests for tree-based propagation: branched trees,
multi-hop relaying, relevance pruning, and the Sec. 4.2 weighted site
order."""

import pytest

from repro.graph.placement import DataPlacement
from repro.harness.convergence import check_convergence
from repro.harness.serializability import check_serializable
from repro.network.message import MessageType
from tests.helpers import (
    histories,
    make_system,
    run_client,
    spec,
)


def branched_placement():
    """s0 feeds two independent branches: (s1, s3) and (s2, s4); the
    greedy tree should branch rather than chain."""
    placement = DataPlacement(5)
    placement.add_item("root", primary=0, replicas=[1, 2, 3, 4])
    placement.add_item("left", primary=1, replicas=[3])
    placement.add_item("right", primary=2, replicas=[4])
    return placement


def test_greedy_tree_branches_and_routes_correctly():
    env, system, proto = make_system(branched_placement(), "dag_wt")
    tree = proto.tree
    # Independent branches: neither branch nests under the other.
    assert not tree.is_ancestor(1, 2) and not tree.is_ancestor(2, 1)
    outcomes = []
    run_client(env, proto, spec(0, 1, ("w", "root")), 0.0, outcomes)
    env.run(until=2.0)
    assert outcomes[0][1] == "committed"
    for site_id in (1, 2, 3, 4):
        assert system.site_of(site_id).engine.item("root") \
            .committed_version == 1
    check_convergence(system)


def test_branch_local_update_does_not_cross_branches():
    """An update to 'left' (replicated only at s3) must never generate
    traffic into the right branch."""
    env, system, proto = make_system(branched_placement(), "dag_wt")
    outcomes = []
    run_client(env, proto, spec(1, 1, ("w", "left")), 0.0, outcomes)
    env.run(until=2.0)
    assert outcomes[0][1] == "committed"
    assert system.site_of(3).engine.item("left").committed_version == 1
    # Exactly one secondary (s1 -> s3); the right branch saw nothing.
    secondary_count = system.network.sent_by_type[MessageType.SECONDARY]
    assert secondary_count == 1
    assert 2 not in proto.tree.subtree(1)


def test_multi_hop_relay_through_five_site_chain():
    """An item replicated only at the chain's far end is relayed through
    every intermediate site."""
    placement = DataPlacement(5)
    # Forcing edges s0->s1->s2->s3->s4 with 'hop' items.
    for index in range(4):
        placement.add_item("hop{}".format(index), primary=index,
                           replicas=[index + 1])
    placement.add_item("far", primary=0, replicas=[4])
    env, system, proto = make_system(placement, "dag_wt",
                                     protocol_options={
                                         "prefer_chain": True})
    outcomes = []
    run_client(env, proto, spec(0, 1, ("w", "far")), 0.0, outcomes)
    env.run(until=2.0)
    assert outcomes[0][1] == "committed"
    assert system.site_of(4).engine.item("far").committed_version == 1
    # The message hopped through s1, s2, s3 (4 SECONDARY sends).
    assert system.network.sent_by_type[MessageType.SECONDARY] == 4
    # Intermediate sites relayed without committing anything.
    for site_id in (1, 2, 3):
        assert len(system.site_of(site_id).engine.history) == 0


def test_greedy_site_order_reduces_backedge_weight():
    """Sec. 4.2: a heavy reverse edge should be kept in the DAG by the
    weighted order, sacrificing the light forward edge instead."""
    placement = DataPlacement(2)
    # Heavy traffic s1 -> s0 (4 items), light s0 -> s1 (1 item).
    for index in range(4):
        placement.add_item("heavy{}".format(index), primary=1,
                           replicas=[0])
    placement.add_item("light", primary=0, replicas=[1])
    env_id, system_id, proto_identity = make_system(
        placement, "backedge")
    env_gr, system_gr, proto_greedy = make_system(
        placement, "backedge", protocol_options={"site_order": "greedy"})
    # Identity order makes the heavy edge a backedge...
    assert proto_identity.backedges == {(1, 0)}
    # ... the weighted greedy order flips it.
    assert proto_greedy.backedges == {(0, 1)}
    assert proto_greedy.site_order == [1, 0]


def test_greedy_order_still_serializable():
    placement = DataPlacement(3)
    for index in range(3):
        placement.add_item("h{}".format(index), primary=2, replicas=[0])
    placement.add_item("a", primary=0, replicas=[1])
    placement.add_item("b", primary=1, replicas=[2])
    env, system, proto = make_system(
        placement, "backedge", protocol_options={"site_order": "greedy"})
    outcomes = []
    run_client(env, proto, spec(2, 1, ("w", "h0")), 0.0, outcomes)
    run_client(env, proto, spec(0, 1, ("w", "a")), 0.05, outcomes)
    run_client(env, proto, spec(1, 1, ("r", "a"), ("w", "b")), 0.2,
               outcomes)
    env.run(until=3.0)
    assert all(status == "committed" for _g, status, _t in outcomes)
    check_serializable(histories(system))
    check_convergence(system)
