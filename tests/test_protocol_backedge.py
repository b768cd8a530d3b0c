"""Integration tests for the BackEdge protocol (paper Sec. 4), including
the Example 4.1 global-deadlock scenario."""

import pytest

from repro.errors import GraphError
from repro.graph.placement import DataPlacement
from repro.harness.convergence import check_convergence
from repro.harness.serializability import check_serializable
from repro.network.message import MessageType
from tests.helpers import (
    histories,
    make_system,
    no_locks_leaked,
    run_client,
    spec,
)


def example_41_placement():
    """Paper Example 4.1: s0 holds primary a + replica of b; s1 holds
    primary b + replica of a.  The copy graph is the 2-cycle."""
    placement = DataPlacement(2)
    placement.add_item("a", primary=0, replicas=[1])
    placement.add_item("b", primary=1, replicas=[0])
    return placement


def test_example_41_global_deadlock_resolved():
    """T1 at s0 reads b, writes a; T2 at s1 reads a, writes b —
    concurrently.  Lazy propagation alone could never serialize both
    (Example 4.1); BackEdge must abort at least one and stay
    serializable."""
    env, system, proto = make_system(
        example_41_placement(), "backedge", lock_timeout=0.02)
    outcomes = []
    run_client(env, proto, spec(0, 1, ("r", "b"), ("w", "a")), 0.0,
               outcomes)
    run_client(env, proto, spec(1, 1, ("r", "a"), ("w", "b")), 0.0,
               outcomes)
    env.run(until=3.0)
    statuses = [status for _gid, status, _t in outcomes]
    assert len(statuses) == 2
    assert "committed" in statuses          # At least one wins.
    assert statuses != ["committed", "committed"]  # Not both.
    check_serializable(histories(system))
    assert no_locks_leaked(system)


def test_cyclic_graph_sequential_transactions_propagate_both_ways():
    """Without concurrency, updates flow across backedges eagerly and
    across DAG edges lazily — both replicas converge."""
    env, system, proto = make_system(example_41_placement(), "backedge")
    outcomes = []
    run_client(env, proto, spec(0, 1, ("w", "a")), 0.0, outcomes)
    run_client(env, proto, spec(1, 1, ("w", "b")), 0.2, outcomes)
    env.run(until=2.0)
    assert [status for _g, status, _t in outcomes] == ["committed"] * 2
    check_convergence(system)
    check_serializable(histories(system))
    # T2's update to b crossed a backedge: BACKEDGE + SPECIAL + 2PC.
    sent = system.network.sent_by_type
    assert sent[MessageType.BACKEDGE] == 1
    assert sent[MessageType.SPECIAL] >= 1
    assert sent[MessageType.PREPARE] == 1
    assert sent[MessageType.DECISION] == 1
    # T1's update to a went down the chain lazily.
    assert sent[MessageType.SECONDARY] == 1


def test_reduces_to_dag_wt_on_acyclic_graphs():
    """Sec. 4.1: with no backedges the protocol is DAG(WT) — same
    messages, no 2PC traffic."""
    placement = DataPlacement(3)
    placement.add_item("a", primary=0, replicas=[1, 2])
    placement.add_item("b", primary=1, replicas=[2])
    env, system, proto = make_system(placement, "backedge")
    assert proto.backedges == set()
    outcomes = []
    run_client(env, proto, spec(0, 1, ("w", "a")), 0.0, outcomes)
    env.run(until=1.0)
    sent = system.network.sent_by_type
    assert sent[MessageType.BACKEDGE] == 0
    assert sent[MessageType.PREPARE] == 0
    assert sent[MessageType.SECONDARY] >= 1
    check_convergence(system)


def test_backedge_updates_apply_at_all_target_sites():
    """A transaction whose item is replicated both before and after its
    origin: ancestors get the eager path, descendants the lazy one."""
    placement = DataPlacement(3)
    placement.add_item("mid", primary=1, replicas=[0, 2])
    placement.add_item("x", primary=0, replicas=[1])  # s0 -> s1 edge.
    env, system, proto = make_system(placement, "backedge")
    outcomes = []
    run_client(env, proto, spec(1, 1, ("w", "mid")), 0.0, outcomes)
    env.run(until=2.0)
    assert outcomes[0][1] == "committed"
    for site_id in (0, 1, 2):
        assert system.site_of(site_id).engine.item("mid") \
            .committed_version == 1
    check_convergence(system)
    check_serializable(histories(system))


def test_farthest_ancestor_receives_backedge_directly():
    """With two backedge targets, S1 goes to the farthest ancestor; the
    nearer target is reached by the special on its way back."""
    placement = DataPlacement(3)
    placement.add_item("c", primary=2, replicas=[0, 1])
    placement.add_item("x", primary=0, replicas=[1])
    placement.add_item("y", primary=1, replicas=[2])
    env, system, proto = make_system(placement, "backedge")
    outcomes = []
    run_client(env, proto, spec(2, 1, ("w", "c")), 0.0, outcomes)
    env.run(until=2.0)
    assert outcomes[0][1] == "committed"
    sent = system.network.sent_by_type
    assert sent[MessageType.BACKEDGE] == 1       # direct to s0 only
    assert sent[MessageType.PREPARE] == 2        # both targets in 2PC
    for site_id in (0, 1):
        assert system.site_of(site_id).engine.item("c") \
            .committed_version == 1
    check_convergence(system)


def test_tree_variant_works_on_cyclic_graph():
    placement = example_41_placement()
    env, system, proto = make_system(
        placement, "backedge", protocol_options={"variant": "tree"})
    assert len(proto.backedges) == 1
    outcomes = []
    run_client(env, proto, spec(0, 1, ("w", "a")), 0.0, outcomes)
    run_client(env, proto, spec(1, 1, ("w", "b")), 0.3, outcomes)
    env.run(until=2.0)
    assert [status for _g, status, _t in outcomes] == ["committed"] * 2
    check_convergence(system)
    check_serializable(histories(system))


def test_unknown_variant_rejected():
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        make_system(example_41_placement(), "backedge",
                    protocol_options={"variant": "bogus"})


def test_aborted_origin_tears_down_participants():
    """If the origin is wounded while awaiting its special, the backedge
    subtransactions must be rolled back and all locks freed."""
    placement = example_41_placement()
    env, system, proto = make_system(placement, "backedge",
                                     lock_timeout=0.02)
    outcomes = []
    # Two writers at s1 race a conflicting writer at s0: one global
    # deadlock is guaranteed through a/b conflicts.
    run_client(env, proto, spec(0, 1, ("r", "b"), ("w", "a")), 0.0,
               outcomes)
    run_client(env, proto, spec(1, 1, ("r", "a"), ("w", "b")), 0.0,
               outcomes)
    run_client(env, proto, spec(1, 2, ("w", "b")), 0.005, outcomes)
    env.run(until=3.0)
    assert len(outcomes) == 3
    check_serializable(histories(system))
    assert no_locks_leaked(system)
    for site in system.sites:
        assert not site.engine.active_transactions


def test_backedge_site_order_must_cover_graph():
    """A replica site neither ancestor nor descendant in the tree is a
    configuration error (cannot happen with chain trees)."""
    placement = DataPlacement(3)
    placement.add_item("a", primary=0, replicas=[1, 2])
    env, system, proto = make_system(placement, "backedge")
    # Chain trees make everything comparable; force a bad tree manually.
    from repro.graph.tree import PropagationTree
    proto.tree = PropagationTree({0: None, 1: 0, 2: 0})
    with pytest.raises(GraphError):
        proto._backedge_targets(1, {"a": 1})
