"""Validation of the Sec. 1.1 FIFO assumption: the DAG protocols are
*correct because* the network delivers in order.  These tests deliver
secondary subtransactions out of order by hand and show the checker
catching the resulting anomalies — evidence the assumption is
load-bearing, not decorative."""

from repro.core.timestamps import SiteTuple, VectorTimestamp
from repro.errors import SerializabilityViolation
from repro.harness.serializability import (
    build_serialization_graph,
    find_dsg_cycle,
)
from repro.network.message import Message, MessageType
from repro.testing import ScenarioBuilder
from repro.types import GlobalTransactionId


def test_reordered_secondaries_break_dag_wt():
    """Two writes committed in order T1, T2 at s0; delivering their
    secondaries to s1 in reverse order leaves the replica with T1's
    (older) value on top — a ww inversion the DSG checker flags."""
    scenario = (ScenarioBuilder(n_sites=2, protocol="dag_wt")
                .item("a", primary=0, replicas=[1]))
    env, system, protocol = scenario.build()
    handler = protocol._make_handler(system.site_of(1))
    t1, t2 = GlobalTransactionId(0, 1), GlobalTransactionId(0, 2)

    def drive():
        # Commit T1 then T2 at s0 directly through the engine.
        site0 = system.site_of(0)
        for gid, value in ((t1, "first"), (t2, "second")):
            txn = site0.engine.begin(gid)
            yield from site0.engine.write(txn, "a", value)
            site0.engine.commit(txn)
        # Deliver the secondaries REVERSED (simulating a non-FIFO net).
        handler(Message(MessageType.SECONDARY, 0, 1,
                        {"gid": t2, "writes": {"a": "second"}}))
        yield env.timeout(0.01)
        handler(Message(MessageType.SECONDARY, 0, 1,
                        {"gid": t1, "writes": {"a": "first"}}))

    env.process(drive())
    env.run(until=1.0)
    # Replica ends on the stale value...
    assert system.site_of(1).engine.item("a").value == "first"
    # ... and the global history is non-serializable (ww inversion).
    graph = build_serialization_graph(
        site.engine.history for site in system.sites)
    assert find_dsg_cycle(graph) is not None


def test_fifo_delivery_of_same_messages_is_serializable():
    """Control case: identical traffic in FIFO order is fine."""
    scenario = (ScenarioBuilder(n_sites=2, protocol="dag_wt")
                .item("a", primary=0, replicas=[1]))
    scenario.transaction(0, at=0.0, ops=[("w", "a")])
    scenario.transaction(0, at=0.05, ops=[("w", "a")])
    result = scenario.run(until=1.0)
    assert result.all_committed
    result.check()
    env, system, _protocol = scenario.build()
    assert system.site_of(1).engine.item("a").committed_version == 2


def test_dag_t_rejects_stale_timestamp_delivery_order():
    """DAG(T) is robust where DAG(WT) is not: a smaller-timestamp head
    is executed first even if a larger-timestamp message arrived first
    on another queue (the min-pop rule)."""
    scenario = (ScenarioBuilder(n_sites=3, protocol="dag_t")
                .item("a", primary=0, replicas=[2])
                .item("b", primary=1, replicas=[2]))
    env, system, protocol = scenario.build()
    handler = protocol._make_handler(system.site_of(2))
    t_late = GlobalTransactionId(1, 1)
    t_early = GlobalTransactionId(0, 1)
    ts_early = VectorTimestamp().concat(SiteTuple(protocol.ranks[0], 1))
    ts_late = VectorTimestamp().concat(
        SiteTuple(protocol.ranks[0], 1)).concat(
        SiteTuple(protocol.ranks[1], 1))

    # The later-timestamped message arrives FIRST (other parent's queue).
    handler(Message(MessageType.SECONDARY, 1, 2,
                    {"gid": t_late, "writes": {"b": "late"},
                     "ts": ts_late}))
    handler(Message(MessageType.SECONDARY, 0, 2,
                    {"gid": t_early, "writes": {"a": "early"},
                     "ts": ts_early}))
    env.run(until=1.0)
    history = system.site_of(2).engine.history
    assert [entry.gid for entry in history] == [t_early, t_late]
