"""The transport seam: protocols talk to the fabric only through
``send``/``set_handler``, so the simulated Network and the live TCP
transport are interchangeable behind :class:`ReplicatedSystem`.

Covers the three seam properties the live runtime depends on:

- injecting an explicit transport (and a subset of hosted sites)
  changes nothing about a protocol's behaviour;
- the live transport honours the Network counter contract and its
  receiver-side dedup;
- the live channel delivers FIFO with acknowledged, gap-free resend
  across connection loss — the property replica serializability rests
  on.
"""

import asyncio

from repro.cluster.codec import read_frame, write_frame
from repro.cluster.transport import LiveTransport
from repro.core.base import ReplicatedSystem, SystemConfig, make_protocol
from repro.graph.placement import DataPlacement
from repro.harness.convergence import divergent_replicas
from repro.network.message import Message, MessageType
from repro.network.network import Network
from repro.sim.environment import Environment
from repro.types import (
    GlobalTransactionId,
    Operation,
    OpType,
    TransactionSpec,
)

import pytest


def tiny_placement():
    placement = DataPlacement(3)
    placement.add_item(0, primary=0, replicas=[1, 2])
    placement.add_item(1, primary=1, replicas=[2])
    placement.add_item(2, primary=2)
    return placement


def txn(site, seq, *ops):
    operations = tuple(
        Operation(OpType.READ if kind == "r" else OpType.WRITE, item)
        for kind, item in ops)
    return TransactionSpec(GlobalTransactionId(site, seq), site,
                           operations)


def seqs(frames):
    """The channel sequence numbers a list of wire frames carries."""
    return [entry["seq"] for frame in frames for entry in frame["msgs"]]


def run_workload(system):
    protocol = system.protocol

    def submit(spec):
        holder = []

        def body():
            yield from protocol.run_transaction(spec.origin, spec,
                                                holder[0])

        holder.append(system.env.process(body()))

    submit(txn(0, 1, ("w", 0)))
    submit(txn(1, 1, ("w", 1)))
    submit(txn(2, 1, ("r", 0), ("w", 2)))
    system.env.run()


def test_explicit_network_transport_is_identical_to_default():
    placement = tiny_placement()

    def build(explicit):
        env = Environment()
        config = SystemConfig()
        transport = (Network(env, placement.n_sites,
                             latency=config.network_latency)
                     if explicit else None)
        system = ReplicatedSystem(env, placement, config,
                                  transport=transport)
        system.use_protocol(make_protocol("dag_wt", system))
        run_workload(system)
        return system

    default, injected = build(False), build(True)
    assert divergent_replicas(default) == []
    assert divergent_replicas(injected) == []
    for site_id in range(3):
        engine_a = default.site_of(site_id).engine
        engine_b = injected.site_of(site_id).engine
        for item in engine_a.item_ids():
            assert engine_a.item(item).value == \
                engine_b.item(item).value
            assert engine_a.item(item).writers == \
                engine_b.item(item).writers
    assert default.network.total_sent == injected.network.total_sent


def test_partial_hosting_only_touches_local_sites():
    placement = tiny_placement()
    env = Environment()
    network = Network(env, placement.n_sites)
    system = ReplicatedSystem(env, placement, SystemConfig(),
                              transport=network, local_sites=[1])
    system.use_protocol(make_protocol("dag_wt", system))
    assert [site.site_id for site in system.local_sites] == [1]
    assert system.site_of(1).engine.has_item(1)
    with pytest.raises(Exception):
        system.site_of(0)
    # Only the hosted site registered a message handler.
    assert sorted(network._handlers) == [1]


def test_live_transport_counters_and_dedup():
    async def scenario():
        transport = LiveTransport(0, {0: ("127.0.0.1", 1),
                                      1: ("127.0.0.1", 2)})
        delivered = []
        transport.set_handler(0, delivered.append)

        message = Message(MessageType.SECONDARY, 1, 0,
                          {"gid": GlobalTransactionId(1, 1),
                           "writes": {0: 5}})
        assert transport.accept(1, "inc-a", 1, message)
        assert not transport.accept(1, "inc-a", 1, message)  # resend
        assert not transport.fresh(1, "inc-a", 1)
        assert transport.fresh(1, "inc-a", 2)
        assert transport.fresh(1, "inc-b", 1)  # new incarnation
        assert len(delivered) == 1

        # Journal replay preloads the dedup table through accept.
        assert transport.accept(1, "inc-c", 7, message)
        assert not transport.fresh(1, "inc-c", 3)
        assert transport.fresh(1, "inc-c", 8)
        assert len(delivered) == 2

        # Counter contract parity with the simulated Network.
        with pytest.raises(ValueError):
            transport.send(MessageType.WOUND, 0, 0)
        with pytest.raises(ValueError):
            transport.send(MessageType.WOUND, 0, 99)
        transport.send(MessageType.WOUND, 0, 1,
                       gid=GlobalTransactionId(0, 1), reason="x")
        assert transport.total_sent == 1
        assert transport.sent_by_type[MessageType.WOUND] == 1
        assert transport.pending_out == 1  # nothing listening yet
        await transport.close()

    asyncio.run(scenario())


def test_batching_preserves_the_network_counter_contract():
    """``total_sent``/``sent_by_type`` count *messages* (the simulated
    Network's units), never wire frames — batching must not leak into
    the metrics the harness compares against the simulator."""

    async def scenario():
        frames = []

        async def on_connect(reader, writer):
            await read_frame(reader)                      # hello
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    return
                frames.append(frame)

        server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        transport = LiveTransport(0, {0: ("127.0.0.1", port - 1),
                                      1: ("127.0.0.1", port)},
                                  max_batch=16)
        for seq in range(1, 25):
            transport.send(MessageType.SECONDARY, 0, 1,
                           gid=GlobalTransactionId(0, seq),
                           writes={0: seq})
        deadline = asyncio.get_event_loop().time() + 5.0
        while sum(len(frame["msgs"]) for frame in frames) < 24:
            assert asyncio.get_event_loop().time() < deadline
            await asyncio.sleep(0.01)

        assert transport.total_sent == 24                 # messages
        assert transport.sent_by_type[MessageType.SECONDARY] == 24
        assert transport.pending_out == 24                # none acked
        assert transport.frames_sent == len(frames) < 24  # amortized
        await transport.close()
        server.close()
        await server.wait_closed()

    asyncio.run(scenario())


def test_live_channel_fifo_with_ack_and_resend_after_reconnect():
    """Kill the receiving end mid-stream without acking everything: on
    reconnect the channel must resend the unacked tail, in order, with
    the same sequence numbers (the receiver dedups, never re-orders)."""

    async def scenario():
        connections = []
        accepting = asyncio.Event()

        async def on_connect(reader, writer):
            record = {"frames": [], "writer": writer}
            connections.append(record)
            accepting.set()
            hello = await read_frame(reader)
            assert hello["kind"] == "hello" and hello["role"] == "peer"
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    return
                record["frames"].append(frame)

        server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        transport = LiveTransport(0, {0: ("127.0.0.1", port - 1),
                                      1: ("127.0.0.1", port)})
        for seq in range(1, 11):
            transport.send(MessageType.SECONDARY, 0, 1,
                           gid=GlobalTransactionId(0, seq),
                           writes={0: seq})

        async def wait_until(predicate, timeout=5.0):
            deadline = asyncio.get_event_loop().time() + timeout
            while not predicate():
                assert asyncio.get_event_loop().time() < deadline
                await asyncio.sleep(0.01)

        await wait_until(lambda: connections and
                         len(connections[0]["frames"]) == 10)
        first = connections[0]["frames"]
        assert seqs(first) == list(range(1, 11))
        assert all(frame["kind"] == "batch" for frame in first)
        assert transport.pending_out == 10  # written, none acked

        # Ack the first three, then cut the connection.
        await write_frame(connections[0]["writer"], {"kind": "ack",
                                                     "seq": 3})
        await wait_until(lambda: transport.pending_out == 7)
        connections[0]["writer"].transport.abort()

        # The channel reconnects and resends exactly the unacked tail.
        await wait_until(lambda: len(connections) == 2 and
                         len(connections[1]["frames"]) >= 7)
        resent = connections[1]["frames"]
        assert seqs(resent[:7]) == list(range(4, 11))
        await write_frame(connections[1]["writer"], {"kind": "ack",
                                                     "seq": 10})
        await wait_until(lambda: transport.pending_out == 0)

        # New messages continue the same gap-free sequence.
        transport.send(MessageType.SECONDARY, 0, 1,
                       gid=GlobalTransactionId(0, 11), writes={0: 11})
        await wait_until(lambda: len(connections[1]["frames"]) == 8)
        assert seqs(connections[1]["frames"])[-1] == 11

        await transport.close()
        server.close()
        await server.wait_closed()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# The chaos fault seam (repro.chaos plugs in here)
# ----------------------------------------------------------------------

class ScriptedFaults:
    """Deterministic stand-in for a LinkFaultInjector: a fixed verdict
    per (seq, attempt), None otherwise."""

    def __init__(self, verdicts):
        self.verdicts = dict(verdicts)
        self.log = []

    def on_frame(self, src, dst, seq, count):
        attempt = sum(1 for (s, _a) in self.log if s == seq)
        self.log.append((seq, attempt))
        return self.verdicts.get((seq, attempt))


async def _wait_until(predicate, timeout=5.0):
    deadline = asyncio.get_event_loop().time() + timeout
    while not predicate():
        assert asyncio.get_event_loop().time() < deadline
        await asyncio.sleep(0.01)


async def _frame_server(connections, accept_hello=True):
    async def on_connect(reader, writer):
        record = {"frames": [], "writer": writer}
        connections.append(record)
        if accept_hello:
            hello = await read_frame(reader)
            assert hello["kind"] == "hello"
        while True:
            frame = await read_frame(reader)
            if frame is None:
                return
            record["frames"].append(frame)
            await write_frame(writer, {"kind": "ack",
                                       "seq": seqs([frame])[-1]})

    server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def test_fault_delay_preserves_fifo_order():
    """Injected per-frame delays are head-of-line in the single sender
    task, so they slow the channel but can never reorder it."""
    from repro.chaos.plan import FaultPlan, LinkFault, LinkFaultInjector

    async def scenario():
        connections = []
        server, port = await _frame_server(connections)
        injector = LinkFaultInjector(FaultPlan(seed=11, events=(
            LinkFault(delay=0.001, jitter=0.004),)))
        transport = LiveTransport(0, {0: ("127.0.0.1", port - 1),
                                      1: ("127.0.0.1", port)},
                                  faults=injector)
        for seq in range(1, 9):
            transport.send(MessageType.SECONDARY, 0, 1,
                           gid=GlobalTransactionId(0, seq),
                           writes={0: seq})
        await _wait_until(lambda: connections and
                          len(connections[0]["frames"]) == 8)
        assert seqs(connections[0]["frames"]) == list(range(1, 9))
        assert len(connections) == 1  # delays never sever
        assert len(injector.log) == 8
        assert all(entry["delay"] > 0 for entry in injector.log)
        await _wait_until(lambda: transport.pending_out == 0)
        await transport.close()
        server.close()
        await server.wait_closed()

    asyncio.run(scenario())


def test_fault_drop_severs_then_resends_gap_free():
    """A dropped frame is "lost in transit": the connection severs
    before the write, and the reconnect resends the exact sequence —
    the receiver sees a gap-free FIFO stream, just later."""
    from repro.chaos.plan import FaultVerdict

    async def scenario():
        connections = []
        server, port = await _frame_server(connections)
        faults = ScriptedFaults({
            (1, 0): FaultVerdict(delay=0.0, drop=True, ack_loss=False,
                                 reorder=False),
        })
        transport = LiveTransport(0, {0: ("127.0.0.1", port - 1),
                                      1: ("127.0.0.1", port)},
                                  faults=faults)
        for seq in range(1, 6):
            transport.send(MessageType.SECONDARY, 0, 1,
                           gid=GlobalTransactionId(0, seq),
                           writes={0: seq})
        await _wait_until(lambda: sum(len(c["frames"])
                                      for c in connections) >= 5)
        assert len(connections) == 2  # the drop severed once
        assert connections[0]["frames"] == []  # seq 1 never hit the wire
        resent = seqs(connections[1]["frames"])
        assert resent == list(range(1, 6))
        await _wait_until(lambda: transport.pending_out == 0)
        await transport.close()
        server.close()
        await server.wait_closed()

    asyncio.run(scenario())


def test_fault_ack_loss_resends_and_receiver_dedups():
    """Ack loss severs *after* the write: the receiver holds the frame,
    the sender resends it, and the (src, incarnation, seq) dedup drops
    the duplicate — at-least-once delivery stays exactly-once at the
    protocol queue."""
    from repro.chaos.plan import FaultVerdict

    async def scenario():
        connections = []
        server, port = await _frame_server(connections)
        faults = ScriptedFaults({
            (2, 0): FaultVerdict(delay=0.0, drop=False, ack_loss=True,
                                 reorder=False),
        })
        transport = LiveTransport(0, {0: ("127.0.0.1", port - 1),
                                      1: ("127.0.0.1", port)},
                                  faults=faults)
        for seq in range(1, 5):
            transport.send(MessageType.SECONDARY, 0, 1,
                           gid=GlobalTransactionId(0, seq),
                           writes={0: seq})
        await _wait_until(lambda: transport.pending_out == 0 and
                          len(connections) >= 2)
        arrived = [seq for record in connections
                   for seq in seqs(record["frames"])]
        # Seq 2 reached the wire twice (original + resend) ...
        assert arrived.count(2) == 2
        resent = seqs(connections[1]["frames"])
        # ... via a contiguous resend tail (acks may race the sever, so
        # the tail starts at the lowest unacked seq, at most 2).
        assert resent[0] <= 2
        assert resent == list(range(resent[0], 5))
        # ... but receiver-side dedup admits each seq exactly once.
        receiver = LiveTransport(1, {1: ("127.0.0.1", port + 1)})
        incarnation = transport.incarnation
        assert [seq for seq in arrived
                if receiver.fresh(0, incarnation, seq)] == [1, 2, 3, 4]
        await transport.close()
        await receiver.close()
        server.close()
        await server.wait_closed()

    asyncio.run(scenario())


def test_empty_fault_plan_is_byte_identical_to_no_plan():
    """A FaultPlan with no events must be invisible: the byte stream on
    the wire is identical to running without any injector, and the
    injection log stays empty."""
    import itertools

    import repro.network.message as message_module
    from repro.chaos.plan import FaultPlan, LinkFaultInjector

    async def run_with(faults):
        # Pin the two process-wide sources of wire variation: the
        # message id counter and the transport incarnation.
        message_module._msg_counter = itertools.count(1)
        blobs = []
        done = asyncio.Event()

        async def on_connect(reader, writer):
            chunks = []
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                chunks.append(chunk)
            blobs.append(b"".join(chunks))
            done.set()

        server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        transport = LiveTransport(0, {0: ("127.0.0.1", port - 1),
                                      1: ("127.0.0.1", port)},
                                  faults=faults)
        transport.incarnation = "pinned-incarnation"
        for seq in range(1, 7):
            transport.send(MessageType.SECONDARY, 0, 1,
                           gid=GlobalTransactionId(0, seq),
                           writes={0: seq})
        # No acks come back, so pending_out stays put; wait until the
        # sender has written everything, then close to EOF the server.
        await _wait_until(lambda: transport.frames_sent == 6)
        await asyncio.sleep(0.05)
        await transport.close()
        await done.wait()
        server.close()
        await server.wait_closed()
        return blobs[0]

    async def scenario():
        injector = LinkFaultInjector(FaultPlan(seed=99))
        with_empty_plan = await run_with(injector)
        without_plan = await run_with(None)
        assert with_empty_plan == without_plan
        assert with_empty_plan  # sanity: the stream is non-trivial
        assert injector.log == []

    asyncio.run(scenario())
