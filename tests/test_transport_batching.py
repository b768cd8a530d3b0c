"""Frame batching on the live channel: the invariants that make it
invisible above the wire.

Every peer data frame is a ``batch`` frame — a singleton travels as a
one-entry batch — and how many messages share one is a syscall
amortization, never a protocol change.  Whatever ``max_batch`` is, the
receiver must observe:

- the same gap-free per-channel sequence ``1..n``, in the same order,
  entries carrying their original sequence numbers;
- one cumulative ack retiring a whole batch, with resend of the unacked
  tail (same seqs, still gap-free) after a connection loss;
- the sender's ``sync_hook`` fired before each frame's bytes leave the
  process — the durability barrier that orders "commit record on
  stable storage" before "update visible to a peer".

The fake receiver below records raw frames exactly as
``tests/test_transport_seam.py`` does, so these tests see the wire
itself, not a convenient abstraction of it.
"""

import asyncio

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cluster.codec import (
    decode_batch_frame,
    read_frame,
    write_frame,
)
from repro.cluster.transport import LiveTransport
from repro.network.message import MessageType
from repro.types import GlobalTransactionId


class FakeReceiver:
    """Accepts peer connections, records every frame, acks on demand."""

    def __init__(self):
        self.connections = []
        self.server = None

    async def start(self):
        self.server = await asyncio.start_server(
            self._on_connect, "127.0.0.1", 0)
        return self.server.sockets[0].getsockname()[1]

    async def _on_connect(self, reader, writer):
        record = {"frames": [], "writer": writer}
        self.connections.append(record)
        hello = await read_frame(reader)
        assert hello["kind"] == "hello" and hello["role"] == "peer"
        while True:
            frame = await read_frame(reader)
            if frame is None:
                return
            record["frames"].append(frame)

    async def close(self):
        self.server.close()
        await self.server.wait_closed()


def flatten(frames):
    """Every (seq, message) a frame stream carries, in wire order."""
    entries = []
    for frame in frames:
        entries.extend(decode_batch_frame(frame)[1])
    return entries


async def wait_until(predicate, timeout=5.0):
    deadline = asyncio.get_event_loop().time() + timeout
    while not predicate():
        assert asyncio.get_event_loop().time() < deadline, \
            "condition not reached within {}s".format(timeout)
        await asyncio.sleep(0.01)


def send_n(transport, dst, count, start=1):
    for seq in range(start, start + count):
        transport.send(MessageType.SECONDARY, transport.site_id, dst,
                       gid=GlobalTransactionId(transport.site_id, seq),
                       writes={0: seq})


def test_backlog_travels_in_capped_batches_with_gap_free_seqs():
    async def scenario():
        receiver = FakeReceiver()
        port = await receiver.start()
        transport = LiveTransport(0, {0: ("127.0.0.1", port - 1),
                                      1: ("127.0.0.1", port)},
                                  max_batch=8)
        send_n(transport, 1, 30)

        await wait_until(lambda: receiver.connections and len(flatten(
            receiver.connections[0]["frames"])) == 30)
        frames = receiver.connections[0]["frames"]
        entries = flatten(frames)
        # The channel's exact sequence, in order.
        assert [seq for seq, _ in entries] == list(range(1, 31))
        assert [message.payload["writes"][0]
                for _, message in entries] == list(range(1, 31))
        # Never more than max_batch per frame; fewer frames than
        # messages (the amortization is real).
        for frame in frames:
            assert 1 <= len(frame["msgs"]) <= 8
            assert frame["inc"] == transport.incarnation
        assert len(frames) < 30
        assert transport.frames_sent == len(frames)
        assert transport.batched_messages == 30

        # One cumulative ack retires everything written so far.
        assert transport.pending_out == 30
        await write_frame(receiver.connections[0]["writer"],
                          {"kind": "ack", "seq": 30})
        await wait_until(lambda: transport.pending_out == 0)

        await transport.close()
        await receiver.close()

    asyncio.run(scenario())


def test_single_message_travels_as_a_one_entry_batch_frame():
    async def scenario():
        receiver = FakeReceiver()
        port = await receiver.start()
        transport = LiveTransport(0, {0: ("127.0.0.1", port - 1),
                                      1: ("127.0.0.1", port)},
                                  max_batch=64)
        send_n(transport, 1, 1)
        await wait_until(lambda: receiver.connections and
                         receiver.connections[0]["frames"])
        frame = receiver.connections[0]["frames"][0]
        # One peer data frame kind: a singleton is a one-entry batch
        # with the same seq, dedup and cumulative-ack contract.
        assert frame["kind"] == "batch"
        assert frame["inc"] == transport.incarnation
        assert [seq for seq, _ in flatten([frame])] == [1]
        await transport.close()
        await receiver.close()

    asyncio.run(scenario())


def test_max_batch_one_sends_one_entry_batch_frames():
    async def scenario():
        receiver = FakeReceiver()
        port = await receiver.start()
        transport = LiveTransport(0, {0: ("127.0.0.1", port - 1),
                                      1: ("127.0.0.1", port)},
                                  max_batch=1)
        send_n(transport, 1, 12)
        await wait_until(lambda: receiver.connections and len(
            receiver.connections[0]["frames"]) == 12)
        frames = receiver.connections[0]["frames"]
        assert all(frame["kind"] == "batch" and len(frame["msgs"]) == 1
                   for frame in frames)
        assert [seq for seq, _ in flatten(frames)] == list(range(1, 13))
        await transport.close()
        await receiver.close()

    asyncio.run(scenario())


def test_batched_unacked_tail_resends_with_same_seqs():
    """Cut the connection after a partial cumulative ack: the resent
    tail must start exactly after the ack, in order, original seqs —
    whether it travels batched or not is the receiver's dedup problem,
    the sequence contract is identical."""

    async def scenario():
        receiver = FakeReceiver()
        port = await receiver.start()
        transport = LiveTransport(0, {0: ("127.0.0.1", port - 1),
                                      1: ("127.0.0.1", port)},
                                  max_batch=5)
        send_n(transport, 1, 17)
        await wait_until(lambda: receiver.connections and len(flatten(
            receiver.connections[0]["frames"])) == 17)

        # Ack through seq 6 (mid-batch is legal: acks are cumulative
        # per entry, not per frame), then break the connection.
        await write_frame(receiver.connections[0]["writer"],
                          {"kind": "ack", "seq": 6})
        await wait_until(lambda: transport.pending_out == 11)
        receiver.connections[0]["writer"].transport.abort()

        await wait_until(lambda: len(receiver.connections) == 2 and
                         len(flatten(
                             receiver.connections[1]["frames"])) >= 11)
        resent = flatten(receiver.connections[1]["frames"])
        assert [seq for seq, _ in resent[:11]] == list(range(7, 18))

        # New traffic continues the same gap-free numbering.
        send_n(transport, 1, 3, start=18)
        await write_frame(receiver.connections[1]["writer"],
                          {"kind": "ack", "seq": 17})
        await wait_until(lambda: len(flatten(
            receiver.connections[1]["frames"])) == 14)
        assert [seq for seq, _ in flatten(
            receiver.connections[1]["frames"])] == \
            list(range(7, 21))

        await transport.close()
        await receiver.close()

    asyncio.run(scenario())


def test_sync_hook_fires_before_every_frame():
    """The durability barrier: no frame's bytes may leave before the
    hook (the server's WAL group-commit sync) has run for it."""

    async def scenario():
        receiver = FakeReceiver()
        port = await receiver.start()
        events = []
        transport = LiveTransport(0, {0: ("127.0.0.1", port - 1),
                                      1: ("127.0.0.1", port)},
                                  max_batch=4,
                                  sync_hook=lambda:
                                  events.append("sync"))
        send_n(transport, 1, 10)
        await wait_until(lambda: receiver.connections and len(flatten(
            receiver.connections[0]["frames"])) == 10)
        frames = len(receiver.connections[0]["frames"])
        # Exactly one barrier per frame, armed before the write: the
        # hook ran `frames` times and every frame was preceded by one.
        assert events == ["sync"] * frames
        assert frames == transport.frames_sent
        await transport.close()
        await receiver.close()

    asyncio.run(scenario())


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    max_batch=st.integers(1, 9),
    total=st.integers(1, 25),
    # Each disruption: (fraction of written entries to ack, whether to
    # then cut the connection) — randomized batch boundaries emerge
    # from the racing sender; randomized ack/reconnect points from
    # here.
    disruptions=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.booleans()),
        max_size=3),
)
def test_random_acks_and_reconnects_keep_the_stream_gap_free(
        max_batch, total, disruptions):
    """The property the protocol stands on, under randomized batching:
    however frames coalesce and whenever the connection dies, the
    receiver's dedup-filtered view is exactly ``1..total`` in order,
    and every connection's stream is gap-free from its first entry."""

    async def scenario():
        receiver = FakeReceiver()
        port = await receiver.start()
        transport = LiveTransport(0, {0: ("127.0.0.1", port - 1),
                                      1: ("127.0.0.1", port)},
                                  max_batch=max_batch)
        send_n(transport, 1, total)
        acked = 0
        for fraction, cut in disruptions:
            await wait_until(lambda: receiver.connections and len(
                flatten(receiver.connections[-1]["frames"])) >=
                total - acked)
            written = flatten(receiver.connections[-1]["frames"])
            target = written[int(fraction * (len(written) - 1))][0]
            if target > acked:
                await write_frame(receiver.connections[-1]["writer"],
                                  {"kind": "ack", "seq": target})
                acked = target
                await wait_until(lambda: transport.pending_out ==
                                 total - acked)
            if cut and acked < total:
                before = len(receiver.connections)
                receiver.connections[-1]["writer"].transport.abort()
                # The channel must reconnect and resend before the
                # next disruption (or the final drain) acks anything.
                await wait_until(lambda: len(receiver.connections) >
                                 before)
        await wait_until(lambda: receiver.connections and len(flatten(
            receiver.connections[-1]["frames"])) >= total - acked)
        await write_frame(receiver.connections[-1]["writer"],
                          {"kind": "ack", "seq": total})
        await wait_until(lambda: transport.pending_out == 0)

        streams = [flatten(record["frames"])
                   for record in receiver.connections]
        await transport.close()
        await receiver.close()
        return streams

    streams = asyncio.run(scenario())
    seen = set()
    first_occurrence = []
    for stream in streams:
        seqs = [seq for seq, _ in stream]
        # Gap-free within every connection, wherever it resumed.
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
        for seq, message in stream:
            assert message.payload["writes"][0] == seq  # right body
            if seq not in seen:
                seen.add(seq)
                first_occurrence.append(seq)
    # Dedup-filtered view: exactly the original FIFO stream.
    assert first_occurrence == list(range(1, total + 1))


def test_empty_and_malformed_batch_frames_at_the_codec_seam():
    from repro.cluster.codec import CodecError, encode_batch_frame

    incarnation, entries = decode_batch_frame(
        encode_batch_frame("inc-a", []))
    assert incarnation == "inc-a" and entries == []
    with pytest.raises(CodecError):
        decode_batch_frame({"kind": "msg", "inc": "x", "msgs": []})
    with pytest.raises(CodecError):
        decode_batch_frame({"kind": "batch", "inc": "x"})
    with pytest.raises(CodecError):
        decode_batch_frame({"kind": "batch", "inc": "x",
                            "msgs": [{"seq": 1}]})
