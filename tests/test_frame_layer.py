"""The connection layer on the live path: coalescing, barriers and
backpressure, in process — no fixed ports, no sleeps.

- the responses one WAL group-commit round releases reach the client
  socket in ONE ``writelines``, and not before the round completes;
- a ``txn`` response — read-only included — is never written while
  ``wal.synced_records < wal.appended``;
- a peer that stops reading makes the channel sender wait in ``drain``
  once more than ``HIGH_WATER`` bytes are buffered (so the bytes
  buffered toward it stay bounded), and the sender resumes when the
  peer reads;
- a request whose future fails while it waits to be written, and which
  is cancelled in the same tick, leaves no "exception was never
  retrieved" behind.
"""

import asyncio
import gc
import os
import socket
import threading

import pytest

from repro.cluster.client import ClusterError, _Connection
from repro.cluster.codec import (
    HIGH_WATER,
    FrameReader,
    FrameWriter,
    decode_batch_frame,
    encode_frame,
    read_frame,
)
from repro.cluster.server import SiteServer, encode_spec
from repro.cluster.transport import LiveTransport
from repro.network.message import MessageType
from repro.types import GlobalTransactionId, Operation, OpType, \
    TransactionSpec
from tests.test_live_cluster import RecordingWriter, make_spec, settle


class CountingWriter(RecordingWriter):
    """Records every ``writelines`` call and checks the WAL barrier on
    each one."""

    def __init__(self, wal=None):
        super().__init__()
        self.calls = []
        self.wal = wal

    def writelines(self, chunks):
        if self.wal is not None:
            assert self.wal.synced_records == self.wal.appended
        self.calls.append(b"".join(chunks))
        super().writelines(chunks)


def _frames(data):
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(bytes(data))
        reader.feed_eof()
        return await FrameReader(reader).frames() or []
    return asyncio.run(scenario())


def _gated(log):
    """Gate ``log.sync`` so the test decides when a round completes."""
    gate, entered = threading.Event(), threading.Event()
    real_sync = log.sync
    _GATES.append(gate)

    def gated_sync():
        entered.set()
        assert gate.wait(10.0)
        return real_sync()
    log.sync = gated_sync
    return gate, entered


#: Gates still closed when a scenario ends (opened by the fixture, so a
#: failed assertion is not followed by a stop blocked on its gate).
_GATES = []


def _request(rid, seq, op_type, item):
    txn = TransactionSpec(GlobalTransactionId(0, seq), 0,
                          (Operation(op_type, item),))
    return encode_frame({"kind": "req", "rid": rid, "op": "txn",
                         "spec": encode_spec(txn)})


@pytest.fixture
def site0(tmp_path):
    spec = make_spec("dag_wt", 3)
    items = sorted(spec.build_placement().primary_items_at(0))

    def run(body):
        async def scenario():
            server = SiteServer(spec, 0, wal_path=os.path.join(
                str(tmp_path), "site0.wal"))
            await server.start()
            try:
                return await body(server, items)
            finally:
                while _GATES:
                    _GATES.pop().set()
                await server.stop()
        return asyncio.run(scenario())
    return run


def test_one_sync_round_releases_its_responses_in_one_write(site0):
    async def body(server, items):
        gate, entered = _gated(server.wal)
        syncs = server.wal.syncs
        writer = CountingWriter()
        reader = asyncio.StreamReader()
        task = asyncio.get_running_loop().create_task(
            server._client_loop(reader, writer))
        count = len(items)                 # one writer per item
        reader.feed_data(b"".join(
            _request(rid, rid, OpType.WRITE, items[rid - 1])
            for rid in range(1, count + 1)))
        await settle(lambda: server._m_committed.value == count)
        await settle(entered.is_set)
        for _ in range(20):
            await asyncio.sleep(0)
        assert writer.calls == []          # nothing before the round
        gate.set()
        await settle(lambda: writer.calls)
        for _ in range(20):
            await asyncio.sleep(0)
        reader.feed_eof()
        await asyncio.wait_for(task, 10.0)
        assert server.wal.syncs == syncs + 1   # one round for them all
        assert len(writer.calls) == 1
        return count, writer.calls[0]

    count, data = site0(body)
    responses = _frames(data)
    assert count >= 3
    assert sorted(frame["rid"] for frame in responses) == \
        list(range(1, count + 1))
    assert {frame["status"] for frame in responses} == {"committed"}


def test_txn_response_waits_for_the_wal_read_only_included(site0):
    """A writer and a reader of the same item in one read: both commit
    in the engine, one record is pending, and neither response is
    written until the log has caught up — the reader saw the write."""
    async def body(server, items):
        wal = server.wal
        gate, entered = _gated(wal)
        writer = CountingWriter(wal)       # asserts the barrier per write
        reader = asyncio.StreamReader()
        task = asyncio.get_running_loop().create_task(
            server._client_loop(reader, writer))
        before = wal.appended
        reader.feed_data(_request(1, 1, OpType.WRITE, items[0]) +
                         _request(2, 2, OpType.READ, items[0]))
        await settle(lambda: server._m_committed.value == 2)
        await settle(entered.is_set)
        for _ in range(20):
            await asyncio.sleep(0)
        assert wal.appended == before + 1
        assert wal.synced_records < wal.appended
        assert writer.calls == []
        gate.set()
        await settle(lambda: writer.data.count(b'"kind":"resp"') == 2)
        reader.feed_eof()
        await asyncio.wait_for(task, 10.0)
        return writer.data

    responses = _frames(site0(body))
    assert sorted((f["rid"], f["status"]) for f in responses) == [
        (1, "committed"), (2, "committed")]


class BufferedWriter(RecordingWriter):
    """A transport whose write buffer only empties when told to, and
    which refuses a drain until one is ``expected``."""

    def __init__(self):
        super().__init__()
        self.drains = 0
        self.expected = False
        self.release = asyncio.Event()

    def get_write_buffer_size(self):
        return len(self.data)

    async def drain(self):
        assert self.expected, "drained below the high-water mark"
        self.drains += 1
        await self.release.wait()
        self.data.clear()


def test_frame_writer_drains_only_above_the_high_water_mark():
    async def scenario():
        writer = BufferedWriter()
        out = FrameWriter(writer)
        frame = {"kind": "ack", "seq": 1, "pad": "x" * 1000}
        size = len(encode_frame(frame))
        written = 0
        while written + size <= HIGH_WATER:
            out.write(frame)
            written += size
            await out.drain()              # below the mark: no wait
        assert writer.drains == 0 and not writer.data
        writer.expected = True
        out.write(frame)                   # past it
        waiting = asyncio.get_running_loop().create_task(out.drain())
        for _ in range(5):
            await asyncio.sleep(0)
        assert not waiting.done() and writer.drains == 1
        # The wait flushed first: the peer sees every queued frame.
        assert len(writer.data) == written + size
        writer.release.set()
        await asyncio.wait_for(waiting, 10.0)
        assert writer.drains == 1

    asyncio.run(scenario())


def test_a_peer_that_stops_reading_bounds_the_sender(monkeypatch):
    """A real socket pair with small kernel buffers: the channel sender
    encodes frames until ``HIGH_WATER`` bytes are buffered, then waits
    in ``drain`` — its backlog stays queued as messages, not bytes — and
    finishes once the peer reads."""
    total, payload = 2000, "x" * 256

    async def scenario():
        left, right = socket.socketpair()
        for sock in (left, right):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        real_open = asyncio.open_connection
        peer_reader, peer_writer = await real_open(sock=right)
        writers = []

        async def connect(host, port):
            reader, writer = await real_open(sock=left)
            real_drain = writer.drain

            async def counted_drain():
                counted_drain.calls += 1
                await real_drain()
            counted_drain.calls = 0
            writer.drain = counted_drain
            writers.append(writer)
            return reader, writer
        monkeypatch.setattr(asyncio, "open_connection", connect)

        transport = LiveTransport(0, {0: ("peer", 0), 1: ("peer", 0)},
                                  max_batch=64)
        for seq in range(1, total + 1):
            transport.send(MessageType.SECONDARY, 0, 1,
                           gid=GlobalTransactionId(0, seq),
                           writes={1: payload}, epoch=0)
        channel = transport._channels[1]
        await settle(lambda: writers and writers[0].drain.calls)
        for _ in range(20):
            await asyncio.sleep(0)
        # Blocked in drain: part of the backlog is still unencoded, and
        # the bytes buffered toward the peer are bounded by the mark
        # plus the one frame written past it.
        writer = writers[0]
        frame_bytes = 64 * (len(payload) + 200)
        assert channel.unsent
        assert writer.transport.get_write_buffer_size() <= \
            HIGH_WATER + frame_bytes
        stalled_at = transport.frames_sent

        assert (await read_frame(peer_reader))["kind"] == "hello"
        frames, received = FrameReader(peer_reader), 0
        while received < total:
            for frame in await frames.frames():
                received += len(decode_batch_frame(frame)[1])
        assert not channel.unsent
        # One wait per high-water crossing, not one per frame.
        assert transport.frames_sent > stalled_at
        assert writer.drain.calls < transport.frames_sent
        await transport.close()
        peer_writer.close()

    asyncio.run(scenario())


def test_failed_and_cancelled_request_leaves_no_unretrieved_error():
    """The kill race: a request still waiting to get its frame out (a
    congested connection) has its future failed by the read loop
    (connection closed) in the same tick as ``wait_for`` cancels it.
    Nobody awaits that future any more, so the request itself must mark
    the error retrieved."""
    async def scenario():
        loop = asyncio.get_running_loop()
        seen = []
        loop.set_exception_handler(lambda _loop, context:
                                   seen.append(context))
        conn = _Connection("127.0.0.1", 0, "")

        async def already_open():
            pass
        conn.ensure_open = already_open
        congested = BufferedWriter()
        congested.expected = True
        congested.data += b"x" * (HIGH_WATER + 1)
        conn._out = FrameWriter(congested)
        task = loop.create_task(conn.request({"op": "ping"}, rid=1))
        await settle(lambda: congested.drains)      # stuck in drain
        assert 1 in conn.pending
        conn._fail_pending(ClusterError("connection closed"))
        task.cancel()                               # the timeout
        with pytest.raises(asyncio.CancelledError):
            await task
        del task
        gc.collect()
        await asyncio.sleep(0)
        return seen

    assert asyncio.run(scenario()) == []
