"""TCP transport with the simulated Network's contract.

The protocol classes in :mod:`repro.core` interact with the fabric only
through ``send(msg_type, src, dst, **payload)`` and
``set_handler(site, handler)``; this module satisfies that contract over
real sockets while preserving the structural per-channel FIFO guarantee
DAG(WT)'s correctness depends on:

- one outbound connection per channel ``(src, dst)``, written by a
  single sender task — TCP ordering gives FIFO delivery;
- **acknowledged delivery**: a message leaves the channel only when the
  receiving server has acknowledged it (after journalling it to stable
  storage, for the durable message classes).  Written-but-unacked
  messages are resent, in order, on every reconnect — a successful
  socket write only proves the bytes left this process, not that the
  peer processed them, and a receiver crash in between would otherwise
  punch a gap into the FIFO stream (the root of all replication evil:
  a later update applied before an earlier one can never be serialized
  again);
- a per-process random *incarnation id* on every frame plus a
  per-channel sequence number on every message; the receiving server
  drops ``(src, incarnation)`` sequence numbers it has already seen,
  making resends idempotent.  A restarted receiver reloads that dedup
  state from its message journal and re-applies idempotently past it;
- **one peer data frame**: every message travels in a ``batch`` wire
  frame (:func:`~repro.cluster.codec.encode_batch_frame`) — a singleton
  as a one-entry batch — and a channel with a backlog packs up to
  ``max_batch`` consecutive messages into one, acknowledged by one
  cumulative ack: the deferred-update amortization the paper's lazy
  protocols exist to enable.  Entries keep their per-channel sequence
  numbers, so the frame cap is invisible above the wire.

Delivery happens on the receiving server: inbound frames are decoded
and each entry is handed to :meth:`LiveTransport.deliver`, which
dispatches to the handler the protocol registered for the local site.

Backpressure note: the per-channel backlog is unbounded by design — a
site that is down accumulates its updates at the senders (exactly the
paper's lazy-propagation queueing assumption).  Client-side admission is
bounded instead (:class:`~repro.cluster.client.ClusterClient`'s
in-flight semaphore).

Fault seam (``faults``, used by :mod:`repro.chaos`): an optional
injector consulted once per outbound frame, *before* its bytes are
written.  It may delay the frame (head-of-line in the single sender
task, so within-channel FIFO is preserved by construction), drop it
(the connection is severed before the write — the frame is "lost in
transit" and the normal reconnect/resend machinery repairs the stream),
or lose its ack (the connection is severed after the write — the
receiver got the frame, the sender resends it, and the receiver-side
dedup drops the duplicate).  The injector never touches frame contents,
so an injector that decides "no fault" leaves the wire byte-identical
to running without one.  The hook is per-process and deliberately
outside the cluster fingerprint, like the frame cap and durability
level.
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import time
import typing
import uuid

from repro.cluster.codec import (
    CodecError,
    FrameReader,
    FrameWriter,
    encode_batch_frame,
    write_frame,
)
from repro.network.message import Message, MessageType
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import message_trace_id
from repro.types import SiteId

#: Reconnect backoff bounds (seconds).
_BACKOFF_MIN = 0.05
_BACKOFF_MAX = 1.0


class _Channel:
    """Sender side of one FIFO link ``src -> dst``."""

    def __init__(self, transport: "LiveTransport", dst: SiteId):
        self.transport = transport
        self.dst = dst
        #: Queued, not yet written on the current connection.
        self.unsent: typing.Deque[typing.Tuple[int, Message]] = \
            collections.deque()
        #: Written but not yet acknowledged by the receiver.
        self.unacked: typing.Deque[typing.Tuple[int, Message]] = \
            collections.deque()
        self.seq = itertools.count(1)
        self.wakeup = asyncio.Event()
        self.task: typing.Optional[asyncio.Task] = None
        self._ack_task: typing.Optional[asyncio.Task] = None

    def put(self, message: Message) -> None:
        self.unsent.append((next(self.seq), message))
        self.wakeup.set()
        if self.task is None or self.task.done():
            self.task = asyncio.get_running_loop().create_task(
                self._sender())

    @property
    def backlog(self) -> int:
        return len(self.unsent) + len(self.unacked)

    async def _sender(self) -> None:
        """Drain the queue over one connection, reconnecting forever.

        Pipelined: frames are written without waiting for their acks;
        a side task consumes cumulative acks and retires ``unacked``
        entries.  On any connection loss the unacked tail is requeued in
        front of the unsent queue, so the receiver always observes one
        gap-free sequence."""
        backoff = _BACKOFF_MIN
        out: typing.Optional[FrameWriter] = None
        try:
            while not self.transport.closed:
                if out is not None and self._ack_task is not None \
                        and self._ack_task.done():
                    # Receiver closed (or broke) the connection.
                    out = await self._drop_connection(out)
                    continue
                if not self.unsent and \
                        (out is not None or not self.unacked):
                    self.wakeup.clear()
                    if not self.unsent and not (
                            self._ack_task is not None
                            and self._ack_task.done()):
                        await self.wakeup.wait()
                    continue
                if out is None:
                    connection = await self._connect()
                    if connection is None:
                        await asyncio.sleep(backoff)
                        backoff = min(backoff * 2, _BACKOFF_MAX)
                        continue
                    backoff = _BACKOFF_MIN
                    reader, writer = connection
                    out = FrameWriter(
                        writer, on_encode=self.transport._h_encode.observe,
                        on_write=self.transport._h_write.observe)
                    # The unacked tail is resent through the receiver's
                    # dedup filter.
                    self.transport.resent_messages += len(self.unacked)
                    while self.unacked:
                        self.unsent.appendleft(self.unacked.pop())
                    self._ack_task = asyncio.get_running_loop() \
                        .create_task(self._ack_loop(reader))
                    continue
                # Drain up to max_batch queued messages into one batch
                # frame (a singleton is a one-entry batch) with one
                # cumulative ack.  The snapshot below is fixed before
                # the awaited write; messages arriving during it simply
                # form the next frame.
                count = min(len(self.unsent), self.transport.max_batch)
                entries = list(itertools.islice(self.unsent, count))
                # Chaos seam: one decision per frame attempt, keyed by
                # the frame's first sequence number so a replay with
                # the same seed injects the same faults.
                faults = self.transport.faults
                verdict = None
                if faults is not None:
                    verdict = faults.on_frame(self.transport.site_id,
                                              self.dst, entries[0][0],
                                              count)
                if verdict is not None:
                    if verdict.delay > 0.0:
                        await asyncio.sleep(verdict.delay)
                    if verdict.drop:
                        # Lost in transit: sever before the write.  The
                        # entries stay unsent; the reconnect path
                        # resends them with the same sequence numbers.
                        out = await self._drop_connection(out)
                        continue
                sync_hook = self.transport.sync_hook
                sync_s = 0.0
                if sync_hook is not None:
                    # Durability barrier: whatever these messages imply
                    # is committed must be on stable storage before the
                    # bytes leave the process.  The hook returns
                    # ``None`` when already durable, or an awaitable,
                    # so the server can coalesce the fsync with
                    # concurrent waiters off the event loop.  The wall
                    # wait is the sender's WAL-barrier stage; it is
                    # also stamped onto the frame's forwarded spans so
                    # attribution can split the pre-wire segment.
                    maybe = sync_hook()
                    if maybe is not None:
                        waited = time.perf_counter()
                        await maybe
                        sync_s = time.perf_counter() - waited
                        self.transport._h_wal_barrier.observe(sync_s)
                frame = encode_batch_frame(self.transport.incarnation,
                                           entries)
                out.write(frame)
                for _ in range(count):
                    self.unacked.append(self.unsent.popleft())
                self.transport._note_frame(self.dst, entries,
                                           sync_s=sync_s)
                if verdict is not None and verdict.ack_loss:
                    # The frame arrived but its ack is "lost": sever
                    # after the write.  The unacked tail is requeued
                    # and resent; the receiver's dedup drops the copy.
                    out = await self._drop_connection(out)
                    continue
                if self.unsent:
                    out.flush_soon()    # the next frames join this write
                else:
                    out.flush()
                try:
                    await out.drain()
                except (ConnectionError, OSError):
                    out = await self._drop_connection(out)
        finally:
            if out is not None:
                await self._drop_connection(out)

    async def _ack_loop(self, reader: asyncio.StreamReader) -> None:
        frames = FrameReader(reader)
        try:
            while True:
                batch = await frames.frames()
                if batch is None:
                    return
                for frame in batch:
                    if frame.get("kind") != "ack":
                        continue
                    acked = int(frame["seq"])
                    while self.unacked and self.unacked[0][0] <= acked:
                        self.unacked.popleft()
        except (ConnectionError, OSError, CodecError,
                asyncio.CancelledError, ValueError, KeyError):
            return
        finally:
            # The sender may be idle-waiting on wakeup; a dead
            # connection with unacked messages must rouse it so it can
            # reconnect and resend.
            self.wakeup.set()

    async def _connect(self) -> typing.Optional[
            typing.Tuple[asyncio.StreamReader, asyncio.StreamWriter]]:
        host, port = self.transport.peers[self.dst]
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except (ConnectionError, OSError):
            return None
        hello = {
            "kind": "hello",
            "role": "peer",
            "site": self.transport.site_id,
            "fingerprint": self.transport.fingerprint,
        }
        try:
            await write_frame(writer, hello)
        except (ConnectionError, OSError):
            writer.close()
            return None
        return reader, writer

    async def _drop_connection(self, out: FrameWriter) -> None:
        if self._ack_task is not None:
            self._ack_task.cancel()
            self._ack_task = None
        await out.close()
        return None

    def cancel(self) -> None:
        if self.task is not None:
            self.task.cancel()
        if self._ack_task is not None:
            self._ack_task.cancel()


class LiveTransport:
    """The :class:`~repro.network.network.Network` contract over TCP."""

    def __init__(self, site_id: SiteId,
                 peers: typing.Mapping[SiteId, typing.Tuple[str, int]],
                 fingerprint: str = "", max_batch: int = 1,
                 sync_hook: typing.Optional[typing.Callable[
                     [], typing.Optional[typing.Awaitable[None]]]] = None,
                 metrics: typing.Optional[MetricsRegistry] = None,
                 trace_sink: typing.Optional[typing.Any] = None,
                 faults: typing.Optional[typing.Any] = None):
        self.site_id = site_id
        self.peers = dict(peers)
        self.n_sites = max(peers, default=site_id) + 1
        self.fingerprint = fingerprint
        #: Max messages per wire frame.
        self.max_batch = max(1, int(max_batch))
        #: Called right before a frame's bytes are written; returns
        #: ``None`` or an awaitable the write waits for.  The server
        #: points it at the WAL group-commit sync so no message can
        #: leave ahead of the commit record it advertises.
        self.sync_hook = sync_hook
        #: Chaos fault injector (duck-typed, see the module docstring):
        #: ``on_frame(src, dst, first_seq, count)`` returning ``None``
        #: (no fault) or an object with ``delay``/``drop``/``ack_loss``.
        #: ``None`` — the default — costs one attribute read per frame.
        self.faults = faults
        #: Distinguishes this process from earlier incarnations of the
        #: same site, so receiver-side dedup tables reset correctly.
        self.incarnation = uuid.uuid4().hex
        self.closed = False
        self._handlers: typing.Dict[SiteId, typing.Callable] = {}
        self._channels: typing.Dict[SiteId, _Channel] = {}
        #: Receiver-side dedup: (src, incarnation) -> highest seq seen.
        self._seen: typing.Dict[typing.Tuple[SiteId, str], int] = {}
        #: Messages sent, in total and by type; wire frames written; and
        #: unacked messages requeued for resend on a reconnect.  The
        #: ``status`` reply serves all four.
        self.sent_by_type: typing.Counter = collections.Counter()
        self.total_sent = 0
        self.frames_sent = 0
        self.resent_messages = 0
        #: Observability: a metrics registry (the server's, or a private
        #: one when none is handed in) and an optional span sink for the
        #: ``forwarded`` spans.
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self.trace_sink = trace_sink
        # Sender-side stage timers, shared by name with the server's
        # instruments (one registry per process): time a frame waits on
        # the WAL group-commit barrier before its bytes may leave, and
        # its encode / socket-write durations.
        self._h_wal_barrier = self.metrics.histogram(
            "wal.barrier_wait_s")
        self._h_encode = self.metrics.histogram("server.encode_s")
        self._h_write = self.metrics.histogram("server.write_s")

    # ------------------------------------------------------------------
    # The Network contract (called synchronously from sim processes)
    # ------------------------------------------------------------------

    def set_handler(self, site: SiteId,
                    handler: typing.Callable[[Message], None]) -> None:
        self._handlers[site] = handler

    def send(self, msg_type: MessageType, src: SiteId, dst: SiteId,
             **payload) -> Message:
        if src == dst:
            raise ValueError("site s{} sending to itself".format(src))
        if dst not in self.peers:
            raise ValueError("unknown site s{}".format(dst))
        message = Message(msg_type, src, dst, payload)
        self.sent_by_type[msg_type] += 1
        self.total_sent += 1
        channel = self._channels.get(dst)
        if channel is None:
            channel = self._channels[dst] = _Channel(self, dst)
        channel.put(message)
        return message

    # ------------------------------------------------------------------
    # Channel accounting (observability)
    # ------------------------------------------------------------------

    def _note_frame(self, dst: SiteId,
                    entries: typing.Sequence[
                        typing.Tuple[int, Message]],
                    sync_s: float = 0.0) -> None:
        """One frame's bytes left the process.  ``sync_s`` is the wall
        time the frame spent on the WAL group-commit barrier; stamped
        onto its forwarded spans (``wal``), it lets attribution split
        the commit→forward segment into barrier wait vs queueing."""
        self.frames_sent += 1
        sink = self.trace_sink
        if sink is not None:
            wal = round(sync_s, 6) if sync_s > 0.0 else None
            for _seq, message in entries:
                trace = message_trace_id(message)
                if trace:
                    sink.emit("forwarded", trace=trace, peer=dst,
                              type=message.msg_type.value, wal=wal)

    # ------------------------------------------------------------------
    # Receiving side (called by the SiteServer)
    # ------------------------------------------------------------------

    def fresh(self, src: SiteId, incarnation: str, seq: int) -> bool:
        """Mark ``(src, incarnation, seq)`` seen; False if it already
        was (a transport-level resend)."""
        key = (src, incarnation)
        if seq <= self._seen.get(key, 0):
            return False
        self._seen[key] = seq
        return True

    def accept(self, src: SiteId, incarnation: str, seq: int,
               message: Message) -> bool:
        """Dedup-check an inbound frame; deliver if it is new."""
        if not self.fresh(src, incarnation, seq):
            return False
        self.deliver(message)
        return True

    def deliver(self, message: Message) -> None:
        """Hand ``message`` to the handler its protocol registered.  A
        message no handler takes raises: the server fail-stops on it
        rather than ack an update nothing applied."""
        handler = self._handlers.get(message.dst)
        if handler is None:
            raise RuntimeError("no handler for {} to s{}".format(
                message.msg_type.value, message.dst))
        handler(message)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def pending_out(self) -> int:
        """Messages queued or in flight but not yet acknowledged."""
        return sum(channel.backlog
                   for channel in self._channels.values())

    async def close(self) -> None:
        self.closed = True
        for channel in self._channels.values():
            channel.wakeup.set()
            channel.cancel()
            if channel.task is not None:
                try:
                    await channel.task
                except (asyncio.CancelledError, Exception):
                    pass
