"""The live site server.

One :class:`SiteServer` hosts one site of the copy graph: its
:class:`~repro.storage.engine.StorageEngine` backed by a durable
:class:`~repro.cluster.wal.FileWal`, the inbox
:class:`~repro.cluster.wal.MessageJournal` beside it, its protocol
instance, and a TCP endpoint serving both peers and clients.  There is
no memory-only site: the model is crash-stop plus recovery from a
stable log, so every site has both logs.

Execution model — *virtual time riding the wall clock*: the server owns
a private discrete-event :class:`~repro.sim.environment.Environment`
whose clock is pinned to real elapsed seconds.  Every external input
(client transaction, peer message) is injected and the environment is
then driven through all events due "now"; purely timed events (lock
timeouts, heartbeats) are armed as asyncio timers for their real due
time.  With the live cost profile (CPU service times zeroed — the real
CPU *is* the cost), the paper's protocol generators execute unchanged:
the 50 ms deadlock timeout becomes a real 50 ms, and propagation runs
over real sockets via :class:`LiveTransport`.

The server, not the protocol, handles the cluster control plane:

- ``WOUND`` — apply a remote victim-policy wound to a local primary;
- **group commit** — WAL/journal appends coalesce at durability
  *barriers* (and the appender's ``max_pending`` cap) instead of paying
  one flush per record, each sync round running in the executor, and
  each inbound peer connection is one coroutine that applies every
  frame one socket read returned as one round.  The barriers are where
  the externally visible promises are made: the WAL is synced before a
  client sees a commit response and before any outbound frame leaves (a
  forwarded update implies its commit record is stable), and the
  journal is synced before the cumulative ack of an apply round
  (journal-then-ack, once per round of frames instead of per message)
  — the WAL too when the round carried a message the journal does not
  hold;
- ``RECONFIG`` — epoch-commit gossip, the one way a member that
  missed a commit catches up; it carries the state of a gained copy
  (the change's ``install``) only to the peers that gain one.  Updates
  reach a replica one way: the propagation tree's acknowledged FIFO
  chain, repaired after a crash by journal replay, primary re-forward
  and transport resend.  A gained copy's state is read once from the
  item's primary while the item is fenced and quiet, and a gaining site
  installs it inside its epoch commit, ahead of the synced
  ``EPOCH_COMMIT``.  The fence is a synced ``EPOCH_PREPARE``: recovery
  restores it until an ``EPOCH_COMMIT`` or ``EPOCH_ABORT`` follows, so a
  restarted primary takes no write the install already left out.
  Nothing is pulled: a reply installed beside the FIFO stream while its
  secondaries are in flight is the one thing that ever produced a DSG
  cycle here;
- delivery dedup — at-least-once transport resends and recovery
  re-forwards are filtered via the transport sequence numbers and the
  writer-lineage check before a ``SECONDARY`` reaches the protocol
  queue;
- observability (always on) — a
  :class:`repro.obs.registry.MetricsRegistry` instruments the hot path
  (frames, batch sizes, WAL/journal sync latency, frames per apply
  round, drive time), and a :class:`repro.obs.trace.TraceSink` records
  propagation spans (received → journaled → applied …) keyed by
  deterministic per-origin-transaction trace ids; both are served over
  the client plane by the ``stats`` and ``trace`` requests.  See
  ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import time
import typing

from repro.cluster.codec import (
    CodecError,
    FrameReader,
    FrameWriter,
    compact_json,
    decode_message,
    decode_value,
    encode_frame_chunks,
    encode_value,
    read_frame,
    write_frame,
)
from repro.cluster.spec import ClusterSpec
from repro.cluster.transport import LiveTransport
from repro.cluster.wal import FileWal, MessageJournal
from repro.core.base import ReplicatedSystem, SystemConfig, make_protocol
from repro.errors import PlacementError, TransactionAborted
from repro.network.message import Message, MessageType
from repro.obs.flight import FlightRecorder
from repro.obs.registry import (
    SIZE_BUCKETS,
    MetricsRegistry,
)
from repro.obs.trace import SpanObserver, TraceSink, message_trace_id
# Imported from the change module directly (not repro.reconfig) to keep
# the import graph acyclic: repro.reconfig -> coordinator -> client ->
# this module.
from repro.reconfig.change import (
    PlacementChange,
    ReconfigError,
    replay_epochs,
)
from repro.sim.environment import Environment
from repro.storage.log import LogRecordKind, recover
from repro.types import (
    GlobalTransactionId,
    ItemId,
    Operation,
    OpType,
    SiteId,
    SubtransactionKind,
    TransactionSpec,
)

#: Protocols the live runtime supports (their cross-site interactions
#: flow entirely through the transport + the control plane above).
LIVE_PROTOCOLS = ("dag_wt", "backedge")


class _GroupCommitSyncer:
    """Coalesces concurrent durability waiters into shared sync rounds
    run off the event loop.

    ``wait_durable`` captures the log's ``appended`` high-water mark
    and returns once ``synced_records`` passes it.  At most one sync
    round is in flight at a time; every waiter that arrives while a
    round runs shares the *next* round (leader/follower group commit).
    The fsync itself runs in the default executor, so the event loop
    keeps decoding, applying and batching while the disk works — on a
    single core that overlap, not parallelism, is the win.

    A failed round is a crash: ``on_failure`` gets its exception, and
    the log, poisoned, fails every later round and waiter."""

    def __init__(self, log: typing.Any,
                 on_failure: typing.Callable[[BaseException], None]):
        self._log = log
        self._on_failure = on_failure
        self._round: typing.Optional[asyncio.Future] = None

    def kick(self) -> "asyncio.Future":
        """Return the sync round in flight, submitting one to the
        executor *now* if there is none.

        Synchronous on purpose: a caller that kicks and then does loop
        work (a kernel drive) really has the disk busy underneath it —
        a coroutine would submit nothing until the caller next yields."""
        current = self._round
        if current is None or current.done():
            current = self._round = asyncio.get_running_loop() \
                .run_in_executor(None, self._log.sync)
            current.add_done_callback(self._settled)
        return current

    def _settled(self, done: "asyncio.Future") -> None:
        if not done.cancelled() and done.exception() is not None:
            self._on_failure(done.exception())

    async def wait_durable(self) -> None:
        log = self._log
        target = log.appended
        while log.synced_records < target:
            # Shield: a cancelled waiter must not cancel the shared
            # round other waiters (and the durability promise) ride on.
            await asyncio.shield(self.kick())


def _history_row(entry: typing.Any) -> bytes:
    """One engine history entry as the bytes of its ``status`` row."""
    return compact_json(
        {"gid": encode_value(entry.gid),
         "kind": entry.kind.value,
         "seq": entry.seq, "commit_time": entry.commit_time,
         "reads": encode_value(dict(entry.reads)),
         "writes": encode_value(dict(entry.writes))}
    ).encode("ascii")


def live_system_config(spec: ClusterSpec) -> SystemConfig:
    """The live cost profile: real CPU, real network, real timeouts."""
    return SystemConfig(
        lock_timeout=spec.params.deadlock_timeout,
        network_latency=0.0,
        cpu_txn_setup=0.0, cpu_per_op=0.0, cpu_commit=0.0,
        cpu_message=0.0, cpu_apply_write=0.0, cpu_remote_read=0.0,
        cpu_quantum=0.001, cpu_cores=1)


def decode_spec(obj: typing.Mapping[str, typing.Any]) -> TransactionSpec:
    """Client-RPC transaction spec: {gid: [site, seq], origin, ops}."""
    gid = GlobalTransactionId(*obj["gid"])
    operations = tuple(
        Operation(OpType.READ if kind == "r" else OpType.WRITE, item)
        for kind, item in obj["ops"])
    return TransactionSpec(gid=gid, origin=int(obj["origin"]),
                           operations=operations)


def encode_spec(spec: TransactionSpec) -> typing.Dict[str, typing.Any]:
    return {
        "gid": [spec.gid.site, spec.gid.seq],
        "origin": spec.origin,
        "ops": [["r" if op.is_read else "w", op.item]
                for op in spec.operations],
    }


class SiteServer:
    """One live site: engine + WAL + protocol + TCP endpoint."""

    def __init__(self, spec: ClusterSpec, site_id: SiteId, wal_path: str,
                 faults: typing.Optional[typing.Any] = None):
        spec.validate()
        if spec.protocol not in LIVE_PROTOCOLS:
            raise ValueError(
                "protocol {!r} is not supported by the live runtime "
                "(supported: {})".format(spec.protocol,
                                         ", ".join(LIVE_PROTOCOLS)))
        self.spec = spec
        self.site_id = site_id
        self.wal_path = wal_path
        #: Per-process chaos fault injector, handed to the transport
        #: (see :mod:`repro.cluster.transport`).  Like the frame cap and
        #: durability level, deliberately outside the cluster
        #: fingerprint.
        self.faults = faults
        # Stable storage.  Loading a log is what refuses a corrupt file
        # (CorruptLogError) and repairs a torn tail, before anything
        # else of the site exists.
        self.wal = FileWal(wal_path, durability=spec.durability)
        self.journal = MessageJournal(wal_path + ".inbox",
                                      durability=spec.durability)
        # Group-commit coalescing off the event loop: fsync/flush
        # releases the GIL, so running each sync round in the default
        # executor lets decode/apply/drive proceed during the disk wait,
        # and every waiter that arrives mid-round shares the next one
        # (leader/follower).
        self._wal_syncer = _GroupCommitSyncer(self.wal, self._fail_stop)
        self._journal_syncer = _GroupCommitSyncer(self.journal,
                                                  self._fail_stop)
        self.placement = spec.build_placement()
        self.committed = 0
        self.aborted = 0
        self.recovered = False
        # Reconfiguration plane (repro.reconfig).  ``epoch`` is the
        # committed configuration epoch and ``pending_*`` the prepared,
        # uncommitted transition and its fence; recovery restores both
        # from the WAL's epoch records.  Note: distinct from ``_epoch``
        # below, the wall-clock anchor of the event loop.
        self.epoch = spec.epoch
        self.pending_epoch: typing.Optional[int] = None
        self.pending_change: typing.Optional[PlacementChange] = None
        self._fenced_items: typing.Set[ItemId] = set()
        self._pending_since: typing.Optional[float] = None
        # Observability plane (docs/OBSERVABILITY.md).
        self.metrics = MetricsRegistry()
        self.trace = TraceSink(site_id, path=wal_path + ".trace")
        self.apply_queue_hwm = 0
        #: Black-box flight recorder (docs/OBSERVABILITY.md): bounded
        #: rings of recent spans and events, dumped as
        #: an incident bundle on a trigger (``dump`` wire op, watchdog
        #: critical, chaos verdict, SIGTERM).
        self.flight = FlightRecorder(
            site_id, trace=self.trace, metrics=self.metrics,
            epoch=lambda: self.epoch,
            cluster={"n_sites": spec.params.n_sites,
                     "protocol": spec.protocol, "seed": spec.seed,
                     "base_port": spec.base_port},
            default_dir=os.path.dirname(os.path.abspath(wal_path)))
        self.flight.add_source("wal", lambda: _appender_stats(self.wal))
        self.flight.add_source("journal",
                               lambda: _appender_stats(self.journal))
        self.flight.add_source("watermarks", self._watermarks)
        self._m_frames_decoded = self.metrics.counter(
            "server.frames_decoded")
        self._m_frame_msgs = self.metrics.histogram(
            "server.frame_msgs", SIZE_BUCKETS)
        self._m_committed = self.metrics.counter("txn.committed")
        self._m_aborted = self.metrics.counter("txn.aborted")
        self._h_drive = self.metrics.histogram("server.drive_s")
        self._h_wal_sync = self.metrics.histogram("wal.sync_s")
        self._h_journal_sync = self.metrics.histogram("journal.sync_s")
        # Each sync round reports its duration and how many records it
        # coalesced — the group-commit amortization in histogram form.
        h_wal_records = self.metrics.histogram(
            "wal.sync_records", SIZE_BUCKETS)
        h_journal_records = self.metrics.histogram(
            "journal.sync_records", SIZE_BUCKETS)
        self.wal.observe_sync = \
            lambda dt, n: (self._h_wal_sync.observe(dt),
                           h_wal_records.observe(n))
        self.journal.observe_sync = \
            lambda dt, n: (self._h_journal_sync.observe(dt),
                           h_journal_records.observe(n))
        self._g_apply_queue = self.metrics.gauge("server.apply_queue")
        # Wire/apply stage instrumentation: seconds spent decoding one
        # inbound peer frame body, seconds spent on one apply round
        # (dispatch + kernel drive + journal barrier).
        self._h_decode = self.metrics.histogram("server.decode_s")
        self._h_apply = self.metrics.histogram("server.apply_s")
        # Stage timers along the inbound hot path (all perf_counter
        # deltas): socket wait for the next peer frames, time an apply
        # round blocks on the journal group-commit barrier, response/ack
        # serialization and socket write, and — shared with the
        # transport — time any waiter spends parked on the WAL
        # group-commit barrier.
        self._h_read_wait = self.metrics.histogram("server.read_wait_s")
        self._h_journal_wait = self.metrics.histogram(
            "server.journal_wait_s")
        self._h_encode = self.metrics.histogram("server.encode_s")
        self._h_write = self.metrics.histogram("server.write_s")
        self._h_wal_barrier = self.metrics.histogram(
            "wal.barrier_wait_s")
        self._g_epoch = self.metrics.gauge("reconfig.epoch")
        self._h_reconfig = self.metrics.histogram("reconfig.transition_s")
        self._m_fence_refusals = self.metrics.counter(
            "reconfig.fence_refusals")
        self._m_placement_refusals = self.metrics.counter(
            "reconfig.placement_refusals")
        self._closed = False
        #: The kernel exception this site fail-stopped on (see
        #: :meth:`_fail_stop`); ``serve_forever`` re-raises it.
        self.fatal: typing.Optional[BaseException] = None
        self._loop: typing.Optional[asyncio.AbstractEventLoop] = None
        self._epoch = 0.0
        self._timer: typing.Optional[asyncio.TimerHandle] = None
        self._tcp_server: typing.Optional[asyncio.AbstractServer] = None
        self._conn_writers: typing.Set[asyncio.StreamWriter] = set()
        self._shutdown_task: typing.Optional[asyncio.Task] = None
        self.env: typing.Optional[Environment] = None
        self.system: typing.Optional[ReplicatedSystem] = None
        self.transport: typing.Optional[LiveTransport] = None
        # Set by _accept_entry for a fresh entry the journal does not
        # hold; read and cleared by the same apply round, before its
        # first await.
        self._round_unjournaled = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Recover (if the WAL holds records), wire the system, begin
        serving."""
        self._loop = asyncio.get_running_loop()
        self._epoch = self._loop.time()
        self.env = Environment()
        # Peer channels always present the genesis fingerprint: every
        # member accepts it regardless of its current epoch, so peer
        # connections survive (and span) epoch transitions.
        self.transport = LiveTransport(
            self.site_id, self.spec.addresses(),
            fingerprint=self.spec.genesis_fingerprint(),
            max_batch=self.spec.batch,
            sync_hook=self._sync_wal,
            metrics=self.metrics,
            trace_sink=self.trace,
            faults=self.faults)
        self.system = ReplicatedSystem(
            self.env, self.placement, live_system_config(self.spec),
            transport=self.transport, local_sites=[self.site_id])
        self.system.observers.append(SpanObserver(self.trace))
        site = self.system.site_of(self.site_id)
        if self.wal.recovered_records:
            # Crash recovery: rebuild the engine from the redo log.
            site.engine = recover(
                self.env, self.site_id, self.wal,
                lock_timeout=self.spec.params.deadlock_timeout)
            self.recovered = True
        else:
            site.engine.attach_wal(self.wal)
            for item_id in sorted(site.engine.item_ids()):
                self.wal.append(
                    LogRecordKind.CREATE, item=item_id,
                    value=site.engine.item(item_id).value,
                    time=self.env.now)
            self.wal.sync()
        self.system.epoch = self.epoch
        commits = []
        if self.recovered:
            # Epoch recovery: the genesis placement plus the ordered
            # epoch-commit records IS the current configuration, and a
            # prepare that no commit or abort record follows is still
            # pending — it was synced before it answered, so its fence
            # holds across the restart.
            prepared = None
            for record in self.wal:
                if record.kind is LogRecordKind.EPOCH_PREPARE:
                    prepared = record
                elif record.kind is LogRecordKind.EPOCH_ABORT:
                    prepared = None
                elif record.kind is LogRecordKind.EPOCH_COMMIT:
                    commits.append((record.item, record.value))
                    prepared = None
            if commits:
                epoch, placement = replay_epochs(
                    self.spec.build_placement(), commits,
                    start_epoch=self.spec.epoch)
                self.epoch = epoch
                self.placement = placement
                self.system.swap_placement(placement, epoch)
            if prepared is not None and prepared.item == self.epoch + 1:
                self._set_pending(prepared.item,
                                  PlacementChange.from_json(prepared.value))
        self._g_epoch.set(self.epoch)
        self.flight.record_event("server-start", epoch=self.epoch,
                                 recovered=self.recovered)
        protocol = make_protocol(self.spec.protocol, self.system,
                                 **self.spec.protocol_options)
        self.system.use_protocol(protocol)
        self.system.remote_wound = self._remote_wound
        if self.recovered:
            # Re-seed the FIFO update stream from stable storage before
            # accepting live traffic: acknowledged-but-unapplied peer
            # updates (the inbox journal) and our own committed primary
            # updates whose forwards may have died with the old process.
            # The epoch's commit gossip goes first, as it did when the
            # commit happened: on every channel it precedes whatever we
            # send in this epoch, so a peer still one epoch behind
            # adopts the placement before an update that needs it.
            if commits:
                self._gossip_reconfig(
                    self.epoch, PlacementChange.from_json(commits[-1][1]))
            self._replay_journal()
            self._reforward_primaries()
        host, port = self.spec.address(self.site_id)
        self._tcp_server = await asyncio.start_server(
            self._on_connection, host, port)
        self._drive()

    async def serve_forever(self) -> None:
        await self.start()
        try:
            await self._tcp_server.serve_forever()
        except asyncio.CancelledError:
            pass
        if self.fatal is not None:
            raise self.fatal

    async def stop(self) -> None:
        """Graceful shutdown (state preserved in the WAL)."""
        await self._teardown()

    def kill(self) -> None:
        """Abrupt in-process crash: volatile state is abandoned, the WAL
        file survives.  Restart by constructing a fresh SiteServer with
        the same ``wal_path``."""
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
        if self._tcp_server is not None:
            self._tcp_server.close()
        # A real crash severs established connections too — peers and
        # clients must see the failure, not talk to a zombie.
        for writer in list(self._conn_writers):
            writer.transport.abort()
        if self.transport is not None:
            self.transport.closed = True
            for channel in self.transport._channels.values():
                channel.cancel()
        # A crash loses the group-commit buffers too: records that
        # never reached a sync point were never promised to anyone
        # (no response, ack or forward went out for them), so dropping
        # them here is exactly what recovery is specified against.
        self.wal.abandon()
        self.journal.abandon()
        # Trace spans are diagnostics, not promises — keeping them
        # through a simulated crash only helps the post-mortem.
        self.trace.close()

    async def _teardown(self) -> None:
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        for writer in list(self._conn_writers):
            writer.close()
        if self.transport is not None:
            await self.transport.close()
        self.wal.close()
        self.journal.close()
        self.trace.close()

    # ------------------------------------------------------------------
    # The real-time clock driver
    # ------------------------------------------------------------------

    def _wall(self) -> float:
        return self._loop.time() - self._epoch

    def _advance(self) -> None:
        """Run the environment through everything due by wall-now and
        leave its clock there.  Called on its own before external input
        is injected, so a submission or delivery is stamped with the
        time it arrived rather than the previous drive's."""
        env = self.env
        try:
            while True:
                env.run(until=max(env.now, self._wall()))
                if env.peek() > self._wall():
                    break
        except Exception as exc:
            self._fail_stop(exc)

    def _drive(self) -> None:
        """:meth:`_advance`, then arm a timer for the next purely-timed
        event."""
        if self._closed:
            return
        started = time.perf_counter()
        self._advance()
        self._h_drive.observe(time.perf_counter() - started)
        if not self._closed:
            self._arm_timer()

    def _fail_stop(self, exc: BaseException) -> None:
        """An exception out of the kernel or a failed log sync means
        engine, protocol or log state can no longer be trusted:
        crash-stop.  The site stops like :meth:`kill` (listeners closed,
        connections aborted, only synced log records survive), peers see
        a dead site rather than a zombie, and ``serve_forever`` re-raises
        so ``repro serve`` dumps its flight bundle and exits non-zero.
        A site already stopped has nothing left to stop."""
        if self._closed:
            return
        self.fatal = exc
        self.flight.record_event("fatal", error=repr(exc))
        self.kill()

    def _arm_timer(self) -> None:
        """Arm a timer for the next purely-timed event — unless the one
        armed already fires no later."""
        when = self._epoch + self.env.peek()
        timer = self._timer
        if timer is not None:
            if timer.when() <= when:
                return
            timer.cancel()
        if when != float("inf"):
            self._timer = self._loop.call_at(when, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        self._drive()

    # ------------------------------------------------------------------
    # Transactions (client plane)
    # ------------------------------------------------------------------

    def submit_transaction(self, spec: TransactionSpec
                           ) -> "asyncio.Future":
        """Spawn a primary transaction; resolves to (status, reason,
        elapsed_seconds)."""
        future = self._loop.create_future()
        protocol = self.system.protocol
        env = self.env
        process_ref: list = []

        def body():
            start = env.now
            try:
                yield from protocol.run_transaction(
                    spec.origin, spec, process_ref[0])
            except TransactionAborted as exc:
                self.aborted += 1
                self._m_aborted.inc()
                _resolve(future, ("aborted", exc.reason,
                                  env.now - start))
                return
            self.committed += 1
            self._m_committed.inc()
            _resolve(future, ("committed", None, env.now - start))

        self._advance()
        process_ref.append(env.process(body()))
        self._drive()
        return future

    # ------------------------------------------------------------------
    # Peer plane
    # ------------------------------------------------------------------

    def _remote_wound(self, gid: GlobalTransactionId,
                      reason: str) -> None:
        if gid.site == self.site_id or self._closed:
            return
        self.transport.send(MessageType.WOUND, self.site_id, gid.site,
                            gid=gid, reason=reason)

    def _sync_wal(self) -> typing.Optional[typing.Awaitable[None]]:
        """Durability barrier: group-committed WAL records reach stable
        storage.  Runs before any outbound peer frame (a forwarded
        update implies its commit record is stable) and before the ack
        of an apply round holding an unjournalled message; a client
        response keeps the same promise through :meth:`_respond_durable`.

        Returns ``None`` when already durable, otherwise an awaitable
        that resolves once the records are stable — the sync itself
        runs in the executor so the event loop keeps decoding and
        applying during the disk wait, and concurrent waiters coalesce
        into shared group-commit rounds.
        """
        if self.wal.synced_records >= self.wal.appended:
            return None
        return self._wal_syncer.wait_durable()

    def _accept_entry(self, incarnation: str, seq: int,
                      obj_msg: typing.Mapping[str, typing.Any]) -> None:
        """Dedup/journal/dispatch one channel entry (no kernel drive —
        the peer loop drives once per round, however many entries it
        carried).  The round's ack covers duplicates too: the sender
        needs them acked to retire its unacked queue."""
        message = decode_message(obj_msg)
        if message.dst != self.site_id:
            self.transport.dead_letters.append(message)
            return
        if not self.transport.fresh(message.src, incarnation, seq):
            return  # transport-level resend
        trace = message_trace_id(message)
        if trace:
            self.trace.emit("received", trace=trace, peer=message.src,
                            type=message.msg_type.value)
        if message.msg_type is MessageType.SECONDARY:
            # Journal before ack: once the sender retires this update,
            # the journal is the only copy that survives our crash.
            # Appends buffer; the peer loop syncs before the ack.
            self.journal.append(message.src, incarnation, seq, obj_msg)
            if trace:
                self.trace.emit("journaled", trace=trace,
                                peer=message.src,
                                type=message.msg_type.value)
        else:
            self._round_unjournaled = True
        if message.msg_type is MessageType.WOUND:
            self._on_wound(message)
        elif message.msg_type is MessageType.RECONFIG:
            self._on_reconfig(message)
        else:
            self.transport.deliver(message)

    def _apply_frame(self, frame: typing.Mapping) -> typing.Optional[int]:
        """Accept one ``batch`` frame's entries; returns the cumulative
        ack sequence (``None`` if the frame carried nothing to ack).

        Every entry is dedup-checked, journalled (buffered, not
        synced) and dispatched in arrival order.  Nothing here syncs,
        drives or acks: :meth:`_peer_loop` does each once per round,
        over all the frames the round covers."""
        if frame.get("kind") != "batch":
            raise CodecError("not a batch frame: {!r}".format(
                frame.get("kind")))
        incarnation = str(frame.get("inc", ""))
        msgs = frame.get("msgs")
        if not isinstance(msgs, list):
            raise CodecError("batch frame without a msgs list")
        last_seq: typing.Optional[int] = None
        for item in msgs:
            try:
                seq = int(item["seq"])
                obj_msg = item["msg"]
            except (TypeError, KeyError, ValueError):
                raise CodecError("malformed batch entry")
            self._accept_entry(incarnation, seq, obj_msg)
            last_seq = seq
        self._m_frames_decoded.inc()
        self._m_frame_msgs.observe(len(msgs))
        return last_seq

    def _on_wound(self, message: Message) -> None:
        txn = self.system.primaries.get(message.payload["gid"])
        if txn is not None:
            txn.wound(message.payload.get("reason", "remote-wound"))

    # ------------------------------------------------------------------
    # Crash recovery (stream repair)
    # ------------------------------------------------------------------

    def _replay_journal(self) -> None:
        """Re-deliver journalled peer updates in their arrival order.

        Restores the transport dedup table (so live resends of these
        are dropped) and refills the protocol queue; the engine-level
        ``has_applied`` filter skips whatever the WAL already committed,
        so replay past the durable point is idempotent."""
        for entry in self.journal.entries:
            message = decode_message(entry["msg"])
            trace = message_trace_id(message)
            if trace:
                self.trace.emit("replayed", trace=trace, peer=message.src,
                                type=message.msg_type.value)
            self.transport.accept(int(entry["src"]), entry["inc"],
                                  int(entry["seq"]), message)

    def _reforward_primaries(self) -> None:
        """Re-forward every committed local primary from the WAL.

        A crash loses the outbound channels' volatile queues, and a
        primary's commit and its forward are only atomic within one
        process lifetime — so after recovery we re-send all of them, in
        commit order, and rely on replica-side idempotency to drop the
        ones that already arrived.  Safe to interleave with journal
        replay: journalled updates carry items whose primary is another
        site, so the two streams never write-conflict."""
        protocol = self.system.protocol
        for record in self.wal:
            if record.kind is not LogRecordKind.COMMIT or \
                    record.txn_kind is not SubtransactionKind.PRIMARY:
                continue
            replicated = {
                item: value
                for item, value in sorted(record.value.items())
                if self.placement.is_replicated(item)}
            if replicated:
                protocol._forward(self.site_id, record.gid, replicated)

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._conn_writers.add(writer)
        try:
            hello = await read_frame(reader)
            if hello is None or hello.get("kind") != "hello":
                return
            fingerprint = hello.get("fingerprint", "")
            if fingerprint and \
                    fingerprint not in self._accepted_fingerprints():
                # The epoch hint lets a client whose spec merely lags
                # the cluster re-sync and retry; a genuinely mismatched
                # cluster config still presents neither accepted
                # fingerprint after adopting the epoch.
                await write_frame(writer, {
                    "kind": "error",
                    "error": "cluster fingerprint mismatch "
                             "(server epoch {})".format(self.epoch),
                    "epoch": self.epoch})
                return
            if hello.get("role") == "peer":
                await self._peer_loop(reader, writer,
                                      hello.get("site"))
            else:
                await self._client_loop(reader, writer)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            self._conn_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _peer_loop(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter,
                         peer: typing.Optional[SiteId]) -> None:
        """One coroutine per inbound peer connection: each pass makes one
        read and runs one apply *round* over every frame it returned.
        Frames that arrive during a round's sync wait in the
        ``StreamReader`` — which pauses the socket above twice its
        64 KiB limit, and then the sender's unacked window fills — and
        form the next round.

        A round accepts its frames in arrival order, then pays the
        per-round costs once: ONE journal sync covering all their
        durable entries, ONE kernel drive, ONE cumulative ack carrying
        the last frame's sequence.  Senders frame at their own WAL-sync
        cadence, so under load a backlog arrives as many small frames;
        charging the sync barrier per frame is what let it grow.

        Ack invariant (journal-then-ack): no ack byte is written before
        the journal sync covering every entry the ack retires has
        completed.  The sync is kicked into the executor *before* the
        drive, so the disk wait and the protocol work overlap; the ack
        waits for both.  A round that accepted anything the journal
        does not hold (a 2PC decision, which commits a backedge
        subtransaction here) also waits for the WAL: once acked, such a
        message is gone from its sender, and only the log still holds
        what it caused.  The ack is queued on the connection's
        coalescing writer, never behind a drain.

        An exception out of a round (a failed sync) fail-stops the
        site; a socket error or an over-cap frame ends only this
        connection."""
        frames = FrameReader(reader, on_decode=self._h_decode.observe)
        out = FrameWriter(writer, on_encode=self._h_encode.observe,
                          on_write=self._h_write.observe)
        while not self._closed:
            reading = time.perf_counter()
            batch = await frames.frames()
            if batch is None:
                return
            started = time.perf_counter()
            # Socket wait for this read, decode included (the decode
            # share is histogrammed separately).
            self._h_read_wait.observe(started - reading)
            # The backlog this wake found: the frames one round takes.
            if len(batch) > self.apply_queue_hwm:
                self.apply_queue_hwm = len(batch)
            self._g_apply_queue.set(len(batch))
            self._advance()
            if self._closed:
                return  # fail-stopped: accept (and ack) nothing more
            try:
                last_seq: typing.Optional[int] = None
                for frame in batch:
                    try:
                        seq = self._apply_frame(frame)
                        if seq is not None:
                            last_seq = seq
                    except CodecError as exc:
                        self.flight.record_event(
                            "malformed-peer-frame", peer=peer,
                            error=repr(exc))
                unsynced = \
                    self.journal.synced_records < self.journal.appended
                if unsynced:
                    self._journal_syncer.kick()
                self._drive()
                unjournaled, self._round_unjournaled = \
                    self._round_unjournaled, False
                if unsynced:
                    waited = time.perf_counter()
                    await self._journal_syncer.wait_durable()
                    self._h_journal_wait.observe(
                        time.perf_counter() - waited)
                barrier = self._sync_wal() if unjournaled else None
                if barrier is not None:
                    await barrier
            except Exception as exc:
                self._fail_stop(exc)
                return
            self._h_apply.observe(time.perf_counter() - started)
            if last_seq is not None:
                # The sender retires everything <= last_seq on this one
                # cumulative ack.  On a dying connection the bytes go
                # nowhere; the unacked sender resends through the dedup
                # filter.
                out.write({"kind": "ack", "seq": last_seq})
                out.flush()

    async def _client_loop(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        """Requests are answered inline once their result is ready (the
        answers one read releases leave in one write); a dump is a task."""
        frames = FrameReader(reader)
        out = FrameWriter(writer, on_encode=self._h_encode.observe,
                          on_write=self._h_write.observe)
        dumps: typing.Set[asyncio.Task] = set()
        try:
            while not self._closed:
                batch = await frames.frames()
                if batch is None:
                    return
                for frame in batch:
                    if self._closed:
                        return  # crashed mid-read: serve nothing more
                    if frame.get("kind") == "req":
                        self._serve(frame, out, dumps)
                out.flush()
                await out.drain()
        finally:
            for task in dumps:
                task.cancel()

    def _serve(self, frame: typing.Mapping, out: FrameWriter,
               dumps: typing.Set[asyncio.Task]) -> None:
        rid, op = frame.get("rid"), frame.get("op")
        if op == "dump":
            task = self._loop.create_task(self._dump_op(frame, rid, out))
            dumps.add(task)
            task.add_done_callback(dumps.discard)
            return
        try:
            response = (self._txn_op(frame, rid, out) if op == "txn"
                        else self._dispatch(frame))
        except Exception as exc:
            response = {"ok": False, "error": repr(exc)}
        if response is not None:
            self._respond(rid, response, out)

    def _txn_op(self, frame: typing.Mapping, rid: typing.Any,
                out: FrameWriter
                ) -> typing.Optional[typing.Dict[str, typing.Any]]:
        """A refusal is the response; a submitted transaction is answered
        once the kernel resolves it — inline when the drive did."""
        spec = decode_spec(frame["spec"])
        if spec.origin != self.site_id:
            return {"ok": False,
                    "error": "transaction for s{} sent to s{}".format(
                        spec.origin, self.site_id)}
        refusal = self._txn_refusal(spec)
        if refusal is not None:
            # Refused before touching the engine: an "aborted" outcome,
            # not an error — the client's workload loop counts it and
            # moves on, exactly as for a lock-timeout abort.
            self.aborted += 1
            self._m_aborted.inc()
            return {"ok": True, "status": "aborted",
                    "reason": refusal, "elapsed": None}
        future = self.submit_transaction(spec)
        if future.done():
            self._respond_durable(rid, future, out)
        else:
            future.add_done_callback(
                lambda done: self._respond_durable(rid, done, out))
        return None

    def _respond_durable(self, rid: typing.Any, future: "asyncio.Future",
                         out: FrameWriter) -> None:
        """Group-commit barrier: an outcome reaches the client only once
        the WAL holds everything appended so far (the commit it reports,
        or the write a read-only transaction read).  Until then it rides
        the shared sync rounds, and every response one round releases
        leaves in the same flush — that coalescing IS the group commit."""
        status, reason, elapsed = future.result()
        response = {"ok": True, "status": status, "reason": reason,
                    "elapsed": elapsed}
        target, waited = self.wal.appended, time.perf_counter()

        def release(done: typing.Optional[asyncio.Future] = None) -> None:
            if self._closed or (done is not None and done.exception()):
                return  # crashed, or a failed sync: promise nothing
            if self.wal.synced_records < target:
                self._wal_syncer.kick().add_done_callback(release)
                return
            if done is not None:
                self._h_wal_barrier.observe(time.perf_counter() - waited)
            self._respond(rid, response, out)

        release()

    def _respond(self, rid: typing.Any,
                 response: typing.Dict[str, typing.Any],
                 out: FrameWriter) -> None:
        response["kind"] = "resp"
        response["rid"] = rid
        entries = response.pop("_history_entries", None)
        if entries is None:
            out.write(response)
        else:
            # ``status``: the history rows are spliced in pre-encoded.
            started = time.perf_counter()
            chunks = encode_frame_chunks(
                response, "history",
                [_history_row(entry) for entry in entries])
            self._h_encode.observe(time.perf_counter() - started)
            out.write_chunks(chunks)
        out.flush_soon()
        # Requests that end the server act after the response is out.
        if response.get("_shutdown"):
            out.flush()
            self._shutdown_task = self._loop.create_task(self._teardown())
        elif response.get("_crash"):
            out.flush()
            self.kill()

    def _dispatch(self, frame: typing.Mapping
                  ) -> typing.Dict[str, typing.Any]:
        """Every request but ``txn`` and ``dump``, answered inline."""
        op = frame.get("op")
        if op == "ping":
            return {"ok": True, "site": self.site_id,
                    "protocol": self.spec.protocol,
                    "epoch": self.epoch,
                    "recovered": self.recovered}
        if op == "status":
            return self._status()
        if op == "versions":
            # Lightweight recency plane: committed versions only, no
            # values and no history — cheap enough for the watchdog
            # to poll mid-workload without perturbing the run.
            engine = self.system.site_of(self.site_id).engine
            return {"ok": True, "site": self.site_id,
                    "epoch": self.epoch,
                    "versions": encode_value(
                        {item: engine.item(item).committed_version
                         for item in engine.item_ids()})}
        if op == "stats":
            return {"ok": True, "site": self.site_id,
                    "stats": self.metrics.snapshot()}
        if op == "trace":
            # Span tail, optionally filtered to one trace id.  The
            # limit keeps the response under the wire frame cap.
            limit = min(int(frame.get("limit") or 20000), 20000)
            trace = frame.get("trace")
            return {"ok": True, "site": self.site_id,
                    "spans": self.trace.spans(trace=trace, limit=limit),
                    "dropped": self.trace.dropped}
        if op == "placement":
            # ``tree``: each site's parent in the propagation tree updates
            # relay along, or None when they go straight to replicas.
            tree = getattr(self.system.protocol, "tree", None)
            return {"ok": True, "site": self.site_id,
                    "epoch": self.epoch,
                    "pending_epoch": self.pending_epoch,
                    "placement": self.placement.to_json(),
                    "tree": None if tree is None else [
                        tree.parent.get(site)
                        for site in range(self.placement.n_sites)]}
        if op == "reconfig_status":
            return {"ok": True, "site": self.site_id,
                    "epoch": self.epoch,
                    "pending_epoch": self.pending_epoch,
                    "fenced": sorted(self._fenced_items),
                    "pending_change": (self.pending_change.to_json()
                                       if self.pending_change else None)}
        if op == "reconfig_prepare":
            return self._reconfig_prepare(int(frame["epoch"]),
                                          dict(frame["change"]))
        if op == "reconfig_commit":
            return self._reconfig_commit(int(frame["epoch"]),
                                         dict(frame["change"]))
        if op == "reconfig_abort":
            return self._reconfig_abort(int(frame["epoch"]))
        if op == "reconfig_state":
            return self._reconfig_state(int(frame["item"]))
        if op == "crash":
            return {"ok": True, "_crash": True}
        if op == "shutdown":
            return {"ok": True, "_shutdown": True}
        return {"ok": False, "error": "unknown op {!r}".format(op)}

    async def _dump_op(self, frame: typing.Mapping, rid: typing.Any,
                       out: FrameWriter) -> None:
        """``dump`` wire op: freeze the flight recorder into an
        incident bundle.  Record gathering runs inline on the loop
        (pure memory work); the atomic file write runs in the executor,
        so in-flight transactions and acks are never stalled behind the
        dump.  Retry-safe — a repeated dump just writes another
        bundle."""
        trigger = str(frame.get("trigger") or "wire")
        out_dir = frame.get("dir")
        try:
            path = await self.flight.dump_async(
                trigger, out_dir=str(out_dir) if out_dir else None)
        except Exception as exc:
            response = {"ok": False, "error": "dump failed: {}".format(exc)}
        else:
            response = {"ok": True, "site": self.site_id, "path": path,
                        "trigger": trigger,
                        "records": self.flight.last_dump_records}
        self._respond(rid, response, out)

    def _watermarks(self) -> typing.Dict[str, typing.Any]:
        """Applied-version watermarks for the flight recorder: every
        locally held item's committed version (the same numbers the
        ``versions`` op serves)."""
        if self.system is None:
            return {}
        engine = self.system.site_of(self.site_id).engine
        return {str(item): engine.item(item).committed_version
                for item in sorted(engine.item_ids())}

    # ------------------------------------------------------------------
    # Reconfiguration plane (repro.reconfig)
    # ------------------------------------------------------------------

    def _accepted_fingerprints(self) -> typing.Set[str]:
        """Hello fingerprints this member accepts: genesis (so fresh
        clients and peer channels always join) plus the current epoch's.
        """
        return {self.spec.genesis_fingerprint(),
                dataclasses.replace(self.spec,
                                    epoch=self.epoch).fingerprint()}

    def _txn_refusal(self, spec: TransactionSpec
                     ) -> typing.Optional[str]:
        """Placement legality of a client transaction at this site
        (``None`` when legal).

        Under partial replication a client working from a stale epoch
        may target a site that no longer holds a copy (reads) or is no
        longer the primary (writes); executing against the frozen local
        record would hand out stale data and break serializability.
        Writes on fenced items are refused while their epoch transition
        quiesces."""
        for operation in spec.operations:
            item = operation.item
            try:
                if operation.is_read:
                    if self.site_id not in self.placement.sites_of(item):
                        self._m_placement_refusals.inc()
                        return ("no copy of item {} at s{} in epoch {}"
                                .format(item, self.site_id, self.epoch))
                else:
                    if self.placement.primary_site(item) != self.site_id:
                        self._m_placement_refusals.inc()
                        return ("s{} is not the primary of item {} in "
                                "epoch {}".format(self.site_id, item,
                                                  self.epoch))
                    if item in self._fenced_items:
                        self._m_fence_refusals.inc()
                        return ("item {} is fenced for the epoch {} "
                                "transition".format(
                                    item, self.pending_epoch))
            except PlacementError as exc:
                self._m_placement_refusals.inc()
                return str(exc)
        return None

    def _reconfig_prepare(self, epoch: int,
                          change_json: typing.Dict
                          ) -> typing.Dict[str, typing.Any]:
        """Phase 1 of an epoch transition at this member: journal the
        proposal, synced before the answer, and fence writes on the
        affected items.  The synced record is the fence: recovery
        restores it.  Nothing is created or sent: gained copies are
        installed at commit.  Idempotent for re-prepares of the same
        (epoch, change)."""
        if epoch <= self.epoch:
            return {"ok": True, "site": self.site_id,
                    "epoch": self.epoch, "already_committed": True}
        if epoch != self.epoch + 1:
            return {"ok": False,
                    "error": "cannot prepare epoch {} from epoch {}"
                             .format(epoch, self.epoch)}
        try:
            change = PlacementChange.from_json(change_json)
            change.apply(self.placement)  # structural validation
        except ReconfigError as exc:
            return {"ok": False, "error": str(exc)}
        if self.pending_epoch is not None and \
                self.pending_change != change:
            return {"ok": False,
                    "error": "epoch {} already pending with a different "
                             "change".format(self.pending_epoch)}
        if self.pending_epoch is None:
            self.wal.append(LogRecordKind.EPOCH_PREPARE, item=epoch,
                            value=change.to_json(), time=self.env.now)
            self.wal.sync()
            self._pending_since = self._loop.time()
        self._set_pending(epoch, change)
        return {"ok": True, "site": self.site_id, "epoch": self.epoch,
                "pending_epoch": epoch,
                "fenced": sorted(self._fenced_items)}

    def _reconfig_state(self, item: ItemId
                        ) -> typing.Dict[str, typing.Any]:
        """The value, version and writer lineage of ``item`` here, for
        the coordinator to carry to the sites that gain a copy.

        Refused (the answer says why under ``refused``) unless this site
        is the item's primary, the item is fenced here and no lock on it
        is held or awaited: the fence stops new writers and a lock-free
        item has none in flight, so the state read stays final until
        this site's own epoch commit.  The WAL is synced first, so no
        installed version can outlive a crash of this primary."""
        engine = self.system.site_of(self.site_id).engine
        locks = engine.locks
        if self.placement.primary_site(item) != self.site_id or \
                item not in self._fenced_items or locks.holders(item) or \
                any(request.item == item
                    for request in locks.waiting_requests()):
            return {"ok": True, "site": self.site_id,
                    "refused": "item {} is not a fenced, quiet primary "
                               "copy at s{}".format(item, self.site_id)}
        self.wal.sync()
        record = engine.item(item)
        return {"ok": True, "site": self.site_id, "state": {
            "item": item, "value": encode_value(record.value),
            "version": record.committed_version,
            "writers": [[gid.site, gid.seq] for gid in record.writers]}}

    def _reconfig_commit(self, epoch: int,
                         change_json: typing.Dict
                         ) -> typing.Dict[str, typing.Any]:
        """Phase 2: install the copies this member gains, journal the
        epoch commit (synced — the swap must survive a crash, and the
        same sync makes the install durable) and atomically adopt the
        new placement and propagation tree.  Carries the full change so
        a member that committed through gossip needs no prepare; a
        gaining member refuses a change without its install, and a
        member that gains nothing is sent none.  Idempotent for members
        already at or past ``epoch``."""
        if epoch <= self.epoch:
            return {"ok": True, "site": self.site_id,
                    "epoch": self.epoch, "already_committed": True}
        if epoch != self.epoch + 1:
            return {"ok": False,
                    "error": "cannot commit epoch {} from epoch {}"
                             .format(epoch, self.epoch)}
        try:
            change = PlacementChange.from_json(change_json)
            new_placement = change.apply(self.placement)
        except ReconfigError as exc:
            return {"ok": False, "error": str(exc)}
        install = {state["item"]: state for state in change.install or ()}
        gained = change.gained_items(self.placement, self.site_id)
        if not gained <= set(install):
            return {"ok": False,
                    "error": "epoch {} change carries no install for "
                             "gained item(s) {}".format(
                                 epoch, sorted(gained - set(install)))}
        engine = self.system.site_of(self.site_id).engine
        for item in sorted(gained):
            state = install[item]
            writers = [GlobalTransactionId(*gid) for gid in state["writers"]]
            if not engine.has_item(item):
                engine.create_item(item)
            engine.install(item, decode_value(state["value"]),
                           state["version"], writers)
        self.wal.append(LogRecordKind.EPOCH_COMMIT, item=epoch,
                        value=change.to_json(), time=self.env.now)
        self.wal.sync()
        self.placement = new_placement
        self.system.swap_placement(new_placement, epoch)
        self.epoch = epoch
        self._set_pending(None, None)
        self._g_epoch.set(epoch)
        self.flight.record_event("epoch-commit", epoch=epoch,
                                 change=change.to_json())
        if self._pending_since is not None:
            self._h_reconfig.observe(
                self._loop.time() - self._pending_since)
            self._pending_since = None
        self._gossip_reconfig(epoch, change)
        return {"ok": True, "site": self.site_id, "epoch": self.epoch}

    def _reconfig_abort(self, epoch: int
                        ) -> typing.Dict[str, typing.Any]:
        """Drop a pending epoch and its fence; the synced abort record
        keeps recovery from restoring them."""
        if self.pending_epoch == epoch:
            self.wal.append(LogRecordKind.EPOCH_ABORT, item=epoch,
                            time=self.env.now)
            self.wal.sync()
            self._set_pending(None, None)
            self._pending_since = None
        return {"ok": True, "site": self.site_id, "epoch": self.epoch}

    def _set_pending(self, epoch: typing.Optional[int],
                     change: typing.Optional[PlacementChange]) -> None:
        self.pending_epoch = epoch
        self.pending_change = change
        self._fenced_items = set(change.affected_items(self.placement)) \
            if change is not None else set()

    def _gossip_reconfig(self, epoch: int,
                         change: PlacementChange) -> None:
        """Tell every peer about a committed epoch: the one way a member
        that missed the commit catches up.  The install goes only to
        the peers that gain a copy."""
        gainers = change.gaining_sites()
        bare = dataclasses.replace(change, install=None).to_json()
        for peer in range(self.placement.n_sites):
            if peer != self.site_id:
                self.transport.send(
                    MessageType.RECONFIG, self.site_id, peer, epoch=epoch,
                    change=change.to_json() if peer in gainers else bare)

    def _on_reconfig(self, message: Message) -> None:
        epoch = int(message.payload["epoch"])
        if epoch == self.epoch + 1:
            self._reconfig_commit(epoch, dict(message.payload["change"]))

    def _status(self) -> typing.Dict[str, typing.Any]:
        engine = self.system.site_of(self.site_id).engine
        items = {
            item: {"value": engine.item(item).value,
                   "version": engine.item(item).committed_version}
            for item in engine.item_ids()}
        # Durability counters, one sub-dict per log.
        wal_stats = _appender_stats(self.wal)
        wal_stats["records"] = len(self.wal)
        journal_stats = _appender_stats(self.journal)
        journal_stats["records"] = len(self.journal)
        return {
            "ok": True,
            "site": self.site_id,
            "now": self.env.now,
            "committed": self.committed,
            "aborted": self.aborted,
            "items": encode_value(items),
            # The history is the bulk of the reply and grows with every
            # commit: _respond encodes each entry on its own and
            # splices it into the frame (codec.encode_frame_chunks).
            "_history_entries": list(engine.history),
            "messages_sent": self.transport.total_sent,
            "messages_by_type": {
                msg_type.value: count for msg_type, count
                in self.transport.sent_by_type.items()},
            "pending_out": self.transport.pending_out,
            "frames_sent": self.transport.frames_sent,
            "connects": self.transport.connects,
            "resent_messages": self.transport.resent_messages,
            "dedup_dropped": self.transport.dedup_dropped,
            "batch": self.spec.batch,
            "durability": self.spec.durability,
            "wal": wal_stats,
            "journal": journal_stats,
            "apply_queue_hwm": self.apply_queue_hwm,
            "epoch": self.epoch,
            "pending_epoch": self.pending_epoch,
            "epoch_skew": getattr(self.system.protocol, "epoch_skew", 0),
            "recovered": self.recovered,
        }


def _appender_stats(log) -> typing.Dict[str, int]:
    """Durability counters of a :class:`FileWal`/:class:`MessageJournal`."""
    return {
        "appended": log.appended,
        "syncs": log.syncs,
        "bytes": log.bytes_written,
        "pending": log.pending_sync,
        "abandoned": log.abandoned,
        "sync_seconds": round(log.sync_seconds, 6),
    }


def _resolve(future: "asyncio.Future", value) -> None:
    if not future.done():
        future.set_result(value)
