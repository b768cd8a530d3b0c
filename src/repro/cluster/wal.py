"""Durable write-ahead log: the sim's redo log, persisted as JSONL.

A :class:`FileWal` is a drop-in :class:`~repro.storage.log.WriteAheadLog`
whose every appended record is also written to a file, one JSON object
per line, using the cluster wire codec for values.  On construction it
loads whatever the file already holds, so

    engine = recover(env, site_id, FileWal(path))

rebuilds a crashed site's committed state exactly as the in-memory
recovery story does in the simulator — the file plays the role of
stable storage that survives the process.

Durability levels (honest about what each survives):

``"none"``
    Records stay in the Python file buffer until the OS decides to
    drain it.  A process crash can lose them.  Fastest; only for
    throwaway runs.
``"flush"`` (default)
    Every sync ``flush()`` es to the OS page cache.  Survives a process
    crash (the historical behaviour of this module), **not** an OS
    crash or power loss.
``"fsync"``
    Every sync additionally calls :func:`os.fsync`.  Survives power
    loss, at the price of a real disk round trip per sync.

Group commit: with ``group_commit=True`` appends are buffered and a
*sync point* — an explicit :meth:`FileWal.sync`, the ``max_pending``
size cap, or the ``flush_interval`` timer — writes all of them with
**one** ``write`` + one ``flush`` (+ one ``fsync``), amortizing the
per-record syscall cost across every transaction that committed since
the last sync.  The durability promise attaches to the sync, not the
append: callers must sync before any externally visible action
(client response, peer ack, outbound forward) that implies the record
is stable.  :class:`~repro.cluster.server.SiteServer` does exactly
that.

Crash tolerance: a crash can tear the tail of a group-committed block
mid-record.  Only newline-terminated records count on reload; an
unterminated tail is dropped and truncated away (it was never promised
— the sync that wrote it did not complete, so no response or ack went
out for it).  A malformed line *before* the tail cannot be produced by
a torn write and raises :class:`CorruptLogError`.

Every record carries a CRC32 (field ``"c"``) over its canonical JSON
serialization, verified on reload.  A torn tail is in-model crash
damage and repairs silently; a terminated line whose checksum is
missing or wrong is out-of-model damage (bit rot, a corrupting
middlebox, an operator accident) and raises :class:`CorruptLogError` —
a flipped bit can never be silently accepted as a valid record.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
import typing
import zlib

from repro.cluster.codec import decode_value, encode_value
from repro.storage.log import LogRecord, LogRecordKind, WriteAheadLog
from repro.types import SubtransactionKind

#: Valid durability levels, weakest to strongest.
DURABILITY_LEVELS = ("none", "flush", "fsync")


class CorruptLogError(ValueError):
    """A malformed record somewhere other than a torn tail."""


def record_checksum(obj: typing.Mapping[str, typing.Any]) -> int:
    """CRC32 of a record's canonical serialization (sans ``"c"``)."""
    material = json.dumps(
        {key: value for key, value in obj.items() if key != "c"},
        sort_keys=True)
    return zlib.crc32(material.encode("utf-8")) & 0xFFFFFFFF


def _checksummed_line(obj: typing.Mapping[str, typing.Any]) -> str:
    """One JSONL line carrying the record plus its CRC32.

    Serializes the record ONCE: the canonical sorted dump is both the
    checksum material and the line body — ``"c"`` sorts before every
    key the WAL and journal use, so splicing it in front reproduces
    ``json.dumps({**obj, "c": crc}, sort_keys=True)`` byte for byte at
    half the encoding cost."""
    material = json.dumps(obj, sort_keys=True)
    crc = zlib.crc32(material.encode("utf-8")) & 0xFFFFFFFF
    if material == "{}":
        return '{"c": %d}\n' % crc
    return '{"c": %d, %s\n' % (crc, material[1:])


def _load_jsonl(path: str) -> typing.Tuple[
        typing.List[typing.Dict[str, typing.Any]], bool]:
    """Load a JSONL file, tolerating (and repairing) a torn tail.

    Returns ``(objects, torn)``.  Only newline-terminated lines count
    as records; an unterminated tail is the signature of a write torn
    by a crash and is truncated off the file so later appends start at
    a clean record boundary.  A malformed *terminated* line cannot come
    from a torn append-only write and raises :class:`CorruptLogError`.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    objects: typing.List[typing.Dict[str, typing.Any]] = []
    offset = 0
    torn = False
    while offset < len(data):
        end = data.find(b"\n", offset)
        if end == -1:
            torn = True
            break
        raw = data[offset:end].strip()
        if raw:
            try:
                obj = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise CorruptLogError(
                    "{}: malformed record at byte {}: {}".format(
                        path, offset, exc)) from None
            if not isinstance(obj, dict):
                raise CorruptLogError(
                    "{}: record at byte {} is not an object".format(
                        path, offset))
            if "c" not in obj:
                raise CorruptLogError(
                    "{}: record at byte {} has no checksum".format(
                        path, offset))
            stored = obj.pop("c")
            if stored != record_checksum(obj):
                raise CorruptLogError(
                    "{}: record at byte {} fails its checksum "
                    "(stored {!r}, computed {})".format(
                        path, offset, stored, record_checksum(obj)))
            objects.append(obj)
        offset = end + 1
    if torn:
        os.truncate(path, offset)
    return objects, torn


class _JsonlAppender:
    """Shared append/sync machinery for the WAL and the journal.

    Buffers encoded lines and drains them at sync points; with group
    commit off, every append is its own sync point (the pre-batching
    behaviour, byte for byte).
    """

    def __init__(self, path: str, durability: str, group_commit: bool,
                 flush_interval: float, max_pending: int):
        if durability not in DURABILITY_LEVELS:
            raise ValueError(
                "unknown durability level {!r} (expected one of {})"
                .format(durability, ", ".join(DURABILITY_LEVELS)))
        self.path = str(path)
        self.durability = durability
        self.group_commit = bool(group_commit)
        self.flush_interval = flush_interval
        self.max_pending = max_pending
        self._handle: typing.Optional[typing.TextIO] = None
        self._pending: typing.List[str] = []
        self._timer: typing.Optional[asyncio.TimerHandle] = None
        # Sync may run on an executor thread (so fsync does not block
        # the event loop) while the loop thread keeps appending.  The
        # io lock serializes writers end to end; the buf lock guards
        # only the pending list and counters.  Lock order: io ⊃ buf.
        self._io_lock = threading.Lock()
        self._buf_lock = threading.Lock()
        #: Number of sync points that actually hit the file (one
        #: write+flush each) — the group-commit amortization metric.
        self.syncs = 0
        #: Records appended by this process (not the recovered ones).
        self.appended = 0
        #: High-water mark of appended records now on stable storage —
        #: a group-commit round is complete for a waiter once this
        #: passes the ``appended`` value it captured.
        self.synced_records = 0
        #: Bytes this process wrote to the file.
        self.bytes_written = 0
        #: Pending records dropped by :meth:`abandon` (the simulated
        #: crash loss — they were never promised to anyone).
        self.abandoned = 0
        #: Cumulative wall seconds spent inside sync drains
        #: (write+flush+fsync).  Always tracked — syncs are disk
        #: operations, so two clock reads per round are noise — and
        #: served by the status plane: "how much of this process's life
        #: went to fsync".
        self.sync_seconds = 0.0
        #: Optional observer called as ``observe_sync(seconds, records)``
        #: after each sync that actually wrote — the server points it at
        #: a latency histogram.  ``None`` costs nothing.
        self.observe_sync: typing.Optional[
            typing.Callable[[float, int], typing.Any]] = None

    @property
    def pending_sync(self) -> int:
        """Records appended but not yet on stable storage."""
        return len(self._pending)

    def push(self, line: str) -> None:
        with self._buf_lock:
            self._pending.append(line)
            self.appended += 1
            pending = len(self._pending)
        if not self.group_commit or pending >= self.max_pending:
            self.sync()
        else:
            self._arm_timer()

    def sync(self) -> int:
        """Drain all pending records with one write (+flush/+fsync).

        Returns how many records the sync covered.  The durability
        promise of every record pushed so far attaches to this call
        returning — callers sequence externally visible effects
        (responses, acks, forwards) after it.  Thread-safe: safe to
        call from an executor thread while the loop thread appends
        (the buffered-pending timer is never cancelled here — it fires
        on an empty buffer and is a no-op).
        """
        with self._io_lock:
            with self._buf_lock:
                if not self._pending:
                    return 0
                block, self._pending = "".join(self._pending), []
                target = self.appended
            count = block.count("\n")
            observer = self.observe_sync
            started = time.perf_counter()
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(block)
            if self.durability != "none":
                self._handle.flush()
                if self.durability == "fsync":
                    os.fsync(self._handle.fileno())
            self.syncs += 1
            self.bytes_written += len(block)
            self.synced_records = target
            elapsed = time.perf_counter() - started
            self.sync_seconds += elapsed
            if observer is not None:
                observer(elapsed, count)
            return count

    def close(self) -> None:
        """Graceful close: pending records reach stable storage."""
        self.sync()
        self._cancel_timer()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def abandon(self) -> None:
        """Crash close: pending (never-promised) records are lost, as
        they would be when the process dies mid-buffer."""
        with self._io_lock:
            with self._buf_lock:
                self.abandoned += len(self._pending)
                self._pending = []
                # The dropped records will never sync; resolve the
                # watermark so a durability waiter on a killed appender
                # fails fast (teardown cancels it) instead of spinning.
                self.synced_records = self.appended
            self._cancel_timer()
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def _arm_timer(self) -> None:
        if self._timer is not None:
            return
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return  # synchronous caller: size cap / explicit sync only
        self._timer = loop.call_later(self.flush_interval,
                                      self._timer_fired)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _timer_fired(self) -> None:
        self._timer = None
        self.sync()


class FileWal(WriteAheadLog):
    """A :class:`WriteAheadLog` backed by an append-only JSONL file.

    Parameters
    ----------
    durability:
        ``"none"``, ``"flush"`` (default) or ``"fsync"`` — see the
        module docstring for what each level actually survives.
    group_commit:
        Buffer appends and coalesce them at sync points instead of
        paying one write+flush per record.
    flush_interval:
        Group commit only: upper bound (seconds) a buffered record may
        wait for a sync point before a timer forces one.  Needs a
        running asyncio loop; synchronous users rely on ``max_pending``
        and explicit :meth:`sync`.
    max_pending:
        Group commit only: buffered-record cap that forces a sync.
    """

    def __init__(self, path: typing.Union[str, "os.PathLike"],
                 durability: str = "flush", group_commit: bool = False,
                 flush_interval: float = 0.005, max_pending: int = 256):
        super().__init__()
        self._out = _JsonlAppender(str(path), durability, group_commit,
                                   flush_interval, max_pending)
        self.torn_tail = False
        if os.path.exists(self._out.path):
            objects, self.torn_tail = _load_jsonl(self._out.path)
            for obj in objects:
                self._records.append(
                    _record_from_json(obj, len(self._records)))
        #: Records loaded from disk at construction time.
        self.recovered_records = len(self._records)

    @property
    def path(self) -> str:
        return self._out.path

    @property
    def durability(self) -> str:
        return self._out.durability

    @property
    def group_commit(self) -> bool:
        return self._out.group_commit

    @property
    def syncs(self) -> int:
        """Write+flush batches issued (the amortization metric)."""
        return self._out.syncs

    @property
    def appended(self) -> int:
        """Records appended by this process."""
        return self._out.appended

    @property
    def pending_sync(self) -> int:
        """Appended records not yet on stable storage."""
        return self._out.pending_sync

    @property
    def synced_records(self) -> int:
        """Appended records known to be on stable storage."""
        return self._out.synced_records

    @property
    def bytes_written(self) -> int:
        """Bytes this process wrote to the log file."""
        return self._out.bytes_written

    @property
    def abandoned(self) -> int:
        """Pending records dropped by :meth:`abandon` (crash loss)."""
        return self._out.abandoned

    @property
    def sync_seconds(self) -> float:
        """Cumulative wall seconds spent inside sync drains."""
        return self._out.sync_seconds

    def set_sync_observer(self, observer: typing.Optional[
            typing.Callable[[float, int], typing.Any]]) -> None:
        """Install a per-sync latency observer (``seconds, records``)."""
        self._out.observe_sync = observer

    def append(self, kind: LogRecordKind, **fields) -> LogRecord:
        record = super().append(kind, **fields)
        self._out.push(_checksummed_line(_record_to_json(record)))
        return record

    def sync(self) -> int:
        """Group-commit point: all pending records in one write+flush.

        Must run before any externally visible action that implies the
        records are stable (the commit record must hit stable storage
        before the engine's outcome leaves the process)."""
        return self._out.sync()

    def close(self) -> None:
        self._out.close()

    def abandon(self) -> None:
        """Close as a crash would: buffered, never-promised records are
        dropped rather than flushed."""
        self._out.abandon()


class MessageJournal:
    """Durable inbound-message journal (JSONL).

    The live transport acknowledges a ``SECONDARY`` update only after it
    is journalled here, so the sender may retire it: the journal, not
    the socket, is what survives a receiver crash.  On restart the
    server replays the journal in order — restoring both the transport
    dedup state (``src``/``inc``/``seq``) and the FIFO update stream the
    protocol queue had accepted but not yet durably applied.

    Group commit mirrors :class:`FileWal`: with ``group_commit=True``
    the entries of one inbound batch are buffered and :meth:`sync` ed
    with a single write+flush before the batch's cumulative ack goes
    out — journal-then-ack, per batch instead of per message.
    """

    def __init__(self, path: typing.Union[str, "os.PathLike"],
                 durability: str = "flush", group_commit: bool = False,
                 flush_interval: float = 0.005, max_pending: int = 256):
        self._out = _JsonlAppender(str(path), durability, group_commit,
                                   flush_interval, max_pending)
        #: Entries loaded from disk at construction time — what start-up
        #: replay reads.  Appends go to the file only: nothing re-reads
        #: them in this process, and keeping every wire object alive
        #: grew a site's memory with each replicated update.
        self.entries: typing.List[typing.Dict[str, typing.Any]] = []
        self.torn_tail = False
        if os.path.exists(self._out.path):
            self.entries, self.torn_tail = _load_jsonl(self._out.path)

    @property
    def path(self) -> str:
        return self._out.path

    @property
    def syncs(self) -> int:
        return self._out.syncs

    @property
    def pending_sync(self) -> int:
        return self._out.pending_sync

    @property
    def synced_records(self) -> int:
        return self._out.synced_records

    @property
    def appended(self) -> int:
        return self._out.appended

    @property
    def bytes_written(self) -> int:
        return self._out.bytes_written

    @property
    def abandoned(self) -> int:
        return self._out.abandoned

    @property
    def sync_seconds(self) -> float:
        return self._out.sync_seconds

    def set_sync_observer(self, observer: typing.Optional[
            typing.Callable[[float, int], typing.Any]]) -> None:
        """Install a per-sync latency observer (``seconds, records``)."""
        self._out.observe_sync = observer

    def append(self, src: int, incarnation: str, seq: int,
               msg: typing.Mapping[str, typing.Any]) -> None:
        self._out.push(_checksummed_line(
            {"src": src, "inc": incarnation, "seq": seq, "msg": msg}))

    def sync(self) -> int:
        """Journal-then-ack barrier: pending entries hit stable storage
        before the ack that lets the sender retire them."""
        return self._out.sync()

    def __len__(self) -> int:
        """Entries recovered from disk plus entries appended since."""
        return len(self.entries) + self._out.appended

    def close(self) -> None:
        self._out.close()

    def abandon(self) -> None:
        """Close as a crash would (pending unacked entries are lost —
        the sender still holds them and will resend)."""
        self._out.abandon()


def _record_to_json(record: LogRecord) -> typing.Dict[str, typing.Any]:
    obj: typing.Dict[str, typing.Any] = {"k": record.kind.value}
    if record.gid is not None:
        obj["gid"] = encode_value(record.gid)
    if record.txn_kind is not None:
        obj["tk"] = record.txn_kind.value
    if record.item is not None:
        obj["item"] = encode_value(record.item)
    if record.value is not None:
        obj["value"] = encode_value(record.value)
    if record.time:
        obj["t"] = record.time
    return obj


def _record_from_json(obj: typing.Mapping[str, typing.Any],
                      lsn: int) -> LogRecord:
    return LogRecord(
        kind=LogRecordKind(obj["k"]),
        lsn=lsn,
        gid=decode_value(obj["gid"]) if "gid" in obj else None,
        txn_kind=(SubtransactionKind(obj["tk"])
                  if "tk" in obj else None),
        item=decode_value(obj.get("item")) if "item" in obj else None,
        value=decode_value(obj.get("value")),
        time=float(obj.get("t", 0.0)),
    )
