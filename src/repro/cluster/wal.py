"""Durable write-ahead log: the sim's redo log, persisted as checksummed
JSON lines.

A :class:`FileWal` is a drop-in :class:`~repro.storage.log.WriteAheadLog`
whose every appended record is written to a file, one line per record,
using the cluster wire codec for values.  On construction it loads
whatever the file already holds, so

    engine = recover(env, site_id, FileWal(path))

rebuilds a crashed site's committed state exactly as the in-memory
recovery story does in the simulator — the file plays the role of
stable storage that survives the process.  Only those start-up records
are kept in memory: nothing re-reads an appended record in-process, so
appends go to the file and are not retained.

Line format, shared with the inbox journal::

    <crc32 of the body bytes, 8 lower-case hex digits> <compact JSON>\n

The body is serialized once and the checksum is taken over the bytes
that are written.  On reload the checksum is verified over the raw
bytes *before* they are parsed, so a flipped bit is never handed to the
JSON decoder, let alone accepted as a record.  There is one format: a
file of the retired ``{"c": <crc>, ...}`` lines (begin/write/commit
records, checksum inside the object) is refused by name.

Durability levels (honest about what each survives):

``"none"``
    Records stay in the Python file buffer until the OS decides to
    drain it.  A process crash can lose them.  Fastest; only for
    throwaway runs.
``"flush"`` (this class's default)
    Every sync ``flush()`` es to the OS page cache.  Survives a process
    crash, **not** an OS crash or power loss.
``"fsync"`` (the cluster default, :class:`~repro.cluster.spec.ClusterSpec`)
    Every sync additionally calls :func:`os.fsync`.  Survives power
    loss, at the price of a real disk round trip per sync.

Group commit, always: appends are buffered and a *sync point* — an
explicit :meth:`FileWal.sync` or the ``max_pending`` size cap — writes
all of them with **one** ``write`` + one ``flush`` (+ one ``fsync``),
amortizing the per-record syscall cost across every transaction that
committed since the last sync.  There is no timer: the
durability promise attaches to the sync, not the append, and callers
must sync before any externally visible action (client response, peer
ack, outbound forward) that implies the record is stable.
:class:`~repro.cluster.server.SiteServer` does exactly that, and a
record nobody has been promised can wait for the next barrier — file
order is append order, so whatever a later sync makes durable has every
earlier record durable before it.

Crash tolerance: a crash can tear the tail of a group-committed block
mid-record.  Only newline-terminated records count on reload; an
unterminated tail is dropped and truncated away (it was never promised
— the sync that wrote it did not complete, so no response or ack went
out for it).  A torn tail is in-model crash damage and repairs
silently; a terminated line that fails its checksum is out-of-model
damage (bit rot, a corrupting middlebox, an operator accident), cannot
be produced by a torn append-only write, and raises
:class:`CorruptLogError`.

A failed sync is a crash: the first exception out of ``write``,
``flush`` or ``fsync`` poisons the log.  No later sync writes a byte, so
the file never holds a hole the lost block would leave, the durable
watermark never moves again, and every later sync raises
:class:`LogFailedError`.  Retrying is no fix — after a failed ``fsync``
the kernel may have dropped the dirty pages, so a retry can report
success for data that is gone.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
import typing
import zlib

from repro.cluster.codec import compact_json, decode_value, encode_value
from repro.storage.log import LogRecord, LogRecordKind, WriteAheadLog
from repro.types import GlobalTransactionId, SubtransactionKind

#: Valid durability levels, weakest to strongest.
DURABILITY_LEVELS = ("none", "flush", "fsync")


class CorruptLogError(ValueError):
    """A malformed record somewhere other than a torn tail."""


class LogFailedError(OSError):
    """A sync of a log whose earlier sync failed."""


def _checksummed_line(obj: typing.Mapping[str, typing.Any]) -> bytes:
    """One log line: the record serialized ONCE, prefixed with the
    CRC32 of exactly the bytes that follow the separator."""
    body = compact_json(obj).encode("ascii")
    return b"%08x %s\n" % (zlib.crc32(body), body)


def _load_lines(path: str) -> typing.Tuple[
        typing.List[typing.Dict[str, typing.Any]], bool]:
    """Load a log file, tolerating (and repairing) a torn tail.

    Returns ``(objects, torn)``.  Only newline-terminated lines count
    as records; an unterminated tail is the signature of a write torn
    by a crash and is truncated off the file so later appends start at
    a clean record boundary.  A *terminated* line whose checksum prefix
    does not match its body bytes cannot come from a torn append-only
    write and raises :class:`CorruptLogError`, before anything of it is
    parsed.
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
        body = data[offset + 9:end]
        if data[offset:offset + 9] != b"%08x " % zlib.crc32(body):
            if data.startswith(b'{"c":', offset):
                raise CorruptLogError(
                    '{}: record at byte {} is in the retired '
                    '{{"c": <crc>, ...}} JSONL format (begin/write/'
                    'commit records); this build reads '
                    '"<crc32 hex> <json>" lines only'.format(
                        path, offset))
            raise CorruptLogError(
                "{}: record at byte {} fails its checksum".format(
                    path, offset))
        try:
            obj = json.loads(body)
        except ValueError as exc:
            raise CorruptLogError(
                "{}: malformed record at byte {}: {}".format(
                    path, offset, exc)) from None
        if not isinstance(obj, dict):
            raise CorruptLogError(
                "{}: record at byte {} is not an object".format(
                    path, offset))
        objects.append(obj)
        offset = end + 1
    if torn:
        os.truncate(path, offset)
    return objects, torn


class _LineAppender:
    """The append/sync machinery and durability counters that
    :class:`FileWal` and :class:`MessageJournal` both are.

    Buffers encoded lines and drains them at sync points.
    """

    def __init__(self, path: str, durability: str, max_pending: int):
        if durability not in DURABILITY_LEVELS:
            raise ValueError(
                "unknown durability level {!r} (expected one of {})"
                .format(durability, ", ".join(DURABILITY_LEVELS)))
        self.path = str(path)
        self.durability = durability
        self.max_pending = max_pending
        self._handle: typing.Optional[typing.BinaryIO] = None
        self._pending: typing.List[bytes] = []
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
        #: The exception the first failed sync raised; it poisons the
        #: log (see the module docstring).
        self._failure: typing.Optional[BaseException] = None
        #: Pending records dropped by :meth:`abandon` (the simulated
        #: crash loss — they were never promised to anyone).
        self.abandoned = 0
        #: Cumulative wall seconds spent inside sync drains
        #: (write+flush+fsync).  Always tracked — syncs are disk
        #: operations, so two clock reads per round are noise — and
        #: served by the status plane: "how much of this process's life
        #: went to fsync".
        self.sync_seconds = 0.0
        #: Optional observer called as ``observe_sync(seconds)``
        #: after each sync that actually wrote — the server points it at
        #: a latency histogram.  ``None`` costs nothing.
        self.observe_sync: typing.Optional[
            typing.Callable[[float], typing.Any]] = None

    @property
    def pending_sync(self) -> int:
        """Records appended but not yet on stable storage."""
        return len(self._pending)

    def push(self, line: bytes) -> None:
        with self._buf_lock:
            self._pending.append(line)
            self.appended += 1
            pending = len(self._pending)
        if pending >= self.max_pending:
            self.sync()

    def sync(self) -> int:
        """The barrier (group-commit point, journal-then-ack): drain all
        pending records with one write (+flush/+fsync).

        Returns how many records the sync covered.  The durability
        promise of every record pushed so far attaches to this call
        returning — callers sequence externally visible effects
        (responses, acks, forwards) after it.  Thread-safe: safe to
        call from an executor thread while the loop thread appends.
        Raises if this or any earlier sync failed.
        """
        with self._io_lock:
            if self._failure is not None:
                raise LogFailedError("{}: an earlier sync failed ({!r})"
                                     .format(self.path, self._failure)
                                     ) from self._failure
            with self._buf_lock:
                if not self._pending:
                    return 0
                lines, self._pending = self._pending, []
                target = self.appended
            block = b"".join(lines)
            observer = self.observe_sync
            started = time.perf_counter()
            try:
                if self._handle is None:
                    self._handle = open(self.path, "ab")
                self._handle.write(block)
                if self.durability != "none":
                    self._handle.flush()
                    if self.durability == "fsync":
                        os.fsync(self._handle.fileno())
            except BaseException as exc:
                self._failure = exc
                # Closing may still flush part of the lost block: never-
                # promised bytes at the end of the file (a torn tail on
                # reload), not a hole.
                handle, self._handle = self._handle, None
                if handle is not None:
                    with contextlib.suppress(OSError):
                        handle.close()
                raise
            self.syncs += 1
            self.bytes_written += len(block)
            self.synced_records = target
            elapsed = time.perf_counter() - started
            self.sync_seconds += elapsed
            if observer is not None:
                observer(elapsed)
            return len(lines)

    def close(self) -> None:
        """Graceful close: pending records reach stable storage (unless
        the log failed, when nothing more is written)."""
        if self._failure is None:
            self.sync()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def abandon(self) -> None:
        """Crash close: pending (never-promised) records are lost, as
        they would be when the process dies mid-buffer.  (For the
        journal they are unacked, so the sender still holds them.)"""
        with self._io_lock:
            with self._buf_lock:
                self.abandoned += len(self._pending)
                self._pending = []
                # The dropped records will never sync; resolve the
                # watermark so a durability waiter on a killed appender
                # fails fast (teardown cancels it) instead of spinning.
                # A failed log keeps its watermark: its waiters raise.
                if self._failure is None:
                    self.synced_records = self.appended
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class FileWal(_LineAppender, WriteAheadLog):
    """A :class:`WriteAheadLog` backed by an append-only file of
    checksummed lines.

    Iterating — and ``records_of`` — cover the records loaded from disk
    at construction time (what recovery replays); ``len()`` and
    ``last_lsn`` count those plus everything appended since, none of
    which is kept in memory.

    Parameters
    ----------
    durability:
        ``"none"``, ``"flush"`` (default) or ``"fsync"`` — see the
        module docstring for what each level actually survives.
    max_pending:
        Buffered-record cap that forces a sync.
    """

    def __init__(self, path: typing.Union[str, "os.PathLike"],
                 durability: str = "flush", group_commit: bool = True,
                 max_pending: int = 256):
        # ``group_commit`` accepts only True: benchmarks/ledger passes it.
        if group_commit is not True:
            raise ValueError("FileWal always group-commits")
        WriteAheadLog.__init__(self)
        _LineAppender.__init__(self, str(path), durability, max_pending)
        self.torn_tail = False
        if os.path.exists(self.path):
            objects, self.torn_tail = _load_lines(self.path)
            for obj in objects:
                try:
                    self._records.append(
                        _record_from_json(obj, len(self._records)))
                except (KeyError, TypeError, ValueError) as exc:
                    raise CorruptLogError(
                        "{}: record {} is not a log record: {}".format(
                            self.path, len(self._records), exc)) from None
        #: Records loaded from disk at construction time.
        self.recovered_records = len(self._records)

    def __len__(self) -> int:
        return self.recovered_records + self.appended

    def append(self, kind: LogRecordKind, **fields) -> LogRecord:
        record = LogRecord(kind=kind, lsn=len(self), **fields)
        self.push(_checksummed_line(_record_to_json(record)))
        return record


class MessageJournal(_LineAppender):
    """Durable inbound-message journal (checksummed lines, the WAL's
    format).

    The live transport acknowledges a ``SECONDARY`` update only after it
    is journalled here, so the sender may retire it: the journal, not
    the socket, is what survives a receiver crash.  On restart the
    server replays the journal in order — restoring both the transport
    dedup state (``src``/``inc``/``seq``) and the FIFO update stream the
    protocol queue had accepted but not yet durably applied.

    Group commit mirrors :class:`FileWal`: the entries of one apply
    round are buffered and :meth:`sync` ed with a single write+flush
    before the round's cumulative ack goes out — journal-then-ack, per
    round instead of per message.
    """

    def __init__(self, path: typing.Union[str, "os.PathLike"],
                 durability: str = "flush", max_pending: int = 256):
        super().__init__(str(path), durability, max_pending)
        #: Entries loaded from disk at construction time — what start-up
        #: replay reads.  Appends go to the file only: nothing re-reads
        #: them in this process, and keeping every wire object alive
        #: grew a site's memory with each replicated update.
        self.entries: typing.List[typing.Dict[str, typing.Any]] = []
        self.torn_tail = False
        if os.path.exists(self.path):
            self.entries, self.torn_tail = _load_lines(self.path)

    def append(self, src: int, incarnation: str, seq: int,
               msg: typing.Mapping[str, typing.Any]) -> None:
        self.push(_checksummed_line(
            {"src": src, "inc": incarnation, "seq": seq, "msg": msg}))

    def __len__(self) -> int:
        """Entries recovered from disk plus entries appended since."""
        return len(self.entries) + self.appended


def _record_to_json(record: LogRecord) -> typing.Dict[str, typing.Any]:
    obj: typing.Dict[str, typing.Any] = {"k": record.kind.value}
    if record.gid is not None:
        obj["gid"] = [record.gid.site, record.gid.seq]
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
        gid=GlobalTransactionId(*obj["gid"]) if "gid" in obj else None,
        txn_kind=(SubtransactionKind(obj["tk"])
                  if "tk" in obj else None),
        item=decode_value(obj["item"]) if "item" in obj else None,
        value=decode_value(obj.get("value")),
        time=float(obj.get("t", 0.0)),
    )
