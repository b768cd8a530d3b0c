"""Redo-only logical write-ahead logging and crash recovery.

The paper's substrate, DataBlitz, is a *recoverable* main-memory storage
manager; replication is motivated by reliability and availability
(Sec. 1).  This module gives each site engine the matching durability
story:

- the log is commit-granular: a subtransaction that wrote something
  appends **one** ``COMMIT`` record when it commits — its gid, its
  kind, its write set (item -> new value, in ``value``) and the commit
  time.  ``begin``, ``write`` and ``abort`` log nothing, and neither
  does a commit with an empty write set: with redo-only logging a
  transaction without a commit record never happened, so there is
  nothing to say about it until it commits and nothing to redo for one
  that only read;
- :func:`recover` rebuilds a site engine from its log: committed values,
  per-item version counters and writer lineage, and the committed-write
  history (read sets are not logged, as usual for a WAL, so recovered
  history entries carry writes only, and read-only subtransactions
  leave no entry).

The log models stable storage inside the simulation: a crash
(:meth:`StorageEngine.crash`) wipes all volatile state but leaves the
log intact.
"""

from __future__ import annotations

import dataclasses
import enum
import typing

from repro.types import GlobalTransactionId, ItemId, SubtransactionKind


class LogRecordKind(enum.Enum):
    CREATE = "create"
    # Appended by benchmarks/ledger/layers.py only (its frozen WAL
    # microbenches time a bare record append); the engine never logs
    # one and recover() refuses it.
    WRITE = "write"
    COMMIT = "commit"
    # Reconfiguration plane (repro.reconfig): the epoch number rides the
    # ``item`` field and the PlacementChange JSON rides ``value`` (an
    # abort carries none).  Transaction recovery ignores the three
    # kinds; epoch recovery replays the commits (see
    # repro.reconfig.change.replay_epochs) and restores the fence of a
    # prepare that no commit or abort follows.
    EPOCH_PREPARE = "epoch-prepare"
    EPOCH_COMMIT = "epoch-commit"
    EPOCH_ABORT = "epoch-abort"


@dataclasses.dataclass(frozen=True, slots=True)
class LogRecord:
    """One entry of the redo log."""

    kind: LogRecordKind
    #: Log sequence number (assigned by the log).
    lsn: int
    gid: typing.Optional[GlobalTransactionId] = None
    txn_kind: typing.Optional[SubtransactionKind] = None
    item: typing.Optional[ItemId] = None
    #: CREATE: the initial value; COMMIT: the write set, item -> value.
    value: typing.Any = None
    time: float = 0.0


class WriteAheadLog:
    """An append-only log on simulated stable storage."""

    def __init__(self):
        self._records: typing.List[LogRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def append(self, kind: LogRecordKind, **fields) -> LogRecord:
        record = LogRecord(kind=kind, lsn=len(self._records), **fields)
        self._records.append(record)
        return record

    @property
    def last_lsn(self) -> int:
        return len(self) - 1

    def records_of(self, gid: GlobalTransactionId
                   ) -> typing.List[LogRecord]:
        return [record for record in self._records if record.gid == gid]


def recover(env, site_id: int, wal: WriteAheadLog,
            lock_timeout: typing.Optional[float] = 0.050):
    """Rebuild a :class:`~repro.storage.engine.StorageEngine` from its
    log.

    Redo-only recovery: replay CREATEs and apply every COMMIT record's
    write set (bumping versions and the writer lineage).  Whatever was
    in flight at the crash left no record and needs no undoing.  A kind
    this function does not replay is refused, not skipped — a log that
    holds one was not written by this engine.  Returns the recovered
    engine (attached to the same log, so new transactions keep
    appending to it).
    """
    from repro.storage.engine import StorageEngine

    engine = StorageEngine(env, site_id, lock_timeout=lock_timeout)
    for record in wal:
        if record.kind is LogRecordKind.CREATE:
            engine.create_item(record.item, record.value)
        elif record.kind is LogRecordKind.COMMIT:
            versions: typing.Dict[ItemId, int] = {}
            for item, value in sorted(record.value.items()):
                item_record = engine.item(item)
                item_record.value = value
                item_record.committed_version += 1
                item_record.record_writer(record.gid)
                versions[item] = item_record.committed_version
            engine.history.record(record.gid, record.txn_kind,
                                  record.time, {}, versions)
        elif record.kind not in (LogRecordKind.EPOCH_PREPARE,
                                 LogRecordKind.EPOCH_COMMIT,
                                 LogRecordKind.EPOCH_ABORT):
            raise ValueError(
                "cannot replay a {!r} record (lsn {}): the redo log "
                "holds create, commit and epoch records only".format(
                    record.kind.value, record.lsn))
    engine.attach_wal(wal)
    return engine
