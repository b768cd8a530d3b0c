"""The per-site storage engine.

Models what the paper gets from DataBlitz: an in-memory, hash-indexed item
store with strict 2PL, undo-based aborts, and atomic local commit.  Reads
and writes are *process helpers* — call them as
``value = yield from engine.read(txn, item)`` inside a simulation process,
because lock acquisition may block.

The engine additionally records every committed subtransaction into a
:class:`~repro.storage.history.SiteHistory` so the harness can verify
global serializability after a run.
"""

from __future__ import annotations

import typing

from repro.errors import PlacementError, TransactionAborted
from repro.storage.history import SiteHistory
from repro.storage.items import ItemRecord
from repro.storage.locks import LockManager, LockMode
from repro.storage.log import LogRecordKind
from repro.storage.transaction import Transaction, TransactionStatus
from repro.types import GlobalTransactionId, ItemId, SubtransactionKind

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment


class StorageEngine:
    """In-memory database engine for one site.

    Parameters
    ----------
    env:
        Simulation environment.
    site_id:
        This site's index.
    lock_timeout:
        Deadlock timeout interval (simulated seconds); ``None`` disables.
    """

    def __init__(self, env: "Environment", site_id: int,
                 lock_timeout: typing.Optional[float] = 0.050,
                 wal=None):
        self.env = env
        self.site_id = site_id
        self.locks = LockManager(env, timeout=lock_timeout)
        self.history = SiteHistory(site_id)
        self._items: typing.Dict[ItemId, ItemRecord] = {}
        self._active: typing.Set[Transaction] = set()
        #: Optional write-ahead log (see :mod:`repro.storage.log`).
        self.wal = wal
        self._crashed = False

    def attach_wal(self, wal) -> None:
        """Attach a write-ahead log (used by recovery)."""
        self.wal = wal

    def crash(self) -> None:
        """Simulate a site crash: volatile state is lost, the WAL (if
        any) survives.  The engine is unusable afterwards; build a new
        one with :func:`repro.storage.log.recover`."""
        self._crashed = True
        self._items.clear()
        self._active.clear()
        self.history.entries.clear()

    def _log(self, kind, **fields) -> None:
        if self.wal is not None:
            self.wal.append(kind, **fields)

    # ------------------------------------------------------------------
    # Schema / storage management
    # ------------------------------------------------------------------

    def create_item(self, item_id: ItemId, value=0) -> ItemRecord:
        """Install an item copy at this site."""
        if item_id in self._items:
            raise PlacementError(
                "item {} already exists at site {}".format(
                    item_id, self.site_id))
        record = ItemRecord(item_id, value)
        self._items[item_id] = record
        self._log(LogRecordKind.CREATE, item=item_id, value=value,
                  time=self.env.now)
        return record

    def has_item(self, item_id: ItemId) -> bool:
        return item_id in self._items

    def item(self, item_id: ItemId) -> ItemRecord:
        return self._items[item_id]

    def item_ids(self) -> typing.Set[ItemId]:
        return set(self._items)

    @property
    def active_transactions(self) -> typing.FrozenSet[Transaction]:
        return frozenset(self._active)

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def begin(self, gid: GlobalTransactionId,
              kind: SubtransactionKind = SubtransactionKind.PRIMARY,
              process=None) -> Transaction:
        """Start a subtransaction at this site."""
        if self._crashed:
            raise TransactionAborted(gid, "site crashed")
        txn = Transaction(gid, self.site_id, kind, self.env.now)
        txn.process = process
        self._active.add(txn)
        return txn

    def read(self, txn: Transaction, item_id: ItemId):
        """Process helper: shared-lock ``item_id`` and return its value.

        Raises :class:`LockTimeout` (via the lock event) if the wait times
        out, and :class:`KeyError` if the item has no copy at this site.
        """
        self._check_active(txn)
        if item_id in txn.writes:
            return txn.writes[item_id]
        record = self._items[item_id]
        grant = self.locks.acquire(txn, item_id, LockMode.SHARED)
        if grant.callbacks is not None:  # not processed in place
            yield grant
        # First read wins: record the committed version observed.
        if item_id not in txn.reads:
            txn.reads[item_id] = record.committed_version
        return record.value

    def write(self, txn: Transaction, item_id: ItemId, value):
        """Process helper: exclusive-lock ``item_id`` and write ``value``.

        The new value is installed in place (invisible to others thanks to
        the X lock) and undone on abort.
        """
        self._check_active(txn)
        record = self._items[item_id]
        grant = self.locks.acquire(txn, item_id, LockMode.EXCLUSIVE)
        if grant.callbacks is not None:
            yield grant
        if item_id not in txn.writes:
            txn.undo.append((item_id, record.value))
        record.value = value
        txn.writes[item_id] = value

    def install(self, item_id: ItemId, value, version: int,
                writers: typing.Sequence[GlobalTransactionId]) -> int:
        """Install a copy's state as read from the item's primary.

        ``writers`` are the gids of versions ``version - len(writers) + 1
        .. version`` in commit order.  They must extend this copy's own
        lineage (a copy only ever receives the primary's versions in its
        order); anything else raises :class:`ValueError` before anything
        changes.  Each version this copy lacks is recorded as a
        committed secondary subtransaction (WAL + history) carrying the
        final ``value``, so the DSG edges match what lazy propagation
        would have produced.

        Returns the number of versions installed.
        """
        record = self._items[item_id]
        base = version - len(writers)
        current = record.committed_version
        if not 0 <= base <= current or \
                record.writers[base:] != list(writers[:current - base]):
            raise ValueError(
                "install of item {} at site {} does not extend its "
                "lineage (local version {}, installed {})".format(
                    item_id, self.site_id, current, version))
        for missed_version, gid in enumerate(
                writers[current - base:], current + 1):
            self._log(LogRecordKind.COMMIT, gid=gid,
                      txn_kind=SubtransactionKind.SECONDARY,
                      value={item_id: value}, time=self.env.now)
            record.committed_version = missed_version
            record.record_writer(gid)
            record.value = value
            self.history.record(gid, SubtransactionKind.SECONDARY,
                                self.env.now, {},
                                {item_id: missed_version})
        return version - current

    def has_applied(self, item_id: ItemId,
                    gid: GlobalTransactionId) -> bool:
        """Whether ``gid`` already wrote a committed version of
        ``item_id`` here (the writer lineage check used for at-least-once
        delivery dedup in the live runtime)."""
        record = self._items.get(item_id)
        return record is not None and record.written_by(gid)

    def prepare(self, txn: Transaction) -> None:
        """Enter the prepared state (locks retained; commit/abort later)."""
        self._check_active(txn)
        txn.status = TransactionStatus.PREPARED

    def commit(self, txn: Transaction) -> None:
        """Atomically commit: log the write set, bump versions, record
        history, release locks.

        The COMMIT record is the transaction's only trace in the redo
        log (see :mod:`repro.storage.log`); a subtransaction that wrote
        nothing has nothing to redo and logs nothing."""
        if txn.status not in (TransactionStatus.ACTIVE,
                              TransactionStatus.PREPARED):
            raise TransactionAborted(txn.gid,
                                     "commit in state " + txn.status.value)
        if txn.writes:
            self._log(LogRecordKind.COMMIT, gid=txn.gid,
                      txn_kind=txn.kind, value=dict(txn.writes),
                      time=self.env.now)
        write_versions: typing.Dict[ItemId, int] = {}
        for item_id in sorted(txn.writes):
            record = self._items[item_id]
            record.committed_version += 1
            record.record_writer(txn.gid)
            write_versions[item_id] = record.committed_version
        txn.status = TransactionStatus.COMMITTED
        txn.commit_time = self.env.now
        self.history.record(txn.gid, txn.kind, self.env.now,
                            txn.reads, write_versions)
        self._active.discard(txn)
        self.locks.release_all(txn)

    def abort(self, txn: Transaction) -> None:
        """Roll back: undo writes, withdraw waits, release locks."""
        if txn.status is TransactionStatus.COMMITTED:
            raise TransactionAborted(txn.gid, "abort after commit")
        if txn.status is TransactionStatus.ABORTED:
            return
        for item_id, old_value in reversed(txn.undo):
            self._items[item_id].value = old_value
        txn.undo.clear()
        txn.writes.clear()
        txn.status = TransactionStatus.ABORTED
        self._active.discard(txn)
        self.locks.cancel_waits(txn)
        self.locks.release_all(txn)

    def _check_active(self, txn: Transaction) -> None:
        if txn.status is not TransactionStatus.ACTIVE:
            raise TransactionAborted(
                txn.gid, "operation in state " + txn.status.value)
