"""Strict two-phase-locking lock manager.

The variant of 2PL the paper assumes: a transaction holds every lock (read
or write) until after it commits or aborts.  The manager supports shared /
exclusive modes, re-entrant acquisition, lock upgrades, FIFO queuing, and
the paper's timeout mechanism for local and global deadlocks (default 50 ms
simulated, Table 1).

When a queued request times out the manager consults a pluggable
``timeout_policy``; the protocols use this hook to implement the paper's
victim-selection rules (primaries abort themselves, secondary
subtransactions wound a conflicting primary and keep waiting — Secs. 2 and
4.1).
"""

from __future__ import annotations

import collections
import enum
import typing

from repro.errors import LockTimeout
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment
    from repro.storage.transaction import Transaction


class LockMode(enum.Enum):
    """Lock modes; shared is compatible only with shared."""

    SHARED = "S"
    EXCLUSIVE = "X"


#: Policy verdict: abort the waiting request (fail it with LockTimeout).
ABORT_WAITER = "abort"
#: Policy verdict: keep the request queued and re-arm its timer.
KEEP_WAITING = "wait"


class LockRequest:
    """A queued lock request (also returned to the policy on timeout)."""

    __slots__ = ("txn", "item", "mode", "event", "is_upgrade", "enqueued_at")

    def __init__(self, txn: "Transaction", item, mode: LockMode,
                 event: Event, is_upgrade: bool, enqueued_at: float):
        self.txn = txn
        self.item = item
        self.mode = mode
        self.event = event
        self.is_upgrade = is_upgrade
        self.enqueued_at = enqueued_at

    def __repr__(self):
        return "<LockRequest {} {} on {}{}>".format(
            self.txn.gid, self.mode.value, self.item,
            " upgrade" if self.is_upgrade else "")


class _LockEntry:
    """Per-item lock state: current holders plus the FIFO wait queue."""

    __slots__ = ("holders", "queue")

    def __init__(self):
        self.holders: typing.Dict["Transaction", LockMode] = {}
        self.queue: collections.deque = collections.deque()


class LockManager:
    """Strict 2PL lock manager for one site.

    Parameters
    ----------
    env:
        Simulation environment (used for timers).
    timeout:
        Deadlock timeout interval in simulated seconds; ``None`` disables
        timeouts (waits are unbounded).
    """

    def __init__(self, env: "Environment",
                 timeout: typing.Optional[float] = 0.050):
        self.env = env
        self.timeout = timeout
        #: ``policy(manager, request) -> ABORT_WAITER | KEEP_WAITING``.
        #: Consulted when a queued request's timer fires; may wound holders.
        self.timeout_policy: typing.Optional[typing.Callable] = None
        self._table: typing.Dict[typing.Any, _LockEntry] = {}
        self._held: typing.Dict["Transaction", typing.Set] = {}
        #: Counters for the metrics module.
        self.stats = collections.Counter()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def holders(self, item) -> typing.Dict["Transaction", LockMode]:
        """Current holders of ``item`` (empty dict if unlocked)."""
        entry = self._table.get(item)
        if entry is None:
            return {}
        return dict(entry.holders)

    def mode_held(self, txn: "Transaction", item
                  ) -> typing.Optional[LockMode]:
        """Mode in which ``txn`` holds ``item`` (``None`` if it doesn't)."""
        entry = self._table.get(item)
        if entry is None:
            return None
        return entry.holders.get(txn)

    def items_held(self, txn: "Transaction") -> typing.Set:
        """Items on which ``txn`` currently holds a lock."""
        return set(self._held.get(txn, ()))

    def waiting_requests(self) -> typing.List[LockRequest]:
        """All queued (ungranted) requests, across items."""
        requests = []
        for entry in self._table.values():
            requests.extend(entry.queue)
        return requests

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------

    def acquire(self, txn: "Transaction", item, mode: LockMode,
                timeout: typing.Optional[float] = None) -> Event:
        """Request a lock.  The event succeeds when the lock is granted and
        fails with :class:`LockTimeout` if the request times out and the
        policy says to abort the waiter.

        ``timeout`` overrides the manager default for this request.

        A request granted on the spot whose grant event the kernel would
        process next anyway (:meth:`Environment.take_turn`) comes back
        already processed: the caller may skip the ``yield``.  Callers
        wait on the event at once; they attach no callbacks to it.
        """
        entry = self._table.get(item)
        if entry is None:
            entry = self._table[item] = _LockEntry()
        held = entry.holders.get(txn)

        # Re-entrant cases that never block.
        if held is LockMode.EXCLUSIVE or held is mode:
            return self._granted(item)

        is_upgrade = held is LockMode.SHARED and mode is LockMode.EXCLUSIVE
        if is_upgrade and len(entry.holders) == 1:
            entry.holders[txn] = LockMode.EXCLUSIVE
            self.stats["upgrades"] += 1
            return self._granted(item)

        if not is_upgrade and self._grantable(entry, txn, mode):
            entry.holders[txn] = mode
            self._held.setdefault(txn, set()).add(item)
            return self._granted(item)

        event = Event(self.env)
        request = LockRequest(txn, item, mode, event, is_upgrade,
                              self.env.now)
        if is_upgrade:
            # Upgrades go to the front so they are serviced as soon as the
            # other shared holders drain.
            entry.queue.appendleft(request)
        else:
            entry.queue.append(request)
        self.stats["waits"] += 1
        self._arm_timer(request, timeout)
        return event

    def _granted(self, item) -> Event:
        """The event of a request granted on the spot: processed in place
        when its turn is now, else scheduled."""
        event = Event(self.env)
        if self.env.take_turn():
            event.callbacks = None
            event._ok = True
            event._value = item
        else:
            event.succeed(item)
        return event

    def _grantable(self, entry: _LockEntry, txn: "Transaction",
                   mode: LockMode) -> bool:
        """Whether a fresh (non-upgrade) request can be granted now.

        FIFO fairness: nothing is granted past a non-empty wait queue.
        """
        if entry.queue:
            return False
        if not entry.holders:
            return True
        if mode is LockMode.SHARED:
            return all(held is LockMode.SHARED
                       for held in entry.holders.values())
        return False

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def _arm_timer(self, request: LockRequest,
                   timeout: typing.Optional[float]) -> None:
        interval = self.timeout if timeout is None else timeout
        if interval is None:
            return
        timer = self.env.timeout(interval)
        timer.callbacks.append(
            lambda _ev, req=request, ivl=timeout: self._on_timer(req, ivl))

    def _on_timer(self, request: LockRequest,
                  timeout: typing.Optional[float]) -> None:
        entry = self._table.get(request.item)
        if entry is None or request not in entry.queue:
            return  # Granted or cancelled in the meantime.
        self.stats["timeouts"] += 1
        verdict = ABORT_WAITER
        if self.timeout_policy is not None:
            verdict = self.timeout_policy(self, request)
        if verdict == KEEP_WAITING:
            self._arm_timer(request, timeout)
            return
        entry.queue.remove(request)
        self.stats["timeout_aborts"] += 1
        request.event.fail(LockTimeout(request.txn.gid, request.item))
        self._scan(request.item, entry)

    # ------------------------------------------------------------------
    # Release
    # ------------------------------------------------------------------

    def release_all(self, txn: "Transaction") -> None:
        """Release every lock held by ``txn`` (strict 2PL release point)."""
        items = self._held.pop(txn, set())
        for item in items:
            entry = self._table.get(item)
            if entry is None:
                continue
            entry.holders.pop(txn, None)
            self._scan(item, entry)

    def cancel_waits(self, txn: "Transaction") -> None:
        """Withdraw all of ``txn``'s queued requests (on abort)."""
        for item, entry in list(self._table.items()):
            removed = False
            for request in list(entry.queue):
                if request.txn is txn:
                    entry.queue.remove(request)
                    removed = True
            if removed:
                self._scan(item, entry)

    def _scan(self, item, entry: _LockEntry) -> None:
        """Grant queued requests from the head while compatible (FIFO)."""
        granted_any = False
        while entry.queue:
            request = entry.queue[0]
            if request.is_upgrade:
                others = [holder for holder in entry.holders
                          if holder is not request.txn]
                if others:
                    break
                entry.queue.popleft()
                entry.holders[request.txn] = LockMode.EXCLUSIVE
                self.stats["upgrades"] += 1
            elif request.mode is LockMode.SHARED:
                if any(held is LockMode.EXCLUSIVE
                       for held in entry.holders.values()):
                    break
                entry.queue.popleft()
                entry.holders[request.txn] = LockMode.SHARED
            else:  # EXCLUSIVE
                if entry.holders:
                    break
                entry.queue.popleft()
                entry.holders[request.txn] = LockMode.EXCLUSIVE
            self._held.setdefault(request.txn, set()).add(item)
            request.event.succeed(item)
            granted_any = True
        if granted_any:
            self.stats["grants_after_wait"] += 1
        if not entry.holders and not entry.queue:
            self._table.pop(item, None)
