"""Local transaction (subtransaction) state.

A :class:`Transaction` is the per-site execution context of a primary,
secondary, backedge, special, or dummy subtransaction.  The primary
subtransaction and its remote subtransactions share a
:class:`~repro.types.GlobalTransactionId`.
"""

from __future__ import annotations

import enum
import typing

from repro.errors import TransactionAborted
from repro.types import GlobalTransactionId, SubtransactionKind

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.process import Process


class TransactionStatus(enum.Enum):
    ACTIVE = "active"
    #: Locks held, execution finished, awaiting a distributed-commit
    #: decision (BackEdge special subtransactions, 2PC participants).
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One subtransaction executing at one site."""

    def __init__(self, gid: GlobalTransactionId, site: int,
                 kind: SubtransactionKind, start_time: float):
        self.gid = gid
        self.site = site
        self.kind = kind
        self.status = TransactionStatus.ACTIVE
        self.start_time = start_time
        self.commit_time: typing.Optional[float] = None
        #: Undo records: ``(item, previous value)`` in write order.
        self.undo: typing.List[typing.Tuple[typing.Any, typing.Any]] = []
        #: Committed version observed per item read (excludes own writes).
        self.reads: typing.Dict[typing.Any, int] = {}
        #: Pending value per item written.
        self.writes: typing.Dict[typing.Any, typing.Any] = {}
        #: The simulation process driving this subtransaction, if any
        #: (used to deliver wounds).
        self.process: typing.Optional["Process"] = None
        #: Reason this transaction was wounded, if it was.
        self.wound_reason: typing.Optional[str] = None
        #: Once shielded, wounds are refused — set by a distributed-commit
        #: coordinator after the commit decision is taken, so the decision
        #: cannot be undone locally while participants commit.
        self.shielded = False

    def __repr__(self):
        return "<Txn {} {} @s{} {}>".format(
            self.gid, self.kind.value, self.site, self.status.value)

    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        return self is other

    @property
    def is_finished(self) -> bool:
        return self.status in (TransactionStatus.COMMITTED,
                               TransactionStatus.ABORTED)

    def wound(self, reason: str) -> bool:
        """Request this transaction's abort from outside its own process.

        Delivers :class:`~repro.sim.events.Interrupt` to the controlling
        process (which is responsible for rolling back).  Returns whether
        the wound was delivered.  Wounding a finished transaction or one
        with no controlling process is a no-op.
        """
        if self.is_finished or self.shielded or self.wound_reason is not None:
            return False
        if self.process is None or not self.process.is_alive:
            return False
        self.wound_reason = reason
        self.process.interrupt(TransactionAborted(self.gid, reason))
        return True
