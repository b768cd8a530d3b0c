"""Committed-operation history used by the serializability checker.

Each site logs every committed subtransaction in local commit order with
the version of each item it read and the version of each item it created.
The harness merges the site histories into the global direct-serialization
graph (see :mod:`repro.harness.serializability`).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.types import GlobalTransactionId, ItemId, SubtransactionKind


@dataclasses.dataclass(frozen=True, slots=True)
class CommittedSubtransaction:
    """One committed subtransaction as recorded in a site history."""

    gid: GlobalTransactionId
    kind: SubtransactionKind
    site: int
    #: Position in the site's local commit order (0-based, dense).
    seq: int
    commit_time: float
    #: item -> committed version observed at read time.
    reads: typing.Mapping[ItemId, int]
    #: item -> committed version this subtransaction created.
    writes: typing.Mapping[ItemId, int]


class SiteHistory:
    """Append-only log of committed subtransactions at one site."""

    def __init__(self, site_id: int):
        self.site_id = site_id
        self.entries: typing.List[CommittedSubtransaction] = []

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def record(self, gid: GlobalTransactionId, kind: SubtransactionKind,
               commit_time: float,
               reads: typing.Mapping[ItemId, int],
               writes: typing.Mapping[ItemId, int]
               ) -> CommittedSubtransaction:
        """Append a committed subtransaction and return the entry."""
        entry = CommittedSubtransaction(
            gid=gid,
            kind=kind,
            site=self.site_id,
            seq=len(self.entries),
            commit_time=commit_time,
            reads=dict(reads),
            writes=dict(writes),
        )
        self.entries.append(entry)
        return entry
