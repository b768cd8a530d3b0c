"""Item records: the unit of storage and locking.

Each record tracks its current value, the count of *committed* writes
(``committed_version``), and which global transaction produced each
committed version — the raw material for the serializability checker.
"""

from __future__ import annotations

import typing

from repro.types import GlobalTransactionId, ItemId


class ItemRecord:
    """One item copy stored at one site."""

    __slots__ = ("item_id", "value", "committed_version", "writers",
                 "_writer_set")

    def __init__(self, item_id: ItemId, value=0):
        self.item_id = item_id
        self.value = value
        #: Number of committed writes applied to this copy; version 0 is
        #: the initial value.
        self.committed_version = 0
        #: ``writers[v - 1]`` is the global txn id that created version v.
        #: Append through :meth:`record_writer` only, so the membership
        #: index below never drifts from the list.
        self.writers: typing.List[GlobalTransactionId] = []
        self._writer_set: typing.Set[GlobalTransactionId] = set()

    def __repr__(self):
        return "<Item {} v{}={!r}>".format(
            self.item_id, self.committed_version, self.value)

    def record_writer(self, gid: GlobalTransactionId) -> None:
        """Append ``gid`` as the writer of the next committed version."""
        self.writers.append(gid)
        self._writer_set.add(gid)

    def written_by(self, gid: GlobalTransactionId) -> bool:
        """Whether ``gid`` wrote any committed version of this copy.

        A hash lookup: the duplicate filter runs per item per replicated
        update, so it must not scan a lineage that grows by one entry
        per commit."""
        return gid in self._writer_set

    def writer_of(self, version: int
                  ) -> typing.Optional[GlobalTransactionId]:
        """Global txn id that wrote ``version`` (``None`` for version 0)."""
        if version == 0:
            return None
        return self.writers[version - 1]
