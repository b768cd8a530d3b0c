"""Indiscriminate lazy propagation — the commercial baseline the paper
argues *against* (Sec. 1).

"[Database vendors] provide an option in which each transaction executes
locally, and then asynchronously propagates its updates to replicas
after it commits ... A problem with the lazy replication approaches of
most commercial systems is that they can easily lead to non-serializable
executions. ... Currently, commercial systems use reconciliation rules
(e.g., install the update with the later timestamp) to merge conflicting
updates.  These rules do not guarantee serializability unless the
updates are commutative."

This protocol does exactly that: after a local commit, the updates are
sent directly to every replica site and applied in arrival order, with
an optional last-writer-wins (Thomas write rule) reconciliation on the
origin commit timestamp.  It exists so the reproduction can *measure*
the anomalies (Example 1.1 at workload scale) that DAG(WT)/DAG(T)/
BackEdge are designed to eliminate — run it with
``strict_serializability=False``.
"""

from __future__ import annotations

import typing

from repro.core.base import (
    ReplicatedSystem,
    ReplicationProtocol,
    Site,
    register_protocol,
)
from repro.network.message import Message, MessageType
from repro.storage.locks import LockMode
from repro.types import (
    GlobalTransactionId,
    ItemId,
    SiteId,
    SubtransactionKind,
)


@register_protocol
class IndiscriminateProtocol(ReplicationProtocol):
    """Commercial-style lazy propagation without ordering control."""

    name = "indiscriminate"
    requires_dag = False

    def __init__(self, system: ReplicatedSystem,
                 reconcile: bool = True):
        super().__init__(system)
        #: Last-writer-wins reconciliation (Thomas write rule) on the
        #: origin commit timestamp; without it, updates apply in raw
        #: arrival order and replicas need not even converge.
        self.reconcile = reconcile
        #: Per site: item -> (commit_time, gid) of the newest applied
        #: update (reconciliation state).
        self._applied: typing.List[typing.Dict[ItemId, tuple]] = [
            dict() for _ in range(system.placement.n_sites)]

    def setup(self) -> None:
        for site in self.system.local_sites:
            self.install_lazy_timeout_policy(site.engine.locks)
            self.network.set_handler(site.site_id, self._make_handler(site))

    def _make_handler(self, site: Site):
        def handler(message: Message) -> None:
            self.env.process(self._apply_secondary(site, message))
        return handler

    def _propagate(self, site_id: SiteId, gid: GlobalTransactionId,
                   writes: typing.Mapping[ItemId, typing.Any]) -> None:
        """Straight to every replica holder, no ordering."""
        for replica in sorted(self._expected_replicas(writes)):
            relevant = {item: value for item, value in writes.items()
                        if replica in self.placement.replica_sites(item)}
            self.network.send(MessageType.SECONDARY, site_id, replica,
                              gid=gid, writes=relevant,
                              commit_time=self.env.now)

    def _apply_secondary(self, site: Site, message: Message):
        yield from site.work(self.config.cpu_message)
        gid: GlobalTransactionId = message.payload["gid"]
        writes = message.payload["writes"]
        stamp = (message.payload["commit_time"], gid)
        applied = self._applied[site.site_id]

        def is_stale(item) -> bool:
            if not self.reconcile:
                return False
            return not applied.get(item, (-1.0, None)) < stamp

        items = [item for item in sorted(writes) if not is_stale(item)]
        if not items:
            return
        txn = site.engine.begin(gid, SubtransactionKind.SECONDARY)
        for item in items:
            # Lock first, then re-check staleness (the Thomas write
            # rule): a newer update may have landed during the wait.
            grant = site.engine.locks.acquire(txn, item, LockMode.EXCLUSIVE)
            if grant.callbacks is not None:
                yield grant
            if is_stale(item):
                continue
            yield from site.engine.write(txn, item, writes[item])
            yield from site.work(self.config.cpu_apply_write)
        if not txn.writes:
            site.engine.abort(txn)  # Everything lost reconciliation.
            return
        yield from site.work(self.config.cpu_commit)
        site.engine.commit(txn)
        for item in txn.writes:
            applied[item] = stamp
        self.system.notify("replica_commit", gid=gid, site=site.site_id,
                           time=self.env.now)
