"""The DAG(WT) protocol — "DAG Without Timestamps" (paper Sec. 2).

Updates propagate along the edges of a tree ``T`` derived from the (DAG)
copy graph.  At each site a single queue processor commits incoming
secondary subtransactions in FIFO arrival order and forwards them — in
commit order, atomically with commit — to the site's *relevant* tree
children (a child is relevant if its subtree contains a replica of an
updated item).

Secondary subtransactions are never chosen as deadlock victims: on a lock
wait timeout they wound a conflicting primary and keep waiting, so they
eventually commit (the fairness requirement of Sec. 2).
"""

from __future__ import annotations

import typing

from repro.core.base import (
    ReplicatedSystem,
    ReplicationProtocol,
    Site,
    register_protocol,
)
from repro.errors import TransactionAborted
from repro.graph.tree import PropagationTree, build_propagation_tree
from repro.network.message import Message, MessageType
from repro.sim.resources import Mailbox
from repro.types import (
    GlobalTransactionId,
    ItemId,
    SiteId,
    SubtransactionKind,
)


@register_protocol
class DagWtProtocol(ReplicationProtocol):
    """Lazy propagation along a propagation tree (Sec. 2)."""

    name = "dag_wt"
    requires_dag = True

    def __init__(self, system: ReplicatedSystem,
                 tree: typing.Optional[PropagationTree] = None,
                 prefer_chain: bool = False):
        super().__init__(system)
        self._prefer_chain = prefer_chain
        if tree is None:
            tree = self._default_tree(prefer_chain)
        self.tree = tree
        #: Secondaries whose origin epoch differed from ours at apply
        #: time (diagnostic — correctness rests on the current-placement
        #: relevance filter, not on the stamp).
        self.epoch_skew = 0
        #: One incoming queue per site (each site has at most one tree
        #: parent, so a single FIFO mailbox suffices).
        self._queues: typing.Dict[SiteId, Mailbox] = {
            site.site_id: Mailbox(self.env,
                                  name="wt-queue-s{}".format(site.site_id))
            for site in system.local_sites}

    def _default_tree(self, prefer_chain: bool) -> PropagationTree:
        return build_propagation_tree(self.system.copy_graph,
                                      prefer_chain=prefer_chain)

    def on_placement_change(self) -> None:
        """Re-derive the propagation tree for the new epoch's copy
        graph.  An explicitly injected tree cannot survive a placement
        change, so the default construction takes over."""
        super().on_placement_change()
        self.tree = self._default_tree(self._prefer_chain)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def setup(self) -> None:
        for site in self.system.local_sites:
            self.install_lazy_timeout_policy(site.engine.locks)
            self.network.set_handler(site.site_id, self._make_handler(site))
            self.env.process(self._queue_processor(site))

    def _make_handler(self, site: Site):
        def handler(message: Message) -> None:
            self._queues[site.site_id].put(message)
        return handler

    # ------------------------------------------------------------------
    # Propagation along the tree
    # ------------------------------------------------------------------

    def _forward(self, from_site: SiteId, gid: GlobalTransactionId,
                 writes: typing.Mapping[ItemId, typing.Any]) -> None:
        """Forward a secondary subtransaction to relevant tree children."""
        if not writes:
            return
        for child in self.tree.children(from_site):
            if self._child_is_relevant(child, writes):
                self.network.send(MessageType.SECONDARY, from_site, child,
                                  gid=gid, writes=dict(writes),
                                  epoch=self.system.epoch)

    #: A committed primary takes the same path as a committed secondary.
    _propagate = _forward

    def _child_is_relevant(self, child: SiteId,
                           writes: typing.Mapping[ItemId, typing.Any]
                           ) -> bool:
        """Sec. 2: a child is relevant if it or a descendant holds a
        replica of an updated item."""
        subtree = self.tree.subtree(child)
        return any(self.placement.replica_sites(item) & subtree
                   for item in writes)

    # ------------------------------------------------------------------
    # Secondary subtransactions
    # ------------------------------------------------------------------

    def _queue_processor(self, site: Site):
        """Commit incoming secondaries in FIFO order, forward in commit
        order (one at a time, Sec. 3.2.3's simplification shared here)."""
        queue = self._queues[site.site_id]
        while True:
            message = yield queue.get()
            yield from site.work(self.config.cpu_message)
            yield from self._process_message(site, message)

    def _process_message(self, site: Site, message: Message):
        """Handle one queued message.  Subclasses extend (BackEdge)."""
        if message.msg_type is MessageType.SECONDARY:
            yield from self._apply_secondary(site, message)
        else:
            raise TransactionAborted(
                message.payload.get("gid"),
                "unexpected message {} at s{}".format(
                    message.msg_type, site.site_id))

    def _apply_secondary(self, site: Site, message: Message):
        gid = message.payload["gid"]
        writes = message.payload["writes"]
        origin_epoch = message.payload.get("epoch")
        if origin_epoch is not None and origin_epoch != self.system.epoch:
            self.epoch_skew += 1
        # The has_applied filter makes application idempotent: the live
        # runtime's transport is at-least-once and its catch-up replies
        # can land while the same update sits in this queue.  Under the
        # simulator's exactly-once delivery it never filters anything.
        local_items = sorted(
            item for item in writes
            if site.site_id in self.placement.replica_sites(item)
            and not site.engine.has_applied(item, gid))
        if local_items:
            txn = site.engine.begin(gid, SubtransactionKind.SECONDARY)
            for item in local_items:
                # Secondaries keep waiting on conflicts (the timeout
                # policy wounds primaries); they never abort.
                yield from site.engine.write(txn, item, writes[item])
                yield from site.work(self.config.cpu_apply_write)
            yield from site.work(self.config.cpu_commit)
            site.engine.commit(txn)
            self.system.notify("replica_commit", gid=gid,
                               site=site.site_id, time=self.env.now)
        # Forward (in commit order — this processor is the only secondary
        # committer and does not yield between commit and forward).
        self._forward(site.site_id, gid, writes)
