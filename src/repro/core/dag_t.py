"""The DAG(T) protocol — "DAG with Timestamps" (paper Sec. 3).

Updates travel directly along copy-graph edges.  Each site keeps one
incoming queue per copy-graph parent and executes, one at a time, the
secondary subtransaction with the minimum timestamp among the queue heads
— but only once *every* queue is non-empty (Sec. 3.2.3).  Progress is
guaranteed by epoch numbers incremented periodically at source sites and
by dummy subtransactions sent along idle edges (Sec. 3.3).

Site timestamp bookkeeping (Sec. 3.2.1):

- ``TS(site)`` is the concatenation of the timestamp of the last committed
  secondary subtransaction and the site's own tuple ``(site, LTS)``;
- a committing primary increments ``LTS`` and takes ``TS(site)`` as its
  timestamp (Sec. 3.2.2);
- a committing secondary ``Ti`` sets the base to ``TS(Ti)`` (Sec. 3.2.3).
"""

from __future__ import annotations

import collections
import typing

from repro.core.base import (
    ReplicatedSystem,
    ReplicationProtocol,
    Site,
    register_protocol,
)
from repro.core.timestamps import SiteTuple, VectorTimestamp
from repro.errors import ConfigurationError
from repro.network.message import Message, MessageType
from repro.sim.events import Event
from repro.types import (
    GlobalTransactionId,
    ItemId,
    SiteId,
    SubtransactionKind,
)


class _SiteClock:
    """Per-site DAG(T) timestamp state.

    Timestamps use the site's *rank* in the topological total order of
    Sec. 3.1 (``s1 < s2 < ...``), not its raw identifier — the total order
    must be consistent with the DAG for the concatenation invariant of
    Sec. 3.2.3 to hold.
    """

    __slots__ = ("site_id", "rank", "counter", "base", "epoch")

    def __init__(self, site_id: SiteId, rank: int):
        self.site_id = site_id
        self.rank = rank
        #: ``LTS``: number of primaries committed here (Sec. 3.1).
        self.counter = 0
        #: Timestamp of the last committed secondary (empty initially).
        self.base = VectorTimestamp()
        #: Current epoch (Sec. 3.3).
        self.epoch = 0

    def site_timestamp(self) -> VectorTimestamp:
        """``TS(site)`` = base concatenated with the site's own tuple."""
        return self.base.with_epoch(self.epoch).concat(
            SiteTuple(self.rank, self.counter))

    def on_primary_commit(self) -> VectorTimestamp:
        """Sec. 3.2.2 steps 1-2: bump ``LTS``, return the new TS."""
        self.counter += 1
        return self.site_timestamp()

    def on_secondary_commit(self, ts: VectorTimestamp) -> None:
        """Sec. 3.2.3: adopt the committed secondary's timestamp."""
        self.base = ts
        self.epoch = ts.epoch


@register_protocol
class DagTProtocol(ReplicationProtocol):
    """Lazy propagation along copy-graph edges ordered by timestamps."""

    name = "dag_t"
    requires_dag = True

    def __init__(self, system: ReplicatedSystem, graph=None):
        super().__init__(system)
        #: The DAG the lazy machinery runs on.  Defaults to the system's
        #: copy graph; the BackEdge-over-DAG(T) extension passes the copy
        #: graph minus its backedges.
        self.graph = graph if graph is not None else system.copy_graph
        if not self.graph.is_dag():
            raise ConfigurationError(
                "{}: propagation graph must be a DAG; found cycle {}"
                .format(self.name, self.graph.find_cycle()))
        graph = self.graph
        order = graph.topological_order()
        #: Rank of each site in the Sec. 3.1 total order.
        self.ranks = {site_id: rank for rank, site_id in enumerate(order)}
        self.clocks = {site_id: _SiteClock(site_id, self.ranks[site_id])
                       for site_id in graph.sites}
        #: site -> parent -> FIFO deque of pending messages.
        self._queues: typing.Dict[SiteId, typing.Dict[
            SiteId, typing.Deque[Message]]] = {
            site_id: {parent: collections.deque()
                      for parent in sorted(graph.parents(site_id))}
            for site_id in graph.sites}
        #: Pending "all queues non-empty" events per site.
        self._ready_events: typing.Dict[SiteId, typing.Optional[Event]] = {
            site_id: None for site_id in graph.sites}
        #: Last time anything was sent along each copy-graph edge (drives
        #: dummy generation).
        self._last_sent: typing.Dict[typing.Tuple[SiteId, SiteId], float] = {}

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def setup(self) -> None:
        graph = self.graph
        local = set(self.system.local_site_ids)
        for site in self.system.local_sites:
            site_id = site.site_id
            self.install_lazy_timeout_policy(site.engine.locks)
            self.network.set_handler(site_id, self._make_handler(site))
            if graph.parents(site_id):
                self.env.process(self._queue_processor(site))
            if graph.children(site_id):
                self.env.process(self._heartbeat_loop(site_id))
        for source in graph.sources():
            if source in local and graph.children(source):
                self.env.process(self._epoch_loop(source))

    def _make_handler(self, site: Site):
        site_id = site.site_id

        def handler(message: Message) -> None:
            self._queues[site_id][message.src].append(message)
            self._check_ready(site_id)
        return handler

    # ------------------------------------------------------------------
    # Primary subtransactions (Sec. 3.2.2)
    # ------------------------------------------------------------------

    def _propagate(self, site_id: SiteId, gid: GlobalTransactionId,
                   writes: typing.Mapping[ItemId, typing.Any]) -> None:
        """Steps 1-3 of Sec. 3.2.2, in the commit step (the paper's
        "critical section"): bump ``LTS``, take ``TS(site)``, send."""
        timestamp = self.clocks[site_id].on_primary_commit()
        self._schedule_secondaries(site_id, gid, writes, timestamp)

    def _schedule_secondaries(self, site_id: SiteId,
                              gid: GlobalTransactionId,
                              writes: typing.Mapping[ItemId, typing.Any],
                              timestamp: VectorTimestamp) -> None:
        """Sec. 3.2.2 step 3: append to relevant children's queues.

        In DAG(T) every replica holder is a direct child in :attr:`graph`,
        so updates travel one hop.  (BackEdge-T serves the replica holders
        its backedges reach eagerly; they are not children here.)"""
        for child in sorted(self._expected_replicas(writes)
                            & self.graph.children(site_id)):
            relevant = {item: value for item, value in writes.items()
                        if child in self.placement.replica_sites(item)}
            self.network.send(MessageType.SECONDARY, site_id, child,
                              gid=gid, writes=relevant, ts=timestamp)
            self._last_sent[(site_id, child)] = self.env.now

    # ------------------------------------------------------------------
    # Secondary subtransactions (Sec. 3.2.3)
    # ------------------------------------------------------------------

    def _check_ready(self, site_id: SiteId) -> None:
        event = self._ready_events[site_id]
        if event is None:
            return
        if all(queue for queue in self._queues[site_id].values()):
            self._ready_events[site_id] = None
            event.succeed()

    def _wait_all_queues(self, site_id: SiteId) -> Event:
        event = Event(self.env)
        if all(queue for queue in self._queues[site_id].values()):
            event.succeed()
        else:
            self._ready_events[site_id] = event
        return event

    def _pop_minimum(self, site_id: SiteId) -> Message:
        """Pop the queue-head message with the minimum timestamp (ties
        broken by parent site id, deterministically)."""
        queues = self._queues[site_id]
        best_parent = min(
            queues, key=lambda parent: (queues[parent][0].payload["ts"],
                                        parent))
        return queues[best_parent].popleft()

    def _queue_processor(self, site: Site):
        site_id = site.site_id
        while True:
            yield self._wait_all_queues(site_id)
            message = self._pop_minimum(site_id)
            yield from site.work(self.config.cpu_message)
            timestamp = message.payload["ts"]
            if message.msg_type is MessageType.DUMMY:
                # Just push the site timestamp/epoch forward (Sec. 3.3).
                self.clocks[site_id].on_secondary_commit(timestamp)
                self.system.notify("timestamp_adopted", site=site_id,
                                   ts=timestamp, gid=None,
                                   time=self.env.now)
            else:
                yield from self._apply_secondary(site, message, timestamp)
            self._adopted(site_id, message)

    def _adopted(self, site_id: SiteId, message: Message) -> None:
        """Hook: the site adopted ``message``'s timestamp (a committed
        secondary or a dummy).  BackEdge-T wakes its catch-up waiters
        here."""

    def _apply_secondary(self, site: Site, message: Message,
                         timestamp: VectorTimestamp):
        gid = message.payload["gid"]
        writes = message.payload["writes"]
        txn = site.engine.begin(gid, SubtransactionKind.SECONDARY)
        for item in sorted(writes):
            yield from site.engine.write(txn, item, writes[item])
            yield from site.work(self.config.cpu_apply_write)
        yield from site.work(self.config.cpu_commit)
        # Commit and adopt the timestamp atomically (Sec. 3.2.3).
        site.engine.commit(txn)
        self.clocks[site.site_id].on_secondary_commit(timestamp)
        self.system.notify("timestamp_adopted", site=site.site_id,
                           ts=timestamp, gid=gid, time=self.env.now)
        self.system.notify("replica_commit", gid=gid, site=site.site_id,
                           time=self.env.now)

    # ------------------------------------------------------------------
    # Progress machinery (Sec. 3.3)
    # ------------------------------------------------------------------

    def _heartbeat_loop(self, site_id: SiteId):
        """Send dummy subtransactions along edges idle for a while."""
        interval = self.config.heartbeat_interval
        children = sorted(self.graph.children(site_id))
        while True:
            yield self.env.timeout(interval)
            for child in children:
                last = self._last_sent.get((site_id, child), -interval)
                if self.env.now - last >= interval:
                    self.network.send(
                        MessageType.DUMMY, site_id, child,
                        ts=self.clocks[site_id].site_timestamp())
                    self._last_sent[(site_id, child)] = self.env.now

    def _epoch_loop(self, site_id: SiteId):
        """Sources increment their epoch periodically (same period)."""
        while True:
            yield self.env.timeout(self.config.epoch_interval)
            self.clocks[site_id].epoch += 1
