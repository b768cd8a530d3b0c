"""The BackEdge protocol (paper Sec. 4) over either lazy DAG protocol.

For an arbitrary copy graph, a backedge set ``B`` is chosen so that the
remaining edges form a DAG.  Updates along ``B`` propagate *eagerly*:
backedge subtransactions hold their locks until the primary commits
them atomically with itself.  Updates along the DAG edges stay lazy.
The eager phase (:class:`BackEdgePhase`) is defined once, composed with
one of two lazy halves:

- :class:`BackEdgeProtocol` — over DAG(WT), the paper's form.  A primary
  ``Ti`` at ``si`` with backedge targets ``si1..sij`` (replica sites that
  are tree ancestors of ``si``):

  1. executes locally, sends a *backedge subtransaction* ``S1`` directly
     to the farthest ancestor ``si1`` and keeps its locks;
  2. ``S1`` applies the updates at ``si1`` (holding locks, prepared) and
     relays a *special* secondary subtransaction down the tree toward
     ``si``.  The special is handled in its queue position at every site
     on the path: a backedge site applies the updates and holds its
     locks, a pure relay site just forwards;
  3. when the special reaches ``si``, ``Ti`` and ``S1..Sj`` commit
     atomically via a PREPARE/VOTE/DECISION round;
  4. ``Ti``'s updates for *descendant* sites then propagate lazily.

  The performance study (Sec. 5.1) uses the topological *chain* as the
  propagation tree; ``variant="tree"`` is the general form with a minimal
  backedge set.

- :class:`BackEdgeTProtocol` — over DAG(T), the extension the paper
  defers to its technical report (Sec. 4).  There is no tree to relay a
  special through, so ``Ti`` sends a backedge subtransaction to **each**
  target in parallel; each target applies, prepares and votes with its
  current site timestamp.  ``Ti`` commits once its own site timestamp
  has caught up with every vote.  The backedge set is minimal, so every
  target is a DAG ancestor of ``si`` and its timestamp reaches ``si``
  through committed secondaries and dummies; a target relays dummies at
  once after preparing so the catch-up takes network hops, not heartbeat
  periods.  Every subtransaction serialized before ``Ti`` at a target
  has then committed at ``si`` — or is blocked on ``Ti``'s locks, and
  the timeout victim rules wound ``Ti``.

Global deadlocks (Example 4.1) are resolved by the timeout victim rules:
a blocked secondary wounds a conflicting primary; a primary blocked on a
backedge subtransaction's lock aborts itself; an aborted primary tears
down its backedge subtransactions with ``ABORT_SUBTXN`` messages.
"""

from __future__ import annotations

import typing

from repro.core.base import (
    ReplicatedSystem,
    ReplicationProtocol,
    Site,
    register_protocol,
)
from repro.core.dag_t import DagTProtocol
from repro.core.dag_wt import DagWtProtocol
from repro.core.timestamps import VectorTimestamp
from repro.errors import ConfigurationError, GraphError, LockTimeout
from repro.graph.backedges import (
    backedges_of_order,
    greedy_fas_order,
    make_minimal,
)
from repro.graph.tree import build_propagation_tree, chain_tree
from repro.network.message import Message, MessageType
from repro.sim.events import Event, Interrupt
from repro.storage.transaction import Transaction, TransactionStatus
from repro.types import (
    GlobalTransactionId,
    ItemId,
    SiteId,
    SubtransactionKind,
)


class BackEdgePhase:
    """The eager phase along the backedges, over a lazy DAG protocol.

    A lazy half supplies ``_routes`` (its queued message types and its
    coordination messages), ``_downstream`` (whether a replica site is
    reached lazily), ``_commit_round`` (the coordinator side of the
    phase) and ``_prepared`` (what a participant does once it holds its
    locks).
    """

    def _derive_routing(self, graph, site_order, minimal: bool) -> None:
        """Site order and backedge set: a total order over the sites
        consistent with the DAG part (the identity order on a cyclic
        graph, Sec. 5.2) or the Sec. 4.2 greedy order, whose backward
        edges form the backedge set."""
        if site_order is None:
            site_order = (graph.topological_order() if graph.is_dag()
                          else list(range(graph.n_sites)))
        elif site_order == "greedy":
            # Sec. 4.2: minimise the *weight* of the backedge set (weight
            # = number of items propagated along each edge) with the
            # Eades-Lin-Smyth heuristic.
            site_order = greedy_fas_order(graph)
        backedges = backedges_of_order(graph, site_order)
        self.site_order = list(site_order)
        self.backedges = (make_minimal(graph, backedges) if minimal
                          else backedges)

    def _check_targets(self, upstream) -> None:
        """Every backedge must point upstream on the lazy half."""
        for src, dst in self.backedges:
            if not upstream(dst, src):
                raise GraphError(
                    "backedge s{}->s{}: target is not upstream of the "
                    "origin on the lazy half".format(src, dst))

    def _init_eager_state(self, n_sites: int) -> None:
        #: Participant side: gid -> held backedge/special subtxn.
        self._participants: typing.List[dict] = [dict()
                                                 for _ in range(n_sites)]
        #: Coordinator side: (gid, target) -> vote event.
        self._vote_events: typing.Dict[typing.Tuple, Event] = {}
        #: Globally-aborted gids per site (drop late messages).
        self._aborted: typing.List[set] = [set() for _ in range(n_sites)]

    def _make_handler(self, site: Site):
        def spawn(serve):
            return lambda message: self.env.process(serve(site, message))

        routes = self._routes(super()._make_handler(site), spawn)
        routes[MessageType.BACKEDGE] = spawn(self._on_backedge)
        routes[MessageType.DECISION] = spawn(self._on_decision)
        routes[MessageType.ABORT_SUBTXN] = spawn(self._on_abort_subtxn)

        def handler(message: Message) -> None:
            route = routes.get(message.msg_type)
            if route is None:  # pragma: no cover - defensive
                self.network.dead_letters.append(message)
            else:
                route(message)
        return handler

    # ------------------------------------------------------------------
    # Coordinator side (the origin's primary)
    # ------------------------------------------------------------------

    def _backedge_targets(self, origin: SiteId,
                          writes: typing.Mapping[ItemId, typing.Any]
                          ) -> typing.List[SiteId]:
        """Replica sites of ``writes`` reached from ``origin`` along a
        backedge; every other replica site must be downstream."""
        targets = set()
        for replica in self._expected_replicas(writes):
            if (origin, replica) in self.backedges:
                targets.add(replica)
            elif not self._downstream(origin, replica):
                raise GraphError(
                    "replica site s{} is neither a backedge target nor "
                    "downstream of origin s{}".format(replica, origin))
        return sorted(targets)

    def _eager_phase(self, site: Site, txn: Transaction):
        origin = site.site_id
        writes = self._replicated_writes(txn)
        targets = self._backedge_targets(origin, writes)
        if not targets:
            return
        try:
            yield from self._commit_round(site, txn, writes, targets)
        except (LockTimeout, Interrupt):
            self._teardown(origin, txn.gid, targets)
            raise
        txn.shielded = True
        for target in targets:
            self.network.send(MessageType.DECISION, origin, target,
                              gid=txn.gid, commit=True)

    def _gather_votes(self, gid: GlobalTransactionId,
                      targets: typing.List[SiteId], request):
        """Call ``request(target)`` for each target, then collect their
        votes in target order."""
        for target in targets:
            self._vote_events[(gid, target)] = Event(self.env)
            request(target)
        votes = []
        for target in targets:
            votes.append((yield self._vote_events[(gid, target)]))
            self._vote_events.pop((gid, target), None)
        return votes

    def _teardown(self, origin: SiteId, gid: GlobalTransactionId,
                  targets: typing.List[SiteId]) -> None:
        """Abort-path cleanup at the origin."""
        self._aborted[origin].add(gid)
        for target in targets:
            self.network.send(MessageType.ABORT_SUBTXN, origin, target,
                              gid=gid)
            self._vote_events.pop((gid, target), None)

    # ------------------------------------------------------------------
    # Participant side
    # ------------------------------------------------------------------

    def _on_backedge(self, site: Site, message: Message):
        yield from site.work(self.config.cpu_message)
        gid = message.payload["gid"]
        if gid in self._aborted[site.site_id]:
            return
        if (yield from self._hold(site, gid, SubtransactionKind.BACKEDGE,
                                  message.payload["writes"])):
            self._prepared(site.site_id, message)

    def _hold(self, site: Site, gid: GlobalTransactionId,
              kind: SubtransactionKind,
              writes: typing.Mapping[ItemId, typing.Any]):
        """Apply the locally-replicated part of ``writes`` and prepare,
        holding the locks for the decision.  Returns ``False`` when the
        origin aborted meanwhile.

        Never raises on lock waits: non-primary requesters are never
        chosen as timeout victims (they wound conflicting primaries and
        keep waiting)."""
        site_id = site.site_id
        txn = site.engine.begin(gid, kind)
        self._participants[site_id][gid] = txn
        for item in sorted(item for item in writes
                           if site_id in self.placement.replica_sites(item)):
            yield from site.engine.write(txn, item, writes[item])
            yield from site.work(self.config.cpu_apply_write)
        if gid in self._aborted[site_id]:
            txn = self._participants[site_id].pop(gid, None)
            if txn is not None and not txn.is_finished:
                site.engine.abort(txn)
            return False
        site.engine.prepare(txn)
        return True

    def _on_decision(self, site: Site, message: Message):
        yield from site.work(self.config.cpu_message)
        gid = message.payload["gid"]
        commit = bool(message.payload["commit"])
        site_id = site.site_id
        if not commit:
            self._aborted[site_id].add(gid)
        txn = self._participants[site_id].pop(gid, None)
        if txn is None or txn.is_finished:
            return
        if commit:
            yield from site.work(self.config.cpu_commit)
            site.engine.commit(txn)
            self.system.notify("replica_commit", gid=gid, site=site_id,
                               time=self.env.now)
        else:
            site.engine.abort(txn)

    def _on_abort_subtxn(self, site: Site, message: Message):
        yield from site.work(self.config.cpu_message)
        gid = message.payload["gid"]
        site_id = site.site_id
        self._aborted[site_id].add(gid)
        txn = self._participants[site_id].get(gid)
        if txn is not None and txn.status is TransactionStatus.PREPARED:
            self._participants[site_id].pop(gid, None)
            site.engine.abort(txn)
        # An ACTIVE participant is still applying writes; ``_hold`` checks
        # the aborted set once the writes are in and drops it (aborting it
        # from here would strand its process on a cancelled lock wait).


@register_protocol
class BackEdgeProtocol(BackEdgePhase, DagWtProtocol):
    """Hybrid eager/lazy propagation over DAG(WT)."""

    name = "backedge"
    requires_dag = False

    def __init__(self, system: ReplicatedSystem, variant: str = "chain",
                 site_order: typing.Optional[
                     typing.Sequence[SiteId]] = None):
        if variant not in ("chain", "tree"):
            raise ConfigurationError(
                "unknown BackEdge variant {!r}".format(variant))
        self.variant = variant
        self._derive_routing(system.copy_graph, site_order,
                             minimal=variant == "tree")
        super().__init__(system, tree=self._variant_tree(system.copy_graph))
        self._check_targets(self.tree.is_ancestor)
        self._init_eager_state(system.copy_graph.n_sites)
        #: Origin side: gid -> event the primary awaits (special arrival).
        self._awaiting_special: typing.List[dict] = [
            dict() for _ in range(system.copy_graph.n_sites)]

    def _variant_tree(self, graph):
        if self.variant == "chain":
            return chain_tree(self.site_order)
        return build_propagation_tree(graph.without_edges(self.backedges))

    def on_placement_change(self) -> None:
        """Re-derive site order, backedge set and tree for the new
        epoch's copy graph (an explicit site order cannot survive a
        placement change)."""
        # Skip DagWt's rebuild: its default tree construction assumes a
        # DAG copy graph, which BackEdge does not require.
        ReplicationProtocol.on_placement_change(self)
        graph = self.system.copy_graph
        self._derive_routing(graph, None, minimal=self.variant == "tree")
        self.tree = self._variant_tree(graph)
        self._check_targets(self.tree.is_ancestor)

    def _routes(self, queue, spawn) -> dict:
        return {MessageType.SECONDARY: queue, MessageType.SPECIAL: queue,
                MessageType.PREPARE: spawn(self._on_prepare),
                MessageType.VOTE: spawn(self._on_vote)}

    def _downstream(self, origin: SiteId, replica: SiteId) -> bool:
        return self.tree.is_ancestor(origin, replica)

    # ------------------------------------------------------------------
    # Coordinator: S1 to the farthest target, the special's round trip,
    # then PREPARE/VOTE
    # ------------------------------------------------------------------

    def _commit_round(self, site: Site, txn: Transaction,
                      writes: typing.Mapping[ItemId, typing.Any],
                      targets: typing.List[SiteId]):
        origin = site.site_id
        gid = txn.gid
        farthest = min(targets, key=self.tree.depth)
        arrival = Event(self.env)
        self._awaiting_special[origin][gid] = arrival
        self.network.send(MessageType.BACKEDGE, origin, farthest, gid=gid,
                          writes=dict(writes), origin=origin)
        try:
            # Steps 1-2 happen remotely; Ti holds its locks and waits.
            yield arrival
        finally:
            self._awaiting_special[origin].pop(gid, None)
        # Step 3: the special has arrived (every secondary queued before
        # it has been handled here) — commit everyone atomically.
        votes = yield from self._gather_votes(
            gid, targets, lambda target: self.network.send(
                MessageType.PREPARE, origin, target, gid=gid))
        if not all(votes):
            # A participant was torn down: global abort.
            for target in targets:
                self.network.send(MessageType.DECISION, origin, target,
                                  gid=gid, commit=False)
            raise LockTimeout(gid, "backedge-participant")

    def _on_prepare(self, site: Site, message: Message):
        yield from site.work(self.config.cpu_message)
        gid = message.payload["gid"]
        txn = self._participants[site.site_id].get(gid)
        ready = txn is not None and \
            txn.status is TransactionStatus.PREPARED
        self.network.send(MessageType.VOTE, site.site_id, message.src,
                          gid=gid, commit=ready)

    def _on_vote(self, site: Site, message: Message):
        yield from site.work(self.config.cpu_message)
        event = self._vote_events.get((message.payload["gid"], message.src))
        if event is not None and not event.triggered:
            event.succeed(bool(message.payload["commit"]))

    # ------------------------------------------------------------------
    # The special secondary subtransaction (queue path)
    # ------------------------------------------------------------------

    def _prepared(self, site_id: SiteId, message: Message) -> None:
        self._relay_special(site_id, message, self._next_hop(
            site_id, message.payload["origin"]))

    def _next_hop(self, site_id: SiteId, origin: SiteId) -> SiteId:
        return self.tree.path_down(site_id, origin)[0]

    def _relay_special(self, site_id: SiteId, message: Message,
                       next_hop: SiteId) -> None:
        payload = message.payload
        self.network.send(MessageType.SPECIAL, site_id, next_hop,
                          gid=payload["gid"], writes=dict(payload["writes"]),
                          origin=payload["origin"])

    def _process_message(self, site: Site, message: Message):
        if message.msg_type is MessageType.SPECIAL:
            yield from self._handle_special(site, message)
        else:
            yield from super()._process_message(site, message)

    def _handle_special(self, site: Site, message: Message):
        """The special prepares in its queue position.  Its held locks
        order every conflicting subtransaction until the decision, which
        ``_on_decision`` applies; non-conflicting queue traffic commits
        meanwhile."""
        gid = message.payload["gid"]
        origin = message.payload["origin"]
        writes = message.payload["writes"]
        site_id = site.site_id
        if site_id == origin:
            # The round trip is complete: hand control to the primary.
            arrival = self._awaiting_special[origin].pop(gid, None)
            if arrival is not None:  # else Ti already aborted; drop.
                arrival.succeed(message)
            return
        if gid in self._aborted[site_id]:
            return
        next_hop = self._next_hop(site_id, origin)
        if any(site_id in self.placement.replica_sites(item)
               for item in writes):
            # A backedge site on the path: execute and hold locks.
            if not (yield from self._hold(
                    site, gid, SubtransactionKind.SPECIAL, writes)):
                return
        self._relay_special(site_id, message, next_hop)


@register_protocol
class BackEdgeTProtocol(BackEdgePhase, DagTProtocol):
    """Hybrid eager/lazy propagation over DAG(T)."""

    name = "backedge_t"
    requires_dag = False

    def __init__(self, system: ReplicatedSystem,
                 site_order: typing.Optional[
                     typing.Sequence[SiteId]] = None):
        graph = system.copy_graph
        # Minimality matters here: it guarantees every backedge target is
        # a DAG ancestor of the origin, so the timestamp catch-up
        # terminates.
        self._derive_routing(graph, site_order, minimal=True)
        super().__init__(system, graph=graph.without_edges(self.backedges))
        self._check_targets(
            lambda target, origin: target in self.graph.ancestors(origin))
        self._init_eager_state(graph.n_sites)
        #: Events waiting for a site's base timestamp to advance.
        self._base_watchers: typing.List[list] = [
            [] for _ in range(graph.n_sites)]

    def _routes(self, queue, spawn) -> dict:
        return {MessageType.SECONDARY: queue, MessageType.DUMMY: queue,
                MessageType.VOTE: self._record_vote}

    def _downstream(self, origin: SiteId, replica: SiteId) -> bool:
        return self.graph.has_edge(origin, replica)

    # ------------------------------------------------------------------
    # Coordinator: parallel backedge subtransactions, timestamp votes,
    # then the catch-up
    # ------------------------------------------------------------------

    def _commit_round(self, site: Site, txn: Transaction,
                      writes: typing.Mapping[ItemId, typing.Any],
                      targets: typing.List[SiteId]):
        origin = site.site_id
        gid = txn.gid

        def dispatch(target: SiteId) -> None:
            relevant = {item: value for item, value in writes.items()
                        if target in self.placement.replica_sites(item)}
            self.network.send(MessageType.BACKEDGE, origin, target,
                              gid=gid, writes=relevant, origin=origin)

        acks = yield from self._gather_votes(gid, targets, dispatch)
        if any(ack is False for ack in acks):
            raise LockTimeout(gid, "backedge-participant")
        for ack in acks:
            yield from self._wait_base_at_least(origin, ack)

    def _record_vote(self, message: Message) -> None:
        event = self._vote_events.get((message.payload["gid"], message.src))
        if event is not None and not event.triggered:
            event.succeed(message.payload["ack"])

    def _prepared(self, site_id: SiteId, message: Message) -> None:
        """Vote with this site's current timestamp (everything committed
        here before the backedge subtransaction prepared), then flush it
        downstream so the origin catches up in network hops."""
        self.network.send(MessageType.VOTE, site_id,
                          message.payload["origin"],
                          gid=message.payload["gid"],
                          ack=self.clocks[site_id].site_timestamp())
        self._flush_timestamp(site_id)

    # ------------------------------------------------------------------
    # Timestamp catch-up machinery
    # ------------------------------------------------------------------

    def _adopted(self, site_id: SiteId, message: Message) -> None:
        self._notify_base_watchers(site_id)
        if message.payload.get("relay"):
            self._flush_timestamp(site_id)

    def _flush_timestamp(self, site_id: SiteId) -> None:
        """Send relayed dummies to all DAG children immediately."""
        for child in sorted(self.graph.children(site_id)):
            self.network.send(
                MessageType.DUMMY, site_id, child,
                ts=self.clocks[site_id].site_timestamp(), relay=True)
            self._last_sent[(site_id, child)] = self.env.now

    def _notify_base_watchers(self, site_id: SiteId) -> None:
        watchers = self._base_watchers[site_id]
        if not watchers:
            return
        base = self.clocks[site_id].base
        still_waiting = []
        for threshold, event in watchers:
            if not event.triggered:
                if threshold <= base:
                    event.succeed(base)
                else:
                    still_waiting.append((threshold, event))
        self._base_watchers[site_id] = still_waiting

    def _wait_base_at_least(self, site_id: SiteId,
                            threshold: VectorTimestamp):
        """Block until the site's base timestamp reaches ``threshold``."""
        base = self.clocks[site_id].base
        while not threshold <= base:
            event = Event(self.env)
            self._base_watchers[site_id].append((threshold, event))
            yield event
            base = self.clocks[site_id].base
