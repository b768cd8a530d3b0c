"""Classic eager (read-one / write-all + 2PC) replication baseline.

Not one of the paper's protocols — the paper's Sec. 1 motivates lazy
propagation by the poor scaling of exactly this scheme ("deadlock
probability is proportional to the fourth power of the transaction
size").  We implement it for the ablation benchmarks.

Semantics: reads use any local copy; every write is applied synchronously
to the primary copy *and* all replicas (X locks held everywhere); commit
runs two-phase commit across the touched replica sites.
"""

from __future__ import annotations

import itertools
import typing

from repro.core.base import (
    ReplicatedSystem,
    ReplicationProtocol,
    Site,
    register_protocol,
)
from repro.errors import LockTimeout, PlacementError
from repro.network.message import Message, MessageType
from repro.sim.events import Event, Interrupt
from repro.storage.transaction import Transaction, TransactionStatus
from repro.types import (
    GlobalTransactionId,
    SiteId,
    SubtransactionKind,
    TransactionSpec,
)


@register_protocol
class EagerProtocol(ReplicationProtocol):
    """Eager write-all replication with two-phase commit."""

    name = "eager"
    requires_dag = False

    def __init__(self, system: ReplicatedSystem):
        super().__init__(system)
        n = system.placement.n_sites
        #: Replica side: gid -> proxy transaction applying remote writes.
        self._proxies: typing.List[typing.Dict[GlobalTransactionId,
                                               Transaction]] = [
            dict() for _ in range(n)]
        #: Origin side: request-id -> ack event.
        self._pending: typing.List[typing.Dict[int, Event]] = [
            dict() for _ in range(n)]
        #: Coordinator side: (gid, participant) -> vote event.
        self._vote_events: typing.Dict[typing.Tuple, Event] = {}
        #: Replica side: gids globally aborted while a proxy write was
        #: still waiting for a lock (resolved by the writer itself).
        self._aborted: typing.List[set] = [set() for _ in range(n)]
        self._request_ids = itertools.count(1)

    def setup(self) -> None:
        for site in self.system.local_sites:
            self.network.set_handler(site.site_id, self._make_handler(site))

    def _make_handler(self, site: Site):
        def handler(message: Message) -> None:
            if message.msg_type is MessageType.EAGER_WRITE:
                self.env.process(self._serve_write(site, message))
            elif message.msg_type is MessageType.EAGER_WRITE_DONE:
                event = self._pending[site.site_id].pop(
                    message.payload["request_id"], None)
                if event is not None:
                    event.succeed(bool(message.payload["ok"]))
            elif message.msg_type is MessageType.PREPARE:
                self.env.process(self._serve_prepare(site, message))
            elif message.msg_type is MessageType.VOTE:
                # Succeed but do NOT pop: the coordinator pops after
                # consuming the value (popping here would lose a vote
                # that lands while it awaits another participant).
                event = self._vote_events.get(
                    (message.payload["gid"], message.src))
                if event is not None and not event.triggered:
                    event.succeed(bool(message.payload["commit"]))
            elif message.msg_type is MessageType.DECISION:
                self.env.process(self._serve_decision(site, message))
            else:  # pragma: no cover - defensive
                self.network.dead_letters.append(message)
        return handler

    # ------------------------------------------------------------------
    # Primary transactions
    # ------------------------------------------------------------------

    def run_transaction(self, site_id: SiteId, spec: TransactionSpec,
                        process):
        site = self._site(site_id)
        yield from self._txn_setup(site)
        gid = spec.gid
        txn = site.engine.begin(gid, SubtransactionKind.PRIMARY,
                                process=process)
        self.system.register_primary(txn)
        participants: typing.Set[SiteId] = set()
        try:
            for index, op in enumerate(spec.operations):
                if op.is_read:
                    # Read-one: any local copy is current under eager
                    # write-all locking.
                    yield from site.engine.read(txn, op.item)
                else:
                    if self.placement.primary_site(op.item) != site_id:
                        raise PlacementError(
                            "eager: update of non-primary copy of {} at "
                            "s{}".format(op.item, site_id))
                    value = self._write_value(gid, index)
                    yield from site.engine.write(txn, op.item, value)
                    yield from self._write_replicas(
                        site, txn, op.item, value, participants)
                yield from site.work(self.config.cpu_per_op)
            # Two-phase commit across the replica sites we wrote.
            ok = yield from self._collect_votes(site_id, gid, participants)
            if not ok:
                raise LockTimeout(gid, "eager-participant")
            txn.shielded = True
            for participant in sorted(participants):
                self.network.send(MessageType.DECISION, site_id,
                                  participant, gid=gid, commit=True)
            yield from site.work(self.config.cpu_commit)
        except (LockTimeout, Interrupt) as exc:
            self._global_abort(site_id, gid, participants)
            self._abort_primary(site, txn, exc)
        site.engine.commit(txn)
        self.system.unregister_primary(txn)
        self.system.notify(
            "primary_commit", gid=gid, site=site_id, time=self.env.now,
            expected_replicas=self._expected_replicas(
                self._replicated_writes(txn)))

    def _write_replicas(self, site: Site, txn: Transaction, item, value,
                        participants: typing.Set[SiteId]):
        """Synchronously apply a write at every replica site."""
        replicas = sorted(self.placement.replica_sites(item))
        if not replicas:
            return
        events = []
        for replica in replicas:
            request_id = next(self._request_ids)
            event = Event(self.env)
            self._pending[site.site_id][request_id] = event
            self.network.send(MessageType.EAGER_WRITE, site.site_id,
                              replica, gid=txn.gid, item=item, value=value,
                              request_id=request_id)
            events.append(event)
            participants.add(replica)
        for event in events:
            ok = yield event
            yield from site.work(self.config.cpu_message)
            if not ok:
                raise LockTimeout(txn.gid, item)

    def _collect_votes(self, origin: SiteId, gid: GlobalTransactionId,
                       participants: typing.Set[SiteId]):
        for participant in sorted(participants):
            self._vote_events[(gid, participant)] = Event(self.env)
            self.network.send(MessageType.PREPARE, origin, participant,
                              gid=gid)
        all_ok = True
        for participant in sorted(participants):
            event = self._vote_events.get((gid, participant))
            if event is None:  # pragma: no cover - defensive
                all_ok = False
                continue
            vote = yield event
            self._vote_events.pop((gid, participant), None)
            all_ok = all_ok and vote
        return all_ok

    def _global_abort(self, origin: SiteId, gid: GlobalTransactionId,
                      participants: typing.Set[SiteId]) -> None:
        for participant in sorted(participants):
            self._vote_events.pop((gid, participant), None)
            self.network.send(MessageType.DECISION, origin, participant,
                              gid=gid, commit=False)

    # ------------------------------------------------------------------
    # Replica-side service
    # ------------------------------------------------------------------

    def _serve_write(self, site: Site, message: Message):
        yield from site.work(self.config.cpu_message)
        gid = message.payload["gid"]
        proxies = self._proxies[site.site_id]
        proxy = proxies.get(gid)
        if proxy is None or proxy.is_finished:
            proxy = site.engine.begin(gid, SubtransactionKind.SECONDARY)
            proxies[gid] = proxy
        ok = True
        try:
            yield from site.engine.write(proxy, message.payload["item"],
                                         message.payload["value"])
        except LockTimeout:
            ok = False
        if gid in self._aborted[site.site_id]:
            # A global abort landed while this write was waiting: the
            # decision handler left the proxy to us — clean it up here.
            self._aborted[site.site_id].discard(gid)
            self._proxies[site.site_id].pop(gid, None)
            site.engine.abort(proxy)
            ok = False
        elif ok:
            yield from site.work(self.config.cpu_apply_write)
        self.network.send(MessageType.EAGER_WRITE_DONE, site.site_id,
                          message.src,
                          request_id=message.payload["request_id"],
                          ok=ok)

    def _serve_prepare(self, site: Site, message: Message):
        yield from site.work(self.config.cpu_message)
        gid = message.payload["gid"]
        proxy = self._proxies[site.site_id].get(gid)
        ready = proxy is not None and \
            proxy.status is TransactionStatus.ACTIVE
        if ready:
            site.engine.prepare(proxy)
        self.network.send(MessageType.VOTE, site.site_id, message.src,
                          gid=gid, commit=ready)

    def _serve_decision(self, site: Site, message: Message):
        yield from site.work(self.config.cpu_message)
        gid = message.payload["gid"]
        commit = bool(message.payload["commit"])
        proxy = self._proxies[site.site_id].get(gid)
        if proxy is None or proxy.is_finished:
            self._proxies[site.site_id].pop(gid, None)
            return
        if commit:
            self._proxies[site.site_id].pop(gid, None)
            yield from site.work(self.config.cpu_commit)
            site.engine.commit(proxy)
            self.system.notify("replica_commit", gid=gid,
                               site=site.site_id, time=self.env.now)
        elif self._has_pending_wait(site, proxy):
            # A proxy write is still waiting on a lock: mark the gid and
            # let the writer clean up (aborting here would strand it).
            self._aborted[site.site_id].add(gid)
        else:
            self._proxies[site.site_id].pop(gid, None)
            site.engine.abort(proxy)

    @staticmethod
    def _has_pending_wait(site: Site, proxy: Transaction) -> bool:
        """Whether ``proxy`` has an outstanding queued lock request."""
        return any(request.txn is proxy
                   for request in site.engine.locks.waiting_requests())
