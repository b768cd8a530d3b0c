"""Lazy primary-site locking (PSL) — the paper's baseline (Sec. 5.1).

Reads and updates of items whose primary copies are local are handled
locally.  A read of a *replica* obtains a shared lock at the item's
primary site; the current value ships back with the lock grant.  Updates
touch only the local primary copy and are never pushed to replicas —
propagation is implicit, on access.  All locks (local and remote) are
released once the transaction commits, so no multi-site commit protocol
is needed; deadlocks (local and global) resolve via the lock timeout,
which aborts the requester.
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
from repro.storage.transaction import Transaction
from repro.types import (
    GlobalTransactionId,
    ItemId,
    SiteId,
    SubtransactionKind,
    TransactionSpec,
)

#: Sentinel payload marker for a denied remote lock.
_DENIED = object()


@register_protocol
class PrimarySiteLockingProtocol(ReplicationProtocol):
    """The lazy-master / primary-site-locking baseline."""

    name = "psl"
    requires_dag = False

    def __init__(self, system: ReplicatedSystem):
        super().__init__(system)
        n = system.placement.n_sites
        #: Primary-site side: gid -> proxy transaction holding locks on
        #: behalf of a remote transaction.
        self._proxies: typing.List[typing.Dict[GlobalTransactionId,
                                               Transaction]] = [
            dict() for _ in range(n)]
        #: Origin side: request-id -> reply event.
        self._pending: typing.List[typing.Dict[int, Event]] = [
            dict() for _ in range(n)]
        self._request_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def setup(self) -> None:
        for site in self.system.local_sites:
            # Default timeout behaviour (no policy installed): the waiting
            # request aborts — the paper's timeout mechanism.
            self.network.set_handler(site.site_id, self._make_handler(site))

    def _make_handler(self, site: Site):
        def handler(message: Message) -> None:
            if message.msg_type is MessageType.LOCK_REQUEST:
                self.env.process(self._serve_lock_request(site, message))
            elif message.msg_type in (MessageType.LOCK_GRANT,
                                      MessageType.LOCK_DENIED):
                event = self._pending[site.site_id].pop(
                    message.payload["request_id"], None)
                if event is not None:
                    event.succeed(message)
            elif message.msg_type is MessageType.LOCK_RELEASE:
                self.env.process(self._serve_release(site, message))
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
        #: Primary sites where a proxy holds locks for this transaction.
        remote_sites: typing.Set[SiteId] = set()
        try:
            for index, op in enumerate(spec.operations):
                if op.is_read:
                    yield from self._read(site, txn, op.item, remote_sites)
                else:
                    if self.placement.primary_site(op.item) != site_id:
                        raise PlacementError(
                            "PSL: update of non-primary copy of {} at s{}"
                            .format(op.item, site_id))
                    yield from site.engine.write(
                        txn, op.item, self._write_value(gid, index))
                yield from site.work(self.config.cpu_per_op)
            yield from site.work(self.config.cpu_commit)
        except (LockTimeout, Interrupt) as exc:
            self._release_remote(site_id, gid, remote_sites, commit=False)
            self._abort_primary(site, txn, exc)
        site.engine.commit(txn)
        self.system.unregister_primary(txn)
        self.system.notify("primary_commit", gid=gid, site=site_id,
                           time=self.env.now, expected_replicas=set())
        # All locks release at commit, remote ones via (async) messages.
        self._release_remote(site_id, gid, remote_sites, commit=True)

    def _read(self, site: Site, txn: Transaction, item: ItemId,
              remote_sites: typing.Set[SiteId]):
        primary = self.placement.primary_site(item)
        if primary == site.site_id:
            yield from site.engine.read(txn, item)
            return
        # Remote read: shared lock at the primary site; value ships back.
        request_id = next(self._request_ids)
        reply_event = Event(self.env)
        self._pending[site.site_id][request_id] = reply_event
        self.network.send(MessageType.LOCK_REQUEST, site.site_id, primary,
                          gid=txn.gid, item=item, request_id=request_id)
        reply = yield reply_event
        yield from site.work(self.config.cpu_message)
        if reply.msg_type is MessageType.LOCK_DENIED:
            raise LockTimeout(txn.gid, item)
        remote_sites.add(primary)
        return reply.payload["value"]

    def _release_remote(self, site_id: SiteId, gid: GlobalTransactionId,
                        remote_sites: typing.Iterable[SiteId],
                        commit: bool) -> None:
        for remote in sorted(set(remote_sites)):
            self.network.send(MessageType.LOCK_RELEASE, site_id, remote,
                              gid=gid, commit=commit)

    # ------------------------------------------------------------------
    # Primary-site service
    # ------------------------------------------------------------------

    def _serve_lock_request(self, site: Site, message: Message):
        yield from site.work(self.config.cpu_message)
        gid = message.payload["gid"]
        item = message.payload["item"]
        request_id = message.payload["request_id"]
        proxies = self._proxies[site.site_id]
        proxy = proxies.get(gid)
        if proxy is None:
            proxy = site.engine.begin(gid, SubtransactionKind.PRIMARY)
            proxies[gid] = proxy
        try:
            value = yield from site.engine.read(proxy, item)
        except LockTimeout:
            if not site.engine.locks.items_held(proxy):
                # Nothing granted to this proxy yet; no release message
                # will ever come for it, so clean it up now.
                self._proxies[site.site_id].pop(gid, None)
                site.engine.abort(proxy)
            self.network.send(MessageType.LOCK_DENIED, site.site_id,
                              message.src, request_id=request_id,
                              item=item)
            return
        yield from site.work(self.config.cpu_remote_read)
        self.network.send(
            MessageType.LOCK_GRANT, site.site_id, message.src,
            request_id=request_id, item=item, value=value,
            version=site.engine.item(item).committed_version)

    def _serve_release(self, site: Site, message: Message):
        yield from site.work(self.config.cpu_message)
        gid = message.payload["gid"]
        proxy = self._proxies[site.site_id].pop(gid, None)
        if proxy is None:
            return
        if message.payload["commit"] and not proxy.is_finished:
            # Committing the (read-only) proxy records the reads in this
            # site's history — the serialization point of the remote reads.
            site.engine.commit(proxy)
        else:
            site.engine.abort(proxy)
