"""Client API for a live cluster.

A :class:`ClusterClient` talks to the :class:`~repro.cluster.server
.SiteServer` s of one cluster: it opens (lazily, and re-opens on
failure) one connection per site, correlates requests and responses by
request id, enforces a per-request timeout with bounded retries, and
bounds the number of in-flight transactions with a semaphore so a
load generator cannot overrun the cluster (closed-loop backpressure).

Only idempotence-safe requests are retried transparently (``ping``,
``status``).  A transaction request that times out or loses its
connection has unknown outcome — it is reported as ``"unknown"`` rather
than resubmitted, mirroring what a real client library must do.  One
whose connect is refused was never sent, and is ``"aborted"``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import typing

from repro.cluster.codec import FrameReader, FrameWriter, write_frame
from repro.cluster.server import encode_spec
from repro.cluster.spec import ClusterSpec
from repro.types import SiteId, TransactionSpec


class ClusterError(Exception):
    """A request could not be completed (after retries)."""


class WrongEpochError(ClusterError):
    """The server rejected our fingerprint but hinted its epoch.

    The cluster has reconfigured past the epoch this client's spec
    carries; :class:`ClusterClient` adopts the hinted epoch, recomputes
    the fingerprint and retries transparently."""

    def __init__(self, message: str, epoch: int):
        super().__init__(message)
        self.epoch = epoch


class _Refused(ConnectionError):
    """A closed connection refused a request before sending any of it."""


class _Connection:
    """One client connection to one site, with rid-correlated replies
    (requests share one coalescing writer, so they need no lock)."""

    def __init__(self, host: str, port: int, fingerprint: str):
        self.host = host
        self.port = port
        self.fingerprint = fingerprint
        self.pending: typing.Dict[int, asyncio.Future] = {}
        self._out: typing.Optional[FrameWriter] = None
        self._reader_task: typing.Optional[asyncio.Task] = None
        self._closed = False

    async def ensure_open(self) -> None:
        # A closed connection stays closed: reopening it here would
        # start a read loop that nobody holds and nobody closes.  The
        # client retries on the fresh connection it registers instead.
        if self._closed:
            raise _Refused("connection closed")
        stale = self._out
        if stale is not None:
            # A finished read loop means the server went away even if
            # our writing side still looks open (half-closed TCP): a
            # crashed peer FINs us, and writing into that socket would
            # wait forever for a response that cannot come.
            defunct = stale.writer.is_closing() or (
                self._reader_task is not None
                and self._reader_task.done())
            if not defunct:
                return
            stale.writer.close()
        reader, writer = await asyncio.open_connection(self.host, self.port)
        await write_frame(writer, {
            "kind": "hello", "role": "client",
            "fingerprint": self.fingerprint})
        if self._closed or self._out is not stale:
            # Closed while connecting, or a concurrent caller reopened
            # first: this socket would have a read loop nobody closes.
            writer.close()
            if self._closed:
                raise _Refused("connection closed")
            return
        self._out = FrameWriter(writer)
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop(FrameReader(reader)))

    async def _read_loop(self, frames: FrameReader) -> None:
        try:
            while True:
                batch = await frames.frames()
                if batch is None:
                    break
                for frame in batch:
                    if frame.get("kind") == "error":
                        if frame.get("epoch") is not None:
                            raise WrongEpochError(
                                frame.get("error", "wrong epoch"),
                                epoch=int(frame["epoch"]))
                        raise ClusterError(
                            frame.get("error", "server error"))
                    if frame.get("kind") != "resp":
                        continue
                    future = self.pending.pop(frame.get("rid"), None)
                    if future is not None and not future.done():
                        future.set_result(frame)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        except ClusterError as exc:
            self._fail_pending(exc)
            return
        self._fail_pending(ClusterError("connection closed"))

    def _fail_pending(self, exc: Exception) -> None:
        pending, self.pending = self.pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    async def request(self, frame: typing.Dict[str, typing.Any],
                      rid: int) -> typing.Dict[str, typing.Any]:
        await self.ensure_open()
        frame = dict(frame, kind="req", rid=rid)
        future = asyncio.get_running_loop().create_future()
        self.pending[rid] = future
        try:
            self._out.write(frame)
            self._out.flush_soon()      # one write for this tick's requests
            await self._out.drain()
            return await future
        finally:
            self.pending.pop(rid, None)
            # A connection loss and a timeout in one tick fail the
            # future *and* cancel this await: mark the error retrieved.
            if future.done() and not future.cancelled():
                future.exception()

    async def close(self) -> None:
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
        if self._out is not None:
            await self._out.close()
            self._out = None


class ClusterClient:
    """Talks to every site of one live cluster.

    Parameters
    ----------
    spec:
        The shared cluster spec (addresses + fingerprint).
    timeout:
        Per-request timeout in seconds.
    retries:
        Transparent retries for idempotent requests (connect failures
        included).
    max_in_flight:
        Upper bound on concurrently outstanding transactions.
    """

    def __init__(self, spec: ClusterSpec, timeout: float = 5.0,
                 retries: int = 3, max_in_flight: int = 64):
        self.spec = spec
        self.timeout = timeout
        self.retries = retries
        self._rids = itertools.count(1)
        self._connections: typing.Dict[SiteId, _Connection] = {}
        self._txn_slots = asyncio.Semaphore(max_in_flight)

    def _connection(self, site: SiteId) -> _Connection:
        conn = self._connections.get(site)
        if conn is None:
            host, port = self.spec.address(site)
            conn = _Connection(host, port, self.spec.fingerprint())
            self._connections[site] = conn
        return conn

    async def _drop(self, site: SiteId, conn: _Connection) -> None:
        """Close a failed ``conn``.  It leaves the registry first, and
        only if it is still the site's connection: a concurrent request
        may already have replaced it with a live one."""
        if self._connections.get(site) is conn:
            del self._connections[site]
        await conn.close()

    async def _request(self, site: SiteId,
                       frame: typing.Dict[str, typing.Any],
                       idempotent: bool,
                       timeout: typing.Optional[float] = None
                       ) -> typing.Dict[str, typing.Any]:
        timeout = self.timeout if timeout is None else timeout
        attempts = 1 + (self.retries if idempotent else 0)
        last_error: typing.Optional[Exception] = None
        epoch_adoptions = 0
        attempt = 0
        while attempt < attempts:
            conn = self._connection(site)
            try:
                response = await asyncio.wait_for(
                    conn.request(frame, next(self._rids)), timeout)
            except _Refused:
                # Nothing was sent, so even a non-idempotent request
                # retries, on the connection that replaced this one.
                continue
            except WrongEpochError as exc:
                # The server moved to a newer epoch and rejected our
                # hello — nothing was executed, so retrying is safe even
                # for non-idempotent requests.  Adopt the hinted epoch
                # (the fingerprint depends on it) and reconnect.
                await self._drop(site, conn)
                if exc.epoch > self.spec.epoch and epoch_adoptions < 3:
                    epoch_adoptions += 1
                    await self.adopt_epoch(exc.epoch)
                    continue  # does not consume a retry attempt
                last_error = exc
                attempt += 1
                continue
            except (ConnectionError, OSError, ClusterError,
                    asyncio.TimeoutError) as exc:
                last_error = exc
                await self._drop(site, conn)
                attempt += 1
                if attempt < attempts:
                    await asyncio.sleep(0.05 * attempt)
                continue
            if not response.get("ok", False):
                raise ClusterError(response.get("error", "request failed"))
            return response
        raise ClusterError("site s{}: {!r}".format(site, last_error)) \
            from last_error

    async def adopt_epoch(self, epoch: int) -> None:
        """Move this client's spec to ``epoch`` and drop every cached
        connection (their hello fingerprints are now stale)."""
        if epoch <= self.spec.epoch:
            return
        self.spec = dataclasses.replace(self.spec, epoch=epoch)
        connections = list(self._connections.values())
        self._connections.clear()
        for conn in connections:
            await conn.close()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    async def run_transaction(self, spec: TransactionSpec,
                              timeout: typing.Optional[float] = None
                              ) -> typing.Dict[str, typing.Any]:
        """Submit one transaction to its origin site.

        Returns ``{"status": "committed"|"aborted"|"unknown", "reason",
        "elapsed"}``.  Unknown outcomes (timeout / connection loss while
        in flight) are *not* retried — resubmitting could double-execute.
        A refused connect is ``"aborted"``, reason ``"not submitted: ..."``.
        """
        async with self._txn_slots:
            try:
                response = await self._request(
                    spec.origin, {"op": "txn", "spec": encode_spec(spec)},
                    idempotent=False, timeout=timeout)
            except ClusterError as exc:
                if isinstance(exc.__cause__, ConnectionRefusedError):
                    # Refused at connect: nothing was sent, nothing ran.
                    return {"status": "aborted", "elapsed": None,
                            "reason": "not submitted: {}".format(exc)}
                return {"status": "unknown", "reason": str(exc),
                        "elapsed": None}
        return {"status": response["status"],
                "reason": response.get("reason"),
                "elapsed": response.get("elapsed")}

    async def ping(self, site: SiteId) -> typing.Dict[str, typing.Any]:
        return await self._request(site, {"op": "ping"}, idempotent=True)

    async def status(self, site: SiteId) -> typing.Dict[str, typing.Any]:
        return await self._request(site, {"op": "status"},
                                   idempotent=True)

    async def statuses(self) -> typing.Dict[SiteId, typing.Dict]:
        """Status of every site (concurrently)."""
        sites = sorted(self.spec.addresses())
        results = await asyncio.gather(
            *(self.status(site) for site in sites))
        return dict(zip(sites, results))

    async def versions(self, site: SiteId
                       ) -> typing.Dict[str, typing.Any]:
        """One site's committed item versions (cheap; no history)."""
        return await self._request(site, {"op": "versions"},
                                   idempotent=True)

    async def versions_all(self) -> typing.Dict[SiteId, typing.Dict]:
        sites = sorted(self.spec.addresses())
        results = await asyncio.gather(
            *(self.versions(site) for site in sites))
        return dict(zip(sites, results))

    async def stats(self, site: SiteId) -> typing.Dict[str, typing.Any]:
        """One site's metrics-registry snapshot (``repro.obs``)."""
        return await self._request(site, {"op": "stats"},
                                   idempotent=True)

    async def stats_all(self) -> typing.Dict[SiteId, typing.Dict]:
        sites = sorted(self.spec.addresses())
        results = await asyncio.gather(
            *(self.stats(site) for site in sites))
        return dict(zip(sites, results))

    # ------------------------------------------------------------------
    # Reconfiguration plane
    # ------------------------------------------------------------------

    async def placement(self, site: SiteId
                        ) -> typing.Dict[str, typing.Any]:
        """One site's current epoch + placement (``repro.reconfig``)."""
        return await self._request(site, {"op": "placement"},
                                   idempotent=True)

    async def reconfig_prepare(self, site: SiteId, epoch: int,
                               change: typing.Dict[str, typing.Any]
                               ) -> typing.Dict[str, typing.Any]:
        """Phase 1: journal the proposed epoch and fence writes on the
        affected items."""
        return await self._request(
            site, {"op": "reconfig_prepare", "epoch": epoch,
                   "change": change}, idempotent=True)

    async def reconfig_commit(self, site: SiteId, epoch: int,
                              change: typing.Dict[str, typing.Any]
                              ) -> typing.Dict[str, typing.Any]:
        """Phase 2: install the copies the site gains (from the change's
        ``install``), journal the epoch commit and atomically swap the
        site's placement and propagation tree.  Idempotent — a site
        already at (or past) ``epoch`` acknowledges without re-applying;
        carrying the change lets a site commit without a prepare."""
        return await self._request(
            site, {"op": "reconfig_commit", "epoch": epoch,
                   "change": change}, idempotent=True)

    async def reconfig_abort(self, site: SiteId, epoch: int
                             ) -> typing.Dict[str, typing.Any]:
        """Drop a pending (prepared, uncommitted) epoch and its fence."""
        return await self._request(
            site, {"op": "reconfig_abort", "epoch": epoch},
            idempotent=True)

    async def reconfig_status(self, site: SiteId
                              ) -> typing.Dict[str, typing.Any]:
        """Epoch, pending-epoch and fence state of one site."""
        return await self._request(site, {"op": "reconfig_status"},
                                   idempotent=True)

    async def reconfig_state(self, site: SiteId, item: int
                             ) -> typing.Dict[str, typing.Any]:
        """The value, version and writer lineage of ``item`` at its
        primary ``site`` — or, unless it is fenced and quiet there, a
        ``refused`` reason."""
        return await self._request(
            site, {"op": "reconfig_state", "item": item}, idempotent=True)

    async def try_each(self, op: str, **fields
                       ) -> typing.Tuple[typing.Dict[SiteId,
                                                     typing.Dict],
                                         typing.List[SiteId]]:
        """Fan one idempotent request out to every site, tolerating
        per-site failure: returns ``(responses, unreachable_sites)``.

        The monitoring plane's fetch primitive — a watchdog or
        dashboard polling a degraded cluster must keep observing the
        members that still answer (a dead site is the *finding*, not
        an error)."""
        sites = sorted(self.spec.addresses())
        frame = dict(fields, op=op)
        results = await asyncio.gather(
            *(self._request(site, dict(frame), idempotent=True)
              for site in sites),
            return_exceptions=True)
        responses: typing.Dict[SiteId, typing.Dict] = {}
        unreachable: typing.List[SiteId] = []
        for site, result in zip(sites, results):
            if isinstance(result, (ClusterError, OSError,
                                   asyncio.TimeoutError)):
                unreachable.append(site)
            elif isinstance(result, BaseException):
                raise result
            else:
                responses[site] = result
        return responses, unreachable

    async def trace(self, site: SiteId,
                    trace: typing.Optional[str] = None,
                    limit: typing.Optional[int] = None
                    ) -> typing.Dict[str, typing.Any]:
        """One site's span tail, optionally filtered to one trace id."""
        frame: typing.Dict[str, typing.Any] = {"op": "trace"}
        if trace is not None:
            frame["trace"] = trace
        if limit is not None:
            frame["limit"] = limit
        return await self._request(site, frame, idempotent=True)

    async def traces_all(self, trace: typing.Optional[str] = None,
                         limit: typing.Optional[int] = None
                         ) -> typing.List[typing.Dict[str, typing.Any]]:
        """All sites' spans pooled — ready for
        :func:`repro.obs.reconstruct.reconstruct`."""
        sites = sorted(self.spec.addresses())
        results = await asyncio.gather(
            *(self.trace(site, trace=trace, limit=limit)
              for site in sites))
        spans: typing.List[typing.Dict[str, typing.Any]] = []
        for result in results:
            spans.extend(result.get("spans", ()))
        return spans

    async def dump(self, site: SiteId,
                   trigger: typing.Optional[str] = None,
                   out_dir: typing.Optional[str] = None
                   ) -> typing.Dict[str, typing.Any]:
        """Ask one site to dump its flight recorder into an incident
        bundle; returns the server-side bundle path.  Retry-safe (a
        repeat just writes another bundle), so the request is
        idempotent.  All-site dumps go through ``try_each("dump", ...)``
        — a dead member is the finding, not an error."""
        frame: typing.Dict[str, typing.Any] = {"op": "dump"}
        if trigger is not None:
            frame["trigger"] = trigger
        if out_dir is not None:
            frame["dir"] = out_dir
        return await self._request(site, frame, idempotent=True)

    async def crash(self, site: SiteId) -> None:
        """Ask a site to crash in place (volatile state lost, WAL kept)."""
        await self._request(site, {"op": "crash"}, idempotent=False)
        conn = self._connections.pop(site, None)
        if conn is not None:
            await conn.close()

    async def shutdown(self, site: SiteId) -> None:
        await self._request(site, {"op": "shutdown"}, idempotent=False)
        conn = self._connections.pop(site, None)
        if conn is not None:
            await conn.close()

    async def wait_ready(self, timeout: float = 10.0) -> None:
        """Block until every site answers a ping."""
        deadline = asyncio.get_running_loop().time() + timeout
        for site in sorted(self.spec.addresses()):
            while True:
                try:
                    await self._request(site, {"op": "ping"},
                                        idempotent=True, timeout=1.0)
                    break
                except ClusterError:
                    if asyncio.get_running_loop().time() > deadline:
                        raise
                    await asyncio.sleep(0.05)

    async def close(self) -> None:
        connections = list(self._connections.values())
        self._connections.clear()
        for conn in connections:
            await conn.close()
