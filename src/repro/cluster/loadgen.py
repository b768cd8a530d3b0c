"""One live run — boot, workload drive, verdict — and the load generator.

Every in-process run of the live cluster (``repro loadgen --spawn``, the
chaos controller, ``examples/live_cluster.py``, the live tests) takes
the same three steps: :func:`start_cluster` boots every site on
``site<N>.wal`` logs in one directory and yields the servers plus a
ready client; :func:`drive` runs the matched workload while a light
:class:`~repro.obs.monitor.Watchdog` rides along; :func:`judge`
quiesces the cluster and checks the paper's contract over the placement
of the epoch its members agree on.

The workload is the paper's model: per site, ``threads_per_site``
workers submit the transactions of their
:meth:`~repro.workload.generator.TransactionGenerator.thread_stream`,
seeded exactly as the simulation harness seeds them, so a live run and
a sim run with the same :class:`ClusterSpec` execute a **matched
workload** — the basis of the live-vs-sim benchmark.

Two loop disciplines:

- ``"closed"`` (default, the paper's model): each worker waits for an
  outcome before its next submission, so concurrency is exactly
  ``n_sites * threads_per_site`` and throughput is latency-bound.
- ``"open"``: each worker submits its whole stream concurrently,
  bounded only by the client's ``max_in_flight`` admission semaphore.
  This is the discipline that exposes the *hot-path* capacity of the
  servers (and what the batching/group-commit layer amortizes);
  latencies include admission queueing, as open-loop latencies must.

Latencies are *wall-clock* seconds measured at the client; the report
carries committed-transaction throughput plus p50/p95/p99 from
:mod:`repro.harness.metrics`.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import os
import tempfile
import time
import typing

from repro.cluster.client import ClusterClient, ClusterError
from repro.cluster.codec import decode_value
from repro.cluster.server import SiteServer
from repro.cluster.spec import ClusterSpec
from repro.graph.placement import DataPlacement
from repro.harness.convergence import divergent_copies
from repro.harness.metrics import MetricsCollector, percentile
from repro.harness.serializability import (
    build_serialization_graph,
    find_dsg_cycle,
)
from repro.obs.monitor import Alert, MonitorConfig, Watchdog
from repro.obs.reconstruct import (
    attribution_summary,
    propagation_summary,
    reconstruct,
)
from repro.sim.rng import RngRegistry
from repro.storage.history import SiteHistory
from repro.types import SubtransactionKind
from repro.workload.generator import TransactionGenerator


@dataclasses.dataclass
class LoadReport:
    """Outcome of one load-generator run against a live cluster."""

    protocol: str
    seed: int
    n_sites: int
    threads_per_site: int
    transactions_per_thread: int
    duration: float
    committed: int
    aborted: int
    unknown: int
    throughput: float
    latency: typing.Dict[str, float]
    abort_rate: float
    convergent: bool
    divergent: int
    serializable: bool
    dsg_nodes: int
    messages_sent: int
    #: Loop discipline the workload was driven with.
    loop_mode: str = "closed"
    #: Frame cap / durability level the cluster ran at.
    batch: int = 64
    durability: str = "fsync"
    #: Wire frames actually written across all sites — with batching,
    #: ``messages_sent / frames_sent`` is the amortization ratio.
    frames_sent: int = 0
    #: WAL + journal write+flush sync points across all sites.
    wal_syncs: int = 0
    #: Live propagation-delay stats (seconds) from reconstructed trace
    #: trees: count / complete / p50 / p95 / max / mean.
    propagation: typing.Dict[str, typing.Any] = dataclasses.field(
        default_factory=dict)
    #: Per-hop latency attribution over the same trees
    #: (:func:`repro.obs.reconstruct.attribution_summary`): component
    #: totals/shares, coverage, top critical paths.
    attribution: typing.Dict[str, typing.Any] = dataclasses.field(
        default_factory=dict)
    #: Replica version-lag stats over the embedded watchdog's per-poll
    #: lag samples (``samples`` / ``observations`` / ``mean`` / ``p95``
    #: / ``max`` / ``fraction_current``).
    version_lag: typing.Dict[str, typing.Any] = dataclasses.field(
        default_factory=dict)
    #: The embedded watchdog's alert counts (``polls`` / ``critical`` /
    #: ``warning`` / ``by_rule``).
    alerts: typing.Dict[str, typing.Any] = dataclasses.field(
        default_factory=dict)

    def to_json(self) -> typing.Dict[str, typing.Any]:
        return dataclasses.asdict(self)

    def format(self) -> str:
        lines = [
            "live cluster: {} sites, protocol {}, seed {}".format(
                self.n_sites, self.protocol, self.seed),
            "workload: {} threads/site x {} txns/thread "
            "({}-loop, batch {}, durability {})".format(
                self.threads_per_site, self.transactions_per_thread,
                self.loop_mode, self.batch, self.durability),
            "duration: {:.2f} s".format(self.duration),
            "committed: {}  aborted: {}  unknown: {}".format(
                self.committed, self.aborted, self.unknown),
            "throughput: {:.1f} committed txns/s".format(self.throughput),
            "latency: p50 {:.1f} ms  p95 {:.1f} ms  p99 {:.1f} ms  "
            "(mean {:.1f} ms)".format(
                self.latency["p50"] * 1000, self.latency["p95"] * 1000,
                self.latency["p99"] * 1000, self.latency["mean"] * 1000),
            "abort rate: {:.2f} %".format(self.abort_rate),
            "wire: {} messages in {} frames ({:.1f} msgs/frame), "
            "{} wal+journal syncs".format(
                self.messages_sent, self.frames_sent,
                (self.messages_sent / self.frames_sent
                 if self.frames_sent else 0.0), self.wal_syncs),
            "convergent: {}  serializable: {} ({} DSG nodes)".format(
                "yes" if self.convergent else
                "NO ({} divergent)".format(self.divergent),
                "yes" if self.serializable else "NO", self.dsg_nodes),
        ]
        if self.propagation:
            prop = self.propagation
            lines.append(
                "propagation: {}/{} trees complete, delay p50 {:.1f} ms"
                "  p95 {:.1f} ms  max {:.1f} ms".format(
                    prop.get("complete", 0),
                    prop.get("propagating", prop.get("count", 0)),
                    prop.get("p50", 0.0) * 1000,
                    prop.get("p95", 0.0) * 1000,
                    prop.get("max", 0.0) * 1000))
        if self.attribution and self.attribution.get("hops"):
            attribution = self.attribution
            shares = "  ".join(
                "{} {:.0f}%".format(
                    name, component.get("share", 0.0) * 100)
                for name, component in sorted(
                    attribution.get("components", {}).items())
                if component.get("share", 0.0) > 0.0)
            lines.append(
                "attribution: {} hop(s), {:.0f}% attributed{}".format(
                    attribution.get("hops", 0),
                    attribution.get("coverage", 0.0) * 100,
                    " — " + shares if shares else ""))
        if self.version_lag:
            lag = self.version_lag
            lines.append(
                "replica lag: mean {:.2f}  p95 {}  max {} versions "
                "({:.0f}% current, {} samples)".format(
                    lag.get("mean", 0.0), lag.get("p95", 0),
                    lag.get("max", 0),
                    lag.get("fraction_current", 1.0) * 100,
                    lag.get("samples", 0)))
        if self.alerts:
            by_rule = self.alerts.get("by_rule") or {}
            lines.append(
                "monitor: {} critical, {} warning alert(s) over {} "
                "poll(s){}".format(
                    self.alerts.get("critical", 0),
                    self.alerts.get("warning", 0),
                    self.alerts.get("polls", 0),
                    " — " + ", ".join(
                        "{} x{}".format(rule, count)
                        for rule, count in sorted(by_rule.items()))
                    if by_rule else ""))
        return "\n".join(lines)


#: Quiescence: every site's outbound queue empty and no history grown
#: for ``SETTLE_POLLS`` consecutive ``status`` polls, ``POLL_INTERVAL``
#: seconds apart.
SETTLE_POLLS = 2
POLL_INTERVAL = 0.1

#: The watchdog that rides along a load run: one ``versions`` poll per
#: period, no trace fetches and no convergence sampling, so watching
#: does not perturb the throughput being measured.
LOAD_MONITOR = MonitorConfig(interval=0.1, convergence_every=0,
                             trace_limit=0)


async def start_site(spec: ClusterSpec, wal_dir: str, site: int,
                     faults: typing.Optional[typing.Any] = None
                     ) -> SiteServer:
    """Start ``site`` in-process on ``site<N>.wal`` in ``wal_dir``; a
    restart after a kill is the same call on the same directory."""
    server = SiteServer(
        spec, site, wal_path=os.path.join(wal_dir, "site{}.wal".format(site)),
        faults=faults)
    try:
        await server.start()
    except BaseException:
        server.kill()
        raise
    return server


@contextlib.asynccontextmanager
async def start_cluster(spec: ClusterSpec, wal_dir: str,
                        faults: typing.Optional[typing.Any] = None,
                        **client_options: typing.Any
                        ) -> typing.AsyncIterator[
                            typing.Tuple[typing.Dict[int, SiteServer],
                                         ClusterClient]]:
    """Boot every site of ``spec`` in-process and yield ``(servers,
    client)``: the servers by site, and a ready :class:`ClusterClient`
    built with ``client_options``.  On exit the client closes and every
    server in ``servers`` stops — including restarts the caller put
    there."""
    servers: typing.Dict[int, SiteServer] = {}
    client = ClusterClient(spec, **client_options)
    try:
        for site in range(spec.params.n_sites):
            servers[site] = await start_site(spec, wal_dir, site, faults)
        await client.wait_ready()
        yield servers, client
    finally:
        await client.close()
        for server in servers.values():
            try:
                await server.stop()
            except Exception:  # noqa: BLE001 - teardown of a dead site
                pass


@dataclasses.dataclass
class Drive:
    """What one workload drive saw at the client."""

    duration: float
    metrics: MetricsCollector
    unknown: int
    #: The riding watchdog's per-poll replica lags, concatenated.
    lags: typing.List[int]
    #: The riding watchdog's summary (empty without a watchdog).
    alerts: typing.Dict[str, typing.Any]


async def drive(spec: ClusterSpec, client: ClusterClient,
                loop_mode: str = "closed",
                monitor: typing.Optional[MonitorConfig] = LOAD_MONITOR,
                on_alert: typing.Optional[
                    typing.Callable[[Alert], None]] = None,
                alongside: typing.Sequence[typing.Awaitable] = ()
                ) -> Drive:
    """Drive the matched workload, over the placement the members agree
    on (:func:`judge` checks the same one), through ``client``.

    A :class:`~repro.obs.monitor.Watchdog` with config ``monitor``
    (``None``: none) and ``on_alert`` polls every ``monitor.interval``
    while the workers and the ``alongside`` awaitables run, and takes
    one more sample the moment the workers drain.
    """
    if loop_mode not in ("closed", "open"):
        raise ValueError("loop_mode must be 'closed' or 'open', got "
                         "{!r}".format(loop_mode))
    # Deferred: repro.reconfig imports this package.
    from repro.reconfig import ReconfigCoordinator

    # Streams are name-keyed, so at epoch 0 this is the exact generator
    # the simulation harness seeds for the same (params, seed).
    _, placement = await ReconfigCoordinator(client).current_placement()
    generator = TransactionGenerator(spec.params, placement,
                                     RngRegistry(spec.seed)
                                     .stream("workload"))
    metrics = MetricsCollector(spec.params.n_sites)
    unknown = 0
    duration = 0.0
    lags: typing.List[int] = []
    watchdog = (Watchdog(spec, client, config=monitor, on_alert=on_alert)
                if monitor is not None else None)
    polling = asyncio.Lock()
    finished = asyncio.Event()

    async def sample() -> None:
        async with polling:
            await watchdog.poll_once()
            lags.extend(watchdog.lags)

    async def watch() -> None:
        while not finished.is_set():
            try:
                await asyncio.wait_for(finished.wait(), monitor.interval)
            except asyncio.TimeoutError:
                await sample()

    async def submit_one(site: int, txn_spec) -> None:
        nonlocal unknown
        sent = time.monotonic()
        outcome = await client.run_transaction(txn_spec)
        elapsed = time.monotonic() - sent
        if outcome["status"] == "committed":
            metrics.transaction_committed(site, elapsed)
        elif outcome["status"] == "aborted":
            metrics.transaction_aborted(
                site, outcome.get("reason") or "aborted")
        else:
            unknown += 1

    async def worker(site: int, thread: int) -> None:
        if loop_mode == "open":
            # Open loop: the whole stream is offered at once; the
            # client's admission semaphore is the only bound, so the
            # servers see their capacity-limit concurrency.
            await asyncio.gather(*(
                submit_one(site, txn_spec)
                for txn_spec in generator.thread_stream(site, thread)))
        else:
            for txn_spec in generator.thread_stream(site, thread):
                await submit_one(site, txn_spec)

    async def workload() -> None:
        nonlocal duration
        await asyncio.gather(*(
            worker(site, thread)
            for site in range(spec.params.n_sites)
            for thread in range(spec.params.threads_per_site)))
        duration = time.monotonic() - started
        if watchdog is not None:
            # One sample as the workload drains, so even a run shorter
            # than the poll interval has one.  With nothing alongside
            # the watchdog stops here: a quiescent tail would only
            # dilute the loaded-phase lags.
            await sample()

    started = time.monotonic()
    watch_task = (asyncio.get_running_loop().create_task(watch())
                  if watchdog is not None else None)
    try:
        await asyncio.gather(workload(), *alongside)
    finally:
        finished.set()
    if watchdog is None:
        return Drive(duration, metrics, unknown, lags, {})
    await watch_task
    watchdog.close()
    return Drive(duration, metrics, unknown, lags, watchdog.summary())


@dataclasses.dataclass
class Verdict:
    """The paper's contract, checked on one quiesced cluster."""

    statuses: typing.Dict[int, typing.Dict]
    #: The agreed epoch and its placement, the one the checks read.
    epoch: int
    placement: DataPlacement
    #: ``divergent_copies`` over that placement.
    divergent: typing.List[typing.Tuple]
    #: A DSG cycle (``None``: serializable) and the DSG's size.
    cycle: typing.Optional[typing.List]
    dsg_nodes: int
    #: One line per broken check (empty: the contract holds).
    violations: typing.List[str]


async def judge(client: ClusterClient, timeout: float = 30.0) -> Verdict:
    """Quiesce the cluster, then check that every member reports one
    epoch, that every replica equals its primary under the placement of
    the highest epoch a member reports, and that the DSG over the
    reported histories is acyclic.

    Raises what :func:`wait_quiescent` raises, and
    :class:`~repro.reconfig.ReconfigError` when a member cannot report
    its placement.
    """
    # Deferred: repro.reconfig imports this package.
    from repro.reconfig import ReconfigCoordinator

    statuses = await wait_quiescent(client, timeout=timeout)
    violations = []
    epochs = {site: int(status.get("epoch", 0))
              for site, status in statuses.items()}
    if len(set(epochs.values())) > 1:
        violations.append("epoch-divergence: members ended in different "
                          "epochs {}".format(epochs))
    epoch, placement = await ReconfigCoordinator(client).current_placement()
    divergent = divergent_copies(placement, {
        site: decode_value(status["items"])
        for site, status in statuses.items()})
    if divergent:
        violations.append("convergence: {} divergent cop{} (e.g. {})".format(
            len(divergent), "y" if len(divergent) == 1 else "ies",
            divergent[0]))
    graph = build_serialization_graph(
        [history_from_status(status) for status in statuses.values()])
    cycle = find_dsg_cycle(graph)
    if cycle is not None:
        violations.append("serializability: DSG cycle {}".format(
            " -> ".join(str(gid) for gid in cycle)))
    return Verdict(statuses, epoch, placement, divergent, cycle, len(graph),
                   violations)


async def generate_load(spec: ClusterSpec, client: ClusterClient,
                        verify: bool = True,
                        quiesce_timeout: float = 30.0,
                        loop_mode: str = "closed") -> LoadReport:
    """:func:`drive` the matched workload through ``client``, then
    :func:`judge` the cluster (``verify``) or only wait for it to
    quiesce.

    The riding watchdog's per-poll lag samples become
    :attr:`LoadReport.version_lag` (lag measured while propagation
    queues are actually loaded) and its alert counts
    :attr:`LoadReport.alerts` — a healthy run reports zero criticals.
    """
    spec.validate()
    run = await drive(spec, client, loop_mode=loop_mode)
    lags = run.lags
    version_lag = {
        "samples": run.alerts["polls"],
        "observations": len(lags),
        "mean": sum(lags) / len(lags) if lags else 0.0,
        "p95": percentile(lags, 95.0),
        "max": max(lags, default=0),
        "fraction_current": (sum(1 for lag in lags if lag == 0)
                             / len(lags) if lags else 1.0),
    }

    convergent, divergent, serializable, dsg_nodes = True, 0, True, 0
    if verify:
        verdict = await judge(client, timeout=quiesce_timeout)
        statuses = verdict.statuses
        convergent, divergent = not verdict.divergent, len(verdict.divergent)
        serializable, dsg_nodes = verdict.cycle is None, verdict.dsg_nodes
    else:
        statuses = await wait_quiescent(client, timeout=quiesce_timeout)
    propagation: typing.Dict[str, typing.Any] = {}
    attribution: typing.Dict[str, typing.Any] = {}
    try:
        spans = await client.traces_all()
    except ClusterError:
        spans = []
    if spans:
        trees = reconstruct(spans)
        propagation = propagation_summary(trees)
        attribution = attribution_summary(trees)

    metrics = run.metrics
    return LoadReport(
        protocol=spec.protocol,
        seed=spec.seed,
        n_sites=spec.params.n_sites,
        threads_per_site=spec.params.threads_per_site,
        transactions_per_thread=spec.params.transactions_per_thread,
        duration=run.duration,
        committed=metrics.total_committed,
        aborted=metrics.total_aborted,
        unknown=run.unknown,
        throughput=(metrics.total_committed / run.duration
                    if run.duration > 0 else 0.0),
        latency=metrics.latency_summary(),
        abort_rate=metrics.abort_rate(),
        convergent=convergent,
        divergent=divergent,
        serializable=serializable,
        dsg_nodes=dsg_nodes,
        messages_sent=sum(status.get("messages_sent", 0)
                          for status in statuses.values()),
        loop_mode=loop_mode,
        batch=spec.batch,
        durability=spec.durability,
        frames_sent=sum(status.get("frames_sent", 0)
                        for status in statuses.values()),
        wal_syncs=sum(status["wal"]["syncs"] + status["journal"]["syncs"]
                      for status in statuses.values()),
        propagation=propagation,
        attribution=attribution,
        version_lag=version_lag,
        alerts={key: run.alerts[key]
                for key in ("polls", "critical", "warning", "by_rule")},
    )


async def wait_quiescent(client: ClusterClient, timeout: float = 30.0
                         ) -> typing.Dict[int, typing.Dict]:
    """Poll statuses until propagation stops moving.

    Quiescent = every site reports an empty outbound queue and no site's
    history grew, for :data:`SETTLE_POLLS` consecutive polls.  Returns
    the final statuses; raises :class:`TimeoutError` past ``timeout``.
    """
    deadline = time.monotonic() + timeout
    last_sizes: typing.Optional[typing.List[int]] = None
    stable = 0
    while True:
        statuses = await client.statuses()
        sizes = [len(status["history"])
                 for _site, status in sorted(statuses.items())]
        idle = all(status.get("pending_out", 0) == 0
                   for status in statuses.values())
        if idle and sizes == last_sizes:
            stable += 1
            if stable >= SETTLE_POLLS:
                return statuses
        else:
            stable = 0
        last_sizes = sizes
        if time.monotonic() > deadline:
            raise TimeoutError(
                "cluster did not quiesce within {:.0f} s".format(timeout))
        await asyncio.sleep(POLL_INTERVAL)


def history_from_status(status: typing.Mapping) -> SiteHistory:
    """Rebuild a :class:`SiteHistory` from a site's status response, so
    the simulation's serializability oracle runs on live-cluster data."""
    history = SiteHistory(status["site"])
    for entry in status["history"]:
        history.record(
            gid=decode_value(entry["gid"]),
            kind=SubtransactionKind(entry["kind"]),
            commit_time=float(entry["commit_time"]),
            reads=decode_value(entry["reads"]),
            writes=decode_value(entry["writes"]),
        )
    return history


def run_loadgen(spec: ClusterSpec, verify: bool = True,
                quiesce_timeout: float = 30.0,
                max_in_flight: int = 64,
                timeout: float = 30.0,
                loop_mode: str = "closed") -> LoadReport:
    """Synchronous entry point (the ``repro loadgen`` command)."""

    async def _run() -> LoadReport:
        client = ClusterClient(spec, timeout=timeout,
                               max_in_flight=max_in_flight)
        try:
            await client.wait_ready()
            return await generate_load(spec, client, verify=verify,
                                       quiesce_timeout=quiesce_timeout,
                                       loop_mode=loop_mode)
        finally:
            await client.close()

    return asyncio.run(_run())


def spawn_and_load(spec: ClusterSpec,
                   wal_dir: typing.Optional[str] = None,
                   verify: bool = True,
                   quiesce_timeout: float = 30.0,
                   max_in_flight: int = 64,
                   timeout: float = 30.0,
                   loop_mode: str = "closed") -> LoadReport:
    """``repro loadgen --spawn``: :func:`start_cluster`, then the load
    run.  ``wal_dir`` defaults to a fresh temporary directory, removed
    afterwards."""

    async def _run(wal_dir: str) -> LoadReport:
        async with start_cluster(spec, wal_dir, timeout=timeout,
                                 max_in_flight=max_in_flight) as (_, client):
            return await generate_load(spec, client, verify=verify,
                                       quiesce_timeout=quiesce_timeout,
                                       loop_mode=loop_mode)

    if wal_dir is not None:
        return asyncio.run(_run(wal_dir))
    with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as scratch:
        return asyncio.run(_run(scratch))
