"""Load generator for a live cluster (closed- or open-loop).

Reproduces the paper's workload model against real servers: per site,
``threads_per_site`` workers submit the transactions of their
:meth:`~repro.workload.generator.TransactionGenerator.thread_stream`.
The generator streams are seeded exactly as the simulation harness seeds
them, so a live run and a sim run with the same :class:`ClusterSpec`
execute a **matched workload** — the basis of the live-vs-sim benchmark.

Two loop disciplines:

- ``"closed"`` (default, the paper's model): each worker waits for an
  outcome before its next submission, so concurrency is exactly
  ``n_sites * threads_per_site`` and throughput is latency-bound.
- ``"open"``: each worker submits its whole stream concurrently,
  bounded only by the client's ``max_in_flight`` admission semaphore.
  This is the discipline that exposes the *hot-path* capacity of the
  servers (and what the batching/group-commit layer amortizes);
  latencies include admission queueing, as open-loop latencies must.

After the workload drains, the generator waits for the cluster to
quiesce (propagation queues empty, histories stable), then runs the same
oracles the simulation harness uses:

- replica convergence, via :func:`repro.harness.convergence
  .divergent_copies` over the item states the sites report;
- global serializability, via :func:`repro.harness.serializability
  .check_serializable` over site histories rebuilt from the reported
  commit logs.

Latencies are *wall-clock* seconds measured at the client; the report
carries committed-transaction throughput plus p50/p95/p99 from
:mod:`repro.harness.metrics`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
import typing

from repro.cluster.client import ClusterClient, ClusterError
from repro.cluster.codec import decode_value
from repro.cluster.spec import ClusterSpec
from repro.harness.convergence import divergent_copies
from repro.harness.metrics import MetricsCollector, percentile
from repro.harness.serializability import (
    build_serialization_graph,
    find_dsg_cycle,
)
from repro.obs.monitor import MonitorConfig, Watchdog
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


async def generate_load(spec: ClusterSpec, client: ClusterClient,
                        verify: bool = True,
                        quiesce_timeout: float = 30.0,
                        loop_mode: str = "closed") -> LoadReport:
    """Drive the matched workload through ``client`` and verify.

    An embedded :class:`~repro.obs.monitor.Watchdog` rides along: its
    per-poll lag samples become :attr:`LoadReport.version_lag` (lag
    measured while propagation queues are actually loaded) and its
    alert counts :attr:`LoadReport.alerts` — a healthy run reports zero
    criticals.  The embedded config is deliberately light (one
    ``versions`` poll per period: no trace fetches, no convergence
    sampling) so watching does not perturb the throughput being
    measured.
    """
    spec.validate()
    if loop_mode not in ("closed", "open"):
        raise ValueError("loop_mode must be 'closed' or 'open', got "
                         "{!r}".format(loop_mode))
    placement = spec.build_placement()
    # Streams are name-keyed, so this is the exact generator seeding the
    # simulation harness uses for the same (params, seed).
    generator = TransactionGenerator(spec.params, placement,
                                     RngRegistry(spec.seed)
                                     .stream("workload"))
    metrics = MetricsCollector(spec.params.n_sites)
    unknown = [0]
    watchdog = Watchdog(spec, client, config=MonitorConfig(
        interval=0.1, convergence_every=0, trace_limit=0))
    lags: typing.List[int] = []

    async def watch() -> None:
        while True:
            await asyncio.sleep(watchdog.config.interval)
            await watchdog.poll_once()
            lags.extend(watchdog.lags)

    started = time.monotonic()
    watch_task = asyncio.get_running_loop().create_task(watch())

    async def submit_one(site: int, txn_spec) -> None:
        sent = time.monotonic()
        outcome = await client.run_transaction(txn_spec)
        elapsed = time.monotonic() - sent
        if outcome["status"] == "committed":
            metrics.transaction_committed(site, elapsed)
        elif outcome["status"] == "aborted":
            metrics.transaction_aborted(
                site, outcome.get("reason") or "aborted")
        else:
            unknown[0] += 1

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

    try:
        await asyncio.gather(*(
            worker(site, thread)
            for site in range(spec.params.n_sites)
            for thread in range(spec.params.threads_per_site)))
    finally:
        watch_task.cancel()
    duration = time.monotonic() - started
    try:
        await watch_task
    except asyncio.CancelledError:
        pass
    # One last sample after the workload drains, then stop — the
    # quiescent tail would only dilute the loaded-phase lags.
    await watchdog.poll_once()
    lags.extend(watchdog.lags)
    watchdog.close()
    summary = watchdog.summary()
    alerts = {key: summary[key]
              for key in ("polls", "critical", "warning", "by_rule")}
    version_lag = {
        "samples": summary["polls"],
        "observations": len(lags),
        "mean": sum(lags) / len(lags) if lags else 0.0,
        "p95": percentile(lags, 95.0),
        "max": max(lags, default=0),
        "fraction_current": (sum(1 for lag in lags if lag == 0)
                             / len(lags) if lags else 1.0),
    }

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
    convergent, divergent, serializable, dsg_nodes = True, 0, True, 0
    if verify:
        state = {site: decode_value(status["items"])
                 for site, status in statuses.items()}
        problems = divergent_copies(placement, state)
        convergent, divergent = not problems, len(problems)
        histories = [history_from_status(status)
                     for status in statuses.values()]
        graph = build_serialization_graph(histories)
        dsg_nodes = len(graph)
        serializable = find_dsg_cycle(graph) is None

    return LoadReport(
        protocol=spec.protocol,
        seed=spec.seed,
        n_sites=spec.params.n_sites,
        threads_per_site=spec.params.threads_per_site,
        transactions_per_thread=spec.params.transactions_per_thread,
        duration=duration,
        committed=metrics.total_committed,
        aborted=metrics.total_aborted,
        unknown=unknown[0],
        throughput=(metrics.total_committed / duration
                    if duration > 0 else 0.0),
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
        alerts=alerts,
    )


async def wait_quiescent(client: ClusterClient, timeout: float = 30.0,
                         settle_polls: int = 2, poll_interval: float = 0.1
                         ) -> typing.Dict[int, typing.Dict]:
    """Poll statuses until propagation stops moving.

    Quiescent = every site reports an empty outbound queue and no site's
    history grew, for ``settle_polls`` consecutive polls.  Returns the
    final statuses; raises :class:`TimeoutError` past ``timeout``.
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
            if stable >= settle_polls:
                return statuses
        else:
            stable = 0
        last_sizes = sizes
        if time.monotonic() > deadline:
            raise TimeoutError(
                "cluster did not quiesce within {:.0f} s".format(timeout))
        await asyncio.sleep(poll_interval)


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
    """``repro loadgen --spawn``: start every site in-process, drive the
    workload, tear the cluster down.  Each site logs to ``site<N>.wal``
    in ``wal_dir`` (default: a fresh temporary directory, removed
    afterwards)."""
    import os
    import tempfile

    from repro.cluster.server import SiteServer

    async def _run(wal_dir: str) -> LoadReport:
        servers = []
        client = None
        try:
            for site in range(spec.params.n_sites):
                server = SiteServer(
                    spec, site,
                    wal_path=os.path.join(wal_dir,
                                          "site{}.wal".format(site)))
                await server.start()
                servers.append(server)
            client = ClusterClient(spec, timeout=timeout,
                                   max_in_flight=max_in_flight)
            await client.wait_ready()
            return await generate_load(spec, client, verify=verify,
                                       quiesce_timeout=quiesce_timeout,
                                       loop_mode=loop_mode)
        finally:
            if client is not None:
                await client.close()
            for server in servers:
                await server.stop()

    if wal_dir is not None:
        return asyncio.run(_run(wal_dir))
    with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as scratch:
        return asyncio.run(_run(scratch))
