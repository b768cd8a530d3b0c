"""The four ledger workloads: drive, measure, verify.

Three live workloads run against a process-per-site cluster (see
``cluster.py``) from this process's single-threaded asyncio driver over
one multiplexed connection per site; ``sim_paper`` runs the simulator
in-process.  Every run ends in the paper's oracles — no divergent copy,
acyclic DSG — and a run that breaches one is reported ``correct: false``.

A run returns a :class:`RunResult`: the end-to-end metrics, the
per-layer counters it can see from outside (final public ``status``,
client clocks, the drain) and, for a traced run, the merged span
aggregates of ``traced_site.py``.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import itertools
import json
import math
import os
import random
import resource
import statistics
import time
import typing

from repro.cluster.client import ClusterClient
from repro.cluster.codec import decode_value
from repro.harness.convergence import divergent_copies
from repro.harness.runner import (
    ExperimentConfig,
    build_system,
    run_experiment,
)
from repro.harness.serializability import (
    build_serialization_graph,
    find_dsg_cycle,
)
from repro.sim.rng import RngRegistry
from repro.workload.generator import TransactionGenerator
from repro.workload.params import WorkloadParams

from cluster import N_SITES, SETTLE_S, Cluster
from host import Yardstick, at_nominal_speed

_clock = time.perf_counter


@dataclasses.dataclass(frozen=True)
class Workload:
    """One traffic mix.  The one-line *why* of each is in
    ``BENCHMARK.json`` and the README."""

    name: str
    #: ``"open"`` (fixed rate, independent users), ``"closed"`` (each
    #: client waits for its reply) or ``"sim"`` (no cluster).
    loop: str
    read_txn_probability: float = 0.0
    #: Open loop: offered transactions per second.
    rate: float = 0.0
    #: Closed loop: logical clients, spread evenly over the sites.
    clients: int = 0


WORKLOADS: typing.Dict[str, Workload] = {w.name: w for w in (
    # A sixth of the converged capacity (~630 txn/s), on purpose: the
    # reference box's cores run 1.6x slower for seconds at a time, and
    # at half the capacity (even a third) those spells push the cluster
    # to the knee of its latency curve and the run measures the host.
    # At this rate nothing queues: latency is the chain of waits itself.
    Workload("steady_write", "open", read_txn_probability=0.1,
             rate=100.0),
    Workload("saturate_write", "closed", read_txn_probability=0.1,
             clients=12),
    Workload("saturate_read", "closed", read_txn_probability=0.9,
             clients=12),
    Workload("sim_paper", "sim"),
)}

#: Load before the measured window; excluded from every windowed metric.
WARMUP_S = 3.0
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: A transaction with no outcome after this long counts as failed.
TXN_TIMEOUT_S = 30.0
#: Replica versions are polled this often while the backlog drains.
DRAIN_POLL_S = 0.020
DRAIN_TIMEOUT_S = 120.0
#: A driver busier than this is measuring itself, not the cluster.
MAX_DRIVER_CPU = 0.8

#: ``sim_paper``: the paper's Table 1 defaults under BackEdge.  The pool
#: of experiment seeds is fixed because ``ExperimentConfig`` has one seed
#: for placement and workload, and the placement alone moves simulator
#: wall throughput by +-12 % — more than twice the bound on
#: ``commit_txn_s``.  ``--seed`` orders the pool within each pass.
SIM_POOL = (42, 43, 44, 45)
SIM_TXNS_PER_THREAD = 25


@dataclasses.dataclass
class RunResult:
    workload: str
    seed: int
    end_to_end: typing.Dict[str, float]
    per_layer: typing.Dict[str, float]
    attempted: int
    failed: int
    #: Oracle or accounting breaches; empty means ``correct``.
    problems: typing.List[str]
    #: Sample counts behind the percentiles, and other context.
    notes: typing.Dict[str, typing.Any]
    #: Traced runs: merged ``Tracer.snapshot()`` of every site.
    spans: typing.Optional[typing.Dict[str, typing.Any]] = None

    @property
    def correct(self) -> bool:
        return not self.problems


def percentile(ordered: typing.Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 if empty)."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def best_quartile(values: typing.Sequence[float], better: str) -> float:
    """The quartile on the good side of repeated measurements of the
    same thing (window slices, repetitions of one experiment).

    Interference on a shared host only ever slows a slice down, and on
    the reference box it came in bursts that covered most of a window
    often enough to move its *median* by a quarter.  The good-side
    quartile needs only a quarter of the slices undisturbed, yet is not
    the single luckiest one."""
    values = list(values)
    if len(values) < 2:
        return values[0]
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return quartiles[2] if better == "higher" else quartiles[0]


# ----------------------------------------------------------------------
# Live workloads
# ----------------------------------------------------------------------

@dataclasses.dataclass
class _Outcome:
    gid: typing.Any
    site: int
    due: float
    sent: float
    ack: float
    status: str


async def _closed_loop(client: ClusterClient, generator, workload,
                       seed: int, stop_at: float
                       ) -> typing.List[_Outcome]:
    outcomes: typing.List[_Outcome] = []
    rngs = RngRegistry(seed)

    async def logical_client(index: int) -> None:
        site = index % N_SITES
        rng = rngs.stream("{}:client{}".format(workload.name, index))
        while _clock() < stop_at:
            spec = generator.make_transaction(site, rng)
            sent = _clock()
            reply = await client.run_transaction(spec)
            outcomes.append(_Outcome(spec.gid, site, sent, sent,
                                     _clock(), reply["status"]))

    await asyncio.gather(*(logical_client(index)
                           for index in range(workload.clients)))
    return outcomes


async def _open_loop(client: ClusterClient, generator, workload,
                     seed: int, started: float, duration: float
                     ) -> typing.List[_Outcome]:
    outcomes: typing.List[_Outcome] = []
    rng = RngRegistry(seed).stream(workload.name)

    async def submit(spec, site: int, due: float) -> None:
        sent = _clock()
        reply = await client.run_transaction(spec)
        outcomes.append(_Outcome(spec.gid, site, due, sent, _clock(),
                                 reply["status"]))

    tasks = []
    for index in range(int(duration * workload.rate)):
        # Latency counts from the due time, so a stalled generator
        # charges its lateness to the transactions it delayed.
        due = started + index / workload.rate
        delay = due - _clock()
        if delay > 0:
            await asyncio.sleep(delay)
        site = index % N_SITES
        tasks.append(asyncio.ensure_future(submit(
            generator.make_transaction(site, rng), site, due)))
    await asyncio.gather(*tasks)
    return outcomes


@dataclasses.dataclass
class _Slices:
    """The measured window cut into slices of about two seconds (200
    latencies a slice at ``steady_write``'s rate, so each slice's p95
    has ten samples beyond it)."""

    #: Per slice: commits acknowledged per second, measured from the
    #: slice's first to its last acknowledgement (a count over the fixed
    #: slice would quantise the open loop's rate to whole numbers).
    commit_rate: typing.List[float]
    #: Per slice: ascending commit latencies (ms) of the transactions
    #: that were due in it.
    latency_ms: typing.List[typing.List[float]]


def _window_slices(outcomes: typing.Sequence[_Outcome],
                   window: typing.Tuple[float, float]) -> _Slices:
    """Throughput and latency percentiles are reported per slice and
    summarised with :func:`best_quartile`, so stalled seconds (a
    neighbour on the host, a slow fsync) do not set the run's figure."""
    count = max(1, round((window[1] - window[0]) / 2.0))
    length = (window[1] - window[0]) / count
    acks: typing.List[typing.List[float]] = [[] for _ in range(count)]
    slices = _Slices([], [[] for _ in range(count)])
    for outcome in outcomes:
        if outcome.status != "committed":
            continue
        index = int((outcome.ack - window[0]) // length)
        if 0 <= index < count:
            acks[index].append(outcome.ack)
        index = int((outcome.due - window[0]) // length)
        if 0 <= index < count:
            slices.latency_ms[index].append(
                (outcome.ack - outcome.due) * 1000.0)
    for times in acks:
        span = max(times) - min(times) if len(times) > 1 else 0.0
        slices.commit_rate.append((len(times) - 1) / span if span else 0.0)
    for part in slices.latency_ms:
        part.sort()
    return slices


def _replica_lag(placement, versions: typing.Mapping[int, typing.Mapping]
                 ) -> int:
    """Replica writes still outstanding: the sum over replicas of how
    many versions each is behind its primary copy."""
    lag = 0
    for item in placement.items:
        primary = versions[placement.primary_site(item)][item]
        for site in placement.replica_sites(item):
            lag += primary - versions[site][item]
    return lag


async def _drain(client: ClusterClient, placement) -> None:
    """Until every replica version equals its primary's.  Polls the
    cheap ``versions`` op, never ``status`` (which serialises the whole
    history and would stall the site being measured)."""
    deadline = _clock() + DRAIN_TIMEOUT_S
    while True:
        replies = await client.versions_all()
        versions = {site: decode_value(reply["versions"])
                    for site, reply in replies.items()}
        if _replica_lag(placement, versions) == 0:
            return
        if _clock() > deadline:
            raise TimeoutError("replicas did not converge in {:.0f} s"
                               .format(DRAIN_TIMEOUT_S))
        await asyncio.sleep(DRAIN_POLL_S)


async def _ping_us(client: ClusterClient, count: int = 200) -> float:
    """Median round trip of the smallest request on the idle cluster."""
    samples = []
    for _ in range(count):
        started = _clock()
        await client.ping(0)
        samples.append(_clock() - started)
    return statistics.median(samples) * 1e6


_HistoryEntry = collections.namedtuple(
    "_HistoryEntry", "gid kind commit_time reads writes")


def _histories(statuses: typing.Mapping[int, typing.Mapping]
               ) -> typing.Dict[int, typing.List[_HistoryEntry]]:
    """Site histories from the final ``status`` replies, in the shape
    the serializability oracle iterates (gid, reads, writes)."""
    return {site: [_HistoryEntry(decode_value(entry["gid"]),
                                 entry["kind"],
                                 float(entry["commit_time"]),
                                 decode_value(entry["reads"]),
                                 decode_value(entry["writes"]))
                   for entry in status["history"]]
            for site, status in statuses.items()}


def _drive_times(entries: typing.Sequence[_HistoryEntry]
                 ) -> typing.Dict[float, float]:
    """``commit_time`` -> when that commit really happened (site clock).

    A site stamps what it processes with its kernel's ``now``, and
    ``now`` only moves — to the wall clock — at the *end* of a kernel
    drive.  So everything one drive commits carries the time at which
    the previous drive started, stale by the idle gap in between (tens
    of ms at ``steady_write``'s rate: more than the delay being
    measured), and the drive's own start is the next larger stamp in the
    site's history.  A drive that commits nothing in between makes that
    late by less than one inter-arrival gap.  The site's last stamp has
    no successor and maps to nothing."""
    stamps = sorted({entry.commit_time for entry in entries})
    return dict(zip(stamps, stamps[1:]))


def _propagation_ms(histories, outcomes: typing.Sequence[_Outcome],
                    window: typing.Tuple[float, float], load_end: float
                    ) -> typing.Tuple[typing.List[float], int]:
    """Primary commit -> last replica commit, per transaction due in the
    window, in ms; and how many transactions were still propagating at
    ``load_end``.

    Commit times are the sites' own (:func:`_drive_times`), counted
    from each server's start, so each site's clock is aligned to the
    client clock with one offset: ``min(ack - commit)`` over the
    measured transactions that committed there.  The minimum is that
    site's fastest response path (WAL barrier + reply), about the same
    on every site, so it cancels in a difference between two sites."""
    happened = {site: _drive_times(entries)
                for site, entries in histories.items()}
    primary: typing.Dict[typing.Any, typing.Tuple[int, float]] = {}
    for site, entries in histories.items():
        for entry in entries:
            when = happened[site].get(entry.commit_time)
            if entry.kind == "primary" and when is not None:
                primary[entry.gid] = (site, when)
    offset: typing.Dict[int, float] = {}
    measured = set()
    for outcome in outcomes:
        commit = primary.get(outcome.gid)
        if commit is None or outcome.status != "committed" or not (
                window[0] <= outcome.due < window[1]):
            continue
        measured.add(outcome.gid)
        offset[outcome.site] = min(outcome.ack - commit[1],
                                   offset.get(outcome.site, float("inf")))
    last_replica: typing.Dict[typing.Any, float] = {}
    for site, entries in histories.items():
        if site not in offset:
            continue
        for entry in entries:
            when = happened[site].get(entry.commit_time)
            if entry.kind != "primary" and entry.gid in primary \
                    and when is not None:
                last_replica[entry.gid] = max(
                    when + offset[site],
                    last_replica.get(entry.gid, float("-inf")))
    delays = []
    behind = 0
    for gid, seen in last_replica.items():
        site, commit = primary[gid]
        if site not in offset:
            continue
        if seen > load_end:
            behind += 1
        if gid in measured:
            delays.append((seen - (commit + offset[site])) * 1000.0)
    delays.sort()
    return delays, behind


def _verify(placement, statuses, histories) -> typing.Tuple[
        typing.List[str], float]:
    """The paper's oracles on the final state: problems, oracle ms."""
    started = _clock()
    problems = []
    state = {site: decode_value(status["items"])
             for site, status in statuses.items()}
    divergent = divergent_copies(placement, state)
    if divergent:
        problems.append("{} divergent copies, first {}".format(
            len(divergent), divergent[0]))
    cycle = find_dsg_cycle(build_serialization_graph(histories.values()))
    if cycle is not None:
        problems.append("DSG cycle through {} transactions: {}{}".format(
            len(cycle) - 1, " -> ".join(map(str, cycle[:6])),
            " -> ..." if len(cycle) > 6 else ""))
    return problems, (_clock() - started) * 1000.0


def _counter_delta(before, after, *path: str) -> float:
    def total(statuses) -> float:
        value = 0.0
        for status in statuses.values():
            node = status
            for key in path:
                node = node.get(key, 0) if isinstance(node, dict) else 0
            value += node
        return value
    return total(after) - total(before)


def merge_spans(snapshots: typing.Sequence[typing.Mapping]
                ) -> typing.Dict[str, typing.Any]:
    """One ``Tracer.snapshot()`` per process, summed; raw spans stay
    apart, keyed by the process's position (the site id)."""
    merged: typing.Dict[str, typing.Any] = {
        "boundaries": {}, "layers": {}, "deltas": {}, "cpu_s": 0.0,
        "unresolved_boundaries": [], "raw_spans": {}}
    for site, snapshot in enumerate(snapshots):
        for name, row in snapshot["boundaries"].items():
            into = merged["boundaries"].setdefault(
                name, dict.fromkeys(row, 0))
            for key, value in row.items():
                into[key] += value
        merged["layers"].update(snapshot["layers"])
        for name, value in snapshot["deltas"].items():
            merged["deltas"][name] = merged["deltas"].get(name, 0) + value
        merged["cpu_s"] += snapshot["cpu_s"]
        merged["unresolved_boundaries"] = snapshot["unresolved_boundaries"]
        merged["raw_spans"][site] = snapshot["raw_spans"]
    return merged


async def _bring_up(work_dir: str, setups: int, **options
                    ) -> typing.Tuple[Cluster, ClusterClient,
                                      typing.List[float]]:
    """Set the cluster up ``setups`` times; the last one stays up.
    Returns it, a connected client and every set-up time."""
    samples = []
    for attempt in range(setups):
        cluster = Cluster(os.path.join(
            work_dir, "cluster{}".format(attempt)), **options)
        client = ClusterClient(cluster.spec, timeout=TXN_TIMEOUT_S,
                               retries=0, max_in_flight=1 << 20)
        started = _clock()
        cluster.spawn()
        try:
            await cluster.wait_ready(client)
        except BaseException:
            await client.close()
            cluster.stop()
            raise
        samples.append(_clock() - started)
        if attempt < setups - 1:
            await client.close()
            cluster.stop()
    return cluster, client, samples


@dataclasses.dataclass
class _Load:
    """What the driver saw of one load phase."""

    outcomes: typing.List[_Outcome]
    started: float
    window: typing.Tuple[float, float]
    ended: float
    #: Driver CPU seconds per wall second while the load ran.
    driver_cpu: float


async def _drive(client: ClusterClient, generator, workload: Workload,
                 seed: int, seconds: float, warmup_s: float) -> _Load:
    cpu_started = time.process_time()
    started = _clock()
    window = (started + warmup_s, started + warmup_s + seconds)
    if workload.loop == "open":
        outcomes = await _open_loop(client, generator, workload, seed,
                                    started, warmup_s + seconds)
    else:
        outcomes = await _closed_loop(client, generator, workload, seed,
                                      window[1])
    ended = _clock()
    return _Load(outcomes, started, window, ended,
                 (time.process_time() - cpu_started) / (ended - started))


async def _live(workload: Workload, seed: int, seconds: float,
                work_dir: str, traced: bool, setups: int,
                warmup_s: float, full: bool, raw_transactions: int,
                anti_entropy_s: float) -> RunResult:
    cluster, client, setup_samples = await _bring_up(
        work_dir, setups,
        read_txn_probability=workload.read_txn_probability,
        traced=traced, raw_transactions=raw_transactions,
        anti_entropy_s=anti_entropy_s)
    try:
        await asyncio.sleep(SETTLE_S)
        placement = cluster.spec.build_placement()
        # Its own rng only seeds thread_stream(), which is not used:
        # every make_transaction() call is handed a stream of --seed.
        generator = TransactionGenerator(cluster.spec.params, placement,
                                         random.Random(seed))
        ping_us = await _ping_us(client) if full else 0.0
        before = await client.statuses()
        async with Yardstick().sampling() as yardstick:
            load = await _drive(client, generator, workload, seed,
                                seconds, warmup_s)
            if full:
                await _drain(client, placement)
                converged = _clock()
        if full:
            after = await client.statuses()
    finally:
        await client.close()
        usages = cluster.stop()

    outcomes = load.outcomes
    counts = collections.Counter(o.status for o in outcomes)
    committed = counts["committed"]
    slices = _window_slices(outcomes, load.window)
    result = RunResult(
        workload.name, seed, {}, {}, attempted=len(outcomes),
        failed=len(outcomes) - committed - counts["aborted"],
        problems=[], notes={})
    # The open loop leaves the cores mostly idle: see host.py.
    slowness = 1.0 if workload.loop == "open" else yardstick.slowness
    raw = {"commit_txn_s": best_quartile(slices.commit_rate, "higher")}
    if not full:  # the untraced reference of a traced run
        result.end_to_end = at_nominal_speed(raw, slowness)
        return result

    histories = _histories(after)
    result.problems, verify_ms = _verify(placement, after, histories)
    for site, usage in enumerate(usages):
        if usage.exit_code != 0:
            result.problems.append("site {} exited with {}:\n{}".format(
                site, usage.exit_code, cluster.log_tail(site)))
    if set(counts) - {"committed", "aborted", "unknown"}:
        result.problems.append("unaccounted outcomes: {}".format(
            dict(counts)))
    server_committed = _counter_delta(before, after, "committed")
    if not result.failed and server_committed != committed:
        result.problems.append(
            "sites committed {} transactions, clients saw {}".format(
                int(server_committed), committed))
    catchup = _counter_delta(before, after, "messages_by_type",
                             "catchup-reply")
    if catchup:
        # The measurement must not include the catch-up path.
        result.problems.append(
            "{} catchup-reply messages during the load".format(
                int(catchup)))
    if load.driver_cpu > MAX_DRIVER_CPU:
        result.problems.append(
            "driver CPU {:.2f} of one core: the generator is the "
            "bottleneck".format(load.driver_cpu))
    if not committed:
        result.problems.append("nothing committed")
        committed = 1

    measured = sorted(itertools.chain.from_iterable(slices.latency_ms))
    late = sorted((o.sent - o.due) * 1000.0 for o in outcomes
                  if load.window[0] <= o.due < load.window[1])
    delays, behind = _propagation_ms(histories, outcomes, load.window,
                                     load.ended)
    drain_s = converged - load.ended

    raw.update({
        "converged_txn_s": committed / (converged - load.started),
        "commit_p50_ms": best_quartile(
            (percentile(part, 0.50) for part in slices.latency_ms),
            "lower"),
        "commit_p95_ms": best_quartile(
            (percentile(part, 0.95) for part in slices.latency_ms),
            "lower"),
        "cpu_ms_per_txn": 1000.0 * sum(u.cpu_s for u in usages)
        / committed,
        "site_rss_mb": max(u.max_rss_mb for u in usages),
    })
    result.end_to_end = dict(at_nominal_speed(raw, slowness),
                             setup_s=statistics.median(setup_samples))
    messages = _counter_delta(before, after, "messages_sent")
    frames = _counter_delta(before, after, "frames_sent")
    result.per_layer.update({
        "core.msgs_per_txn": messages / committed,
        "transport.msgs_per_frame": messages / frames if frames else 0.0,
        "transport.frames_per_txn": frames / committed,
        "transport.resent_msgs": _counter_delta(before, after,
                                                "resent_messages"),
        "wal.syncs_per_txn": _counter_delta(
            before, after, "wal", "syncs") / committed,
        "wal.sync_ms_per_txn": 1000.0 * _counter_delta(
            before, after, "wal", "sync_seconds") / committed,
        "wal.bytes_per_txn": cluster.disk_bytes() / committed,
        "journal.syncs_per_txn": _counter_delta(
            before, after, "journal", "syncs") / committed,
        "journal.sync_ms_per_txn": 1000.0 * _counter_delta(
            before, after, "journal", "sync_seconds") / committed,
        "server.apply_queue_hwm": max(
            status.get("apply_queue_hwm", 0) for status in after.values()),
        "apply.drain_s": drain_s,
        "apply.drain_txn_s": behind / drain_s if behind else 0.0,
        "apply.propagation_p50_ms": percentile(delays, 0.50),
        "apply.propagation_p95_ms": percentile(delays, 0.95),
        "rpc.ping_us": ping_us,
        "client.commit_p99_ms": percentile(measured, 0.99),
        "client.late_p95_ms": (percentile(late, 0.95)
                               if workload.loop == "open" else 0.0),
        "client.cpu_util": load.driver_cpu,
        "client.abort_share": counts["aborted"] / (
            committed + counts["aborted"]),
        "client.failed_share": result.failed / len(outcomes),
        "harness.verify_ms_per_ktxn": 1000.0 * verify_ms / committed,
        "host.slowness": yardstick.slowness,
    })
    result.notes.update({
        "host_slowness": yardstick.slowness, "as_measured": raw,
        "setup_samples": len(setup_samples),
        "commit_latency_samples": len(measured),
        "window_slices": len(slices.commit_rate),
        "propagation_samples": len(delays),
        "committed": committed, "aborted": counts["aborted"],
        "behind_at_load_end": behind,
        "window_s": seconds, "warmup_s": warmup_s,
    })
    if traced:
        snapshots = []
        for site in range(N_SITES):
            with open(cluster.trace_path(site), encoding="utf-8") as handle:
                snapshots.append(json.load(handle))
        result.spans = merge_spans(snapshots)
    return result


def run_live(workload: Workload, seed: int, seconds: float,
             work_dir: str, traced: bool = False, setups: int = SETUPS,
             warmup_s: float = WARMUP_S, full: bool = True,
             raw_transactions: int = 0, anti_entropy_s: float = 0.0
             ) -> RunResult:
    """One live run.  ``full=False`` stops after the window (no drain,
    no oracles): the untraced reference a traced run compares with."""
    return asyncio.run(_live(workload, seed, seconds, work_dir, traced,
                             setups, warmup_s, full, raw_transactions,
                             anti_entropy_s))


# ----------------------------------------------------------------------
# sim_paper
# ----------------------------------------------------------------------

def _sim_config(seed: int, check: bool = True) -> ExperimentConfig:
    return ExperimentConfig(
        protocol="backedge", seed=seed, check_serializability=check,
        params=WorkloadParams(
            transactions_per_thread=SIM_TXNS_PER_THREAD))


def run_sim(seed: int, seconds: float, min_passes: int = 2
            ) -> RunResult:
    """Passes over the seed pool until ``seconds`` of simulation wall
    time are used (at least ``min_passes``, so every pool seed repeats
    and its counts can be compared).

    Each experiment is bracketed by yardstick samples and its wall and
    CPU time are scaled to nominal host speed on the spot; a pool seed
    is the same work every time, so its figure is the median over its
    repetitions."""
    order = random.Random(seed)
    yardstick = Yardstick()
    setup_samples = []
    wall_s: typing.Dict[int, typing.List[float]] = {}
    cpu_s: typing.Dict[int, typing.List[float]] = {}
    counts: typing.Dict[int, typing.Set[tuple]] = {}
    problems = []
    passes, spent = 0, 0.0
    while passes < min_passes or spent < seconds:
        passes += 1
        for pool_seed in order.sample(SIM_POOL, len(SIM_POOL)):
            config = _sim_config(pool_seed)
            slowness = yardstick.sample()
            started = _clock()
            build_system(config)
            setup_samples.append(_clock() - started)
            cpu_started, started = time.process_time(), _clock()
            outcome = run_experiment(config)
            elapsed = _clock() - started
            cpu = time.process_time() - cpu_started
            slowness = (slowness + yardstick.sample()) / 2.0
            cpu_s.setdefault(pool_seed, []).append(cpu / slowness)
            wall_s.setdefault(pool_seed, []).append(elapsed / slowness)
            spent += elapsed
            if outcome.serializable is not True:
                problems.append("seed {}: DSG not verified acyclic"
                                .format(pool_seed))
            counts.setdefault(pool_seed, set()).add(
                (outcome.committed, outcome.aborted,
                 outcome.total_messages))
    for pool_seed, seen in sorted(counts.items()):
        if len(seen) != 1:
            problems.append(
                "seed {}: (committed, aborted, messages) differ between "
                "repetitions: {}".format(pool_seed, sorted(seen)))
    committed, aborted, messages = (
        sum(min(seen)[index] for seen in counts.values())
        for index in range(3))
    slice_ms = sorted(1000.0 * statistics.median(values)
                      for values in wall_s.values())
    rate = committed / (sum(slice_ms) / 1000.0)
    return RunResult(
        "sim_paper", seed,
        end_to_end={
            "setup_s": statistics.median(setup_samples),
            "commit_txn_s": rate,
            # run_experiment returns only after simulated propagation
            # has drained and the DSG is checked: there is no earlier
            # commit point to tell apart.
            "converged_txn_s": rate,
            # What a user of the simulator waits for: one experiment.
            "commit_p50_ms": percentile(slice_ms, 0.50),
            "commit_p95_ms": percentile(slice_ms, 0.95),
            "cpu_ms_per_txn": 1000.0 * sum(
                statistics.median(values) for values in cpu_s.values())
            / committed,
            "site_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        per_layer={
            "core.msgs_per_txn": messages / committed,
            "client.abort_share": aborted / (committed + aborted),
            "host.slowness": yardstick.slowness,
        },
        attempted=passes * (committed + aborted), failed=0,
        problems=problems,
        notes={"host_slowness": yardstick.slowness,
               "as_measured": {"commit_txn_s":
                               passes * committed / spent},
               "setup_samples": len(setup_samples),
               "commit_latency_samples": len(slice_ms),
               "committed": passes * committed,
               "aborted": passes * aborted, "passes": passes,
               "window_s": spent})


def sim_verify_ms_per_ktxn() -> float:
    """What the serializability oracle adds to one pool slice."""
    walls = {}
    for check in (False, True):
        config = _sim_config(SIM_POOL[0], check)
        started = _clock()
        outcome = run_experiment(config)
        walls[check] = _clock() - started
    return max(0.0, walls[True] - walls[False]) * 1e6 / outcome.committed
