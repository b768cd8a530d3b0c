"""Live-cluster acceptance tests: real sockets, real clocks, and the
simulator's own oracles.

Each test boots every site of the copy graph in-process on localhost
(:func:`~repro.cluster.loadgen.start_cluster`), drives the paper's
closed-loop workload through the TCP client, and then judges the run
with :func:`~repro.cluster.loadgen.judge`: quiescence, then the same
checkers the simulation harness uses — value convergence of every
replica and acyclicity of the dynamic serialization graph rebuilt from
the sites' reported histories.

The kill/restart test is the reliability story end to end: a replica
site dies abruptly mid-workload (volatile state dropped), restarts from
its WAL and replays its durable inbox journal while its peers resend
what it never acknowledged — all on the tree's FIFO chain, no pull
beside it — after which the cluster must be convergent and serializable
as if the crash never happened.
"""

import asyncio
import dataclasses
import os
import threading

import pytest

from repro.cluster.client import ClusterClient
from repro.cluster.codec import (
    decode_value,
    encode_batch_frame,
    encode_frame,
    read_frame,
)
from repro.cluster.loadgen import (
    generate_load,
    judge,
    start_cluster,
    start_site,
)
from repro.cluster.server import SiteServer, encode_spec
from repro.cluster.spec import ClusterSpec
from repro.network.message import Message, MessageType
from repro.sim.rng import RngRegistry
from repro.types import (
    GlobalTransactionId,
    Operation,
    OpType,
    TransactionSpec,
)
from repro.workload.generator import TransactionGenerator
from repro.workload.params import WorkloadParams
from tests.helpers import free_base_port

#: Seed 3 yields a DAG copy graph for these parameters (required by
#: DAG(WT)); seed 5's graph has back edges (exercised by BackEdge).
PARAMS = WorkloadParams(n_sites=3, n_items=12,
                        replication_probability=0.8,
                        threads_per_site=2, transactions_per_thread=6,
                        read_txn_probability=0.3,
                        deadlock_timeout=0.05)


def make_spec(protocol, seed):
    return ClusterSpec(params=PARAMS, protocol=protocol, seed=seed,
                       base_port=free_base_port(PARAMS.n_sites))


@pytest.mark.parametrize("protocol,seed", [
    ("dag_wt", 3),
    ("backedge", 5),
])
def test_live_mixed_workload_converges_and_serializes(
        protocol, seed, tmp_path):
    spec = make_spec(protocol, seed)

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (_, client):
            return await generate_load(spec, client, verify=True)

    report = asyncio.run(scenario())
    expected = (PARAMS.n_sites * PARAMS.threads_per_site *
                PARAMS.transactions_per_thread)
    assert report.committed + report.aborted == expected
    assert report.unknown == 0
    assert report.committed > 0
    assert report.convergent, "divergent replicas: {}".format(
        report.divergent)
    assert report.serializable
    assert report.throughput > 0
    assert 0 <= report.latency["p50"] <= report.latency["p95"] \
        <= report.latency["p99"]


def test_live_batched_run_converges_and_keeps_pace(tmp_path):
    """Smoke for the group-commit/frame-batching hot path under open
    load, at frame cap 1 and at the default cap.  The two runs share
    one sync path and differ only in how many messages a frame may
    carry: both stay correct (convergent, DSG-acyclic, every outcome
    known), both logs group-commit — fewer WAL sync rounds than records
    appended, on every run — and the capped run really packs frames.
    What either costs under fsync is the ledger's to measure
    (``benchmarks/ledger/run.py``), not a wall-clock race here."""
    params = PARAMS.replaced(threads_per_site=3,
                             transactions_per_thread=12,
                             read_txn_probability=0.1)

    def run(batch):
        spec = ClusterSpec(params=params, protocol="dag_wt", seed=3,
                           base_port=free_base_port(params.n_sites),
                           batch=batch)
        wal_dir = os.path.join(str(tmp_path), "batch{}".format(batch))
        os.mkdir(wal_dir)

        async def scenario():
            async with start_cluster(spec, wal_dir) as (_, client):
                report = await generate_load(spec, client, verify=True,
                                             loop_mode="open")
                return report, await client.statuses()

        return asyncio.run(scenario())

    expected = (params.n_sites * params.threads_per_site *
                params.transactions_per_thread)
    runs = [run(1), run(ClusterSpec.batch)]
    for report, statuses in runs:
        assert report.committed + report.aborted == expected
        assert report.unknown == 0
        assert report.convergent, "divergent: {}".format(
            report.divergent)
        assert report.serializable
        syncs = sum(status["wal"]["syncs"]
                    for status in statuses.values())
        appended = sum(status["wal"]["appended"]
                       for status in statuses.values())
        assert 0 < syncs < appended, (report.batch, syncs, appended)
    batched = runs[1][0]
    assert batched.frames_sent < batched.messages_sent


#: Names deleted with the mechanisms they configured, assembled from
#: halves so this file stays out of the repo-wide grep that shows they
#: are gone everywhere else.
APPLY_WORKERS = "apply" + "_workers"
MEMBER_OVERRIDES = "member" + "_overrides"
SCRAPE_PORT = "metrics" + "_base_port"


def test_deleted_knobs_are_not_spec_fields_and_old_files_still_load():
    """``wire_format``, the apply-worker count, the obs switch and the
    scrape port are not constructor arguments, are not serialised, and
    a spec or chaos scenario written by a build that had them (plus
    per-member overrides) loads with the cluster identity it always
    had."""
    from repro.chaos.controller import ChaosScenario

    for removed in ("wire_format", APPLY_WORKERS, "obs", SCRAPE_PORT):
        with pytest.raises(TypeError):
            ClusterSpec(**{removed: 1})
        assert removed not in ClusterSpec().to_json()
    assert ClusterSpec.wire_format == "json"  # what the ledger reads

    default = ClusterSpec()
    # What ships is what the ledger certifies.
    assert (default.durability, default.batch) == ("fsync", 64)
    # Pinned literal: the default 3-site spec's fingerprint before the
    # knobs were deleted.  It never hashed them, so it cannot move.
    assert default.fingerprint() == "6bcb6038c29c86b8"
    old_spec = dict(default.to_json(), wire_format="binary", obs=False)
    old_spec[APPLY_WORKERS] = 4
    old_spec[SCRAPE_PORT] = 9750
    loaded = ClusterSpec.from_json(old_spec)
    assert loaded == default
    assert loaded.fingerprint() == "6bcb6038c29c86b8"
    # A file that names neither server setting runs at the defaults.
    bare = {key: value for key, value in default.to_json().items()
            if key not in ("durability", "batch")}
    assert ClusterSpec.from_json(bare) == default

    old_scenario = ChaosScenario(spec=default).to_json()
    old_scenario["spec"] = old_spec
    old_scenario[MEMBER_OVERRIDES] = {"1": {"wire_format": "json"}}
    assert ChaosScenario.from_json(old_scenario).spec == default


def test_mixed_batched_and_unbatched_members_interoperate(tmp_path):
    """``batch``/``durability`` are per-process settings, excluded from
    the cluster fingerprint: a site capped at one message per frame,
    syncing to the page cache only, and default sites must form one
    cluster (a receiver takes a batch frame of any length) and still
    pass both oracles."""
    plain_spec = make_spec("dag_wt", 3)
    odd_spec = dataclasses.replace(plain_spec, batch=1,
                                   durability="flush")
    assert odd_spec.fingerprint() == plain_spec.fingerprint()

    async def scenario():
        async with start_cluster(plain_spec, str(tmp_path)) as (
                servers, client):
            # Site 0 restarts as the odd member before any traffic.
            await servers[0].stop()
            servers[0] = await start_site(odd_spec, str(tmp_path), 0)
            return await generate_load(plain_spec, client, verify=True)

    report = asyncio.run(scenario())
    assert report.committed > 0
    assert report.unknown == 0
    assert report.convergent
    assert report.serializable


def test_dag_wt_survives_kill_and_wal_restart(tmp_path):
    """The acceptance scenario: a replica site is killed mid-workload
    and restarted from stable storage; convergence and an acyclic DSG
    must still hold over the full run."""
    spec = make_spec("dag_wt", 3)
    placement = spec.build_placement()
    victim = 2

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (servers, client):
            generator = TransactionGenerator(
                spec.params, placement,
                RngRegistry(spec.seed).stream("workload"))
            outcomes = {"committed": 0, "aborted": 0, "unknown": 0}

            async def worker(site, thread):
                for txn_spec in generator.thread_stream(site, thread):
                    outcome = await client.run_transaction(txn_spec)
                    outcomes[outcome["status"]] += 1
                    await asyncio.sleep(0.005)

            async def crash_and_restart():
                await asyncio.sleep(0.1)
                servers[victim].kill()
                await asyncio.sleep(0.3)
                servers[victim] = await start_site(spec, str(tmp_path),
                                                   victim)

            await asyncio.gather(
                crash_and_restart(),
                *(worker(site, thread)
                  for site in range(spec.params.n_sites)
                  for thread in range(spec.params.threads_per_site)))
            return servers[victim], outcomes, await judge(client)

    restarted, outcomes, verdict = asyncio.run(scenario())

    # The victim really did recover from its log, not from scratch.
    assert restarted.recovered
    assert verdict.statuses[victim]["recovered"]
    assert verdict.statuses[victim]["wal"]["records"] > 0
    assert outcomes["committed"] > 0
    assert verdict.violations == []


def test_recovered_site_keeps_serving_transactions(tmp_path):
    """After a WAL restart the victim accepts new primaries and its
    updates propagate — the rejoin is full, not read-only."""
    spec = make_spec("dag_wt", 3)
    placement = spec.build_placement()
    victim = 2
    primaries = sorted(placement.primary_items_at(victim))
    if not primaries:
        pytest.skip("victim has no primary items for this seed")

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (servers, client):
            first = await client.run_transaction(
                _write_txn(victim, 0, primaries[0]))
            servers[victim].kill()
            await asyncio.sleep(0.2)
            servers[victim] = await start_site(spec, str(tmp_path), victim)
            second = await client.run_transaction(
                _write_txn(victim, 1, primaries[0]))
            return first, second, await judge(client)

    first, second, verdict = asyncio.run(scenario())
    assert first["status"] == "committed"
    assert second["status"] == "committed"
    assert verdict.violations == []


# ----------------------------------------------------------------------
# Observability (repro.obs wired through the live runtime)
# ----------------------------------------------------------------------

def test_stats_trace_wire_ops_and_durability_status(tmp_path):
    """The observability plane end to end: the ``stats`` op serves a
    schema-valid metrics snapshot with the hot-path instruments
    populated, the ``trace`` op serves spans that reconstruct into
    complete propagation trees, the load report carries the propagation
    and version-lag aggregates, and ``status`` exposes the WAL/journal
    durability sub-dicts plus the apply-queue high-water mark."""
    from repro.obs import (propagation_summary, reconstruct,
                           validate_snapshot)

    spec = make_spec("dag_wt", 3)

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (servers, client):
            report = await generate_load(spec, client, verify=True)
            stats = await client.stats_all()
            spans = await client.traces_all()
            staged = [(server._h_encode.count, server._h_write.count)
                      for server in servers.values()]
            statuses = await client.statuses()
            # The chunked ``status`` reply is booked to the same two
            # stage timers as every other response.
            for server, (encodes, writes) in zip(servers.values(),
                                                 staged):
                assert server._h_encode.count > encodes
                assert server._h_write.count > writes
            return report, stats, spans, statuses

    report, stats, spans, statuses = asyncio.run(scenario())

    # -- stats op: schema-valid, hot-path instruments populated.
    committed = frames = 0
    for site, response in stats.items():
        validate_snapshot(response["stats"])
        snapshot = response["stats"]
        committed += snapshot["counters"].get("txn.committed", 0)
        frames += snapshot["counters"].get("net.frames_sent", 0)
        assert snapshot["histograms"]["wal.sync_s"]["count"] > 0
        assert snapshot["histograms"]["journal.sync_s"]["count"] >= 0
        assert snapshot["histograms"]["server.drive_s"]["count"] > 0
    assert committed == report.committed
    assert frames > 0

    # -- trace op: the pooled spans rebuild complete trees whose
    # aggregate matches what the load report embedded.
    assert spans
    summary = propagation_summary(reconstruct(spans))
    assert summary["propagating"] > 0
    assert summary["complete"] == summary["propagating"]
    assert report.propagation["complete"] == summary["complete"]
    assert report.propagation["p50"] <= report.propagation["p95"] \
        <= report.propagation["max"]
    assert report.version_lag["samples"] >= 1
    assert 0.0 <= report.version_lag["fraction_current"] <= 1.0

    # -- status satellite: durability counters + queue high-water mark.
    for site, status in statuses.items():
        for log in ("wal", "journal"):
            for key in ("records", "appended", "syncs", "bytes",
                        "pending", "abandoned"):
                assert status[log][key] >= 0
        assert status["wal"]["bytes"] > 0
        assert status["wal"]["records"] >= status["wal"]["appended"]
        # Each counter is served once: no flat copies beside the logs'
        # sub-dicts.
        assert not {"wal_records", "wal_syncs", "journal_records",
                    "journal_syncs"} & set(status)
        assert status["apply_queue_hwm"] >= 0
        assert "obs" not in status
        assert "wire_format" not in status
        assert APPLY_WORKERS not in status


def test_trace_ids_survive_kill_restart_and_catchup(tmp_path):
    """The tracing crash-safety invariant: trace ids are re-derived
    deterministically, so spans recorded before a crash (in the JSONL
    file) and after the WAL restart (replayed / re-forwarded / resent)
    all stitch into the same trees — and after quiescence every
    propagating tree is complete.  Recovery runs on the FIFO chain
    alone: no site sends a catch-up message at any point."""
    import re

    from repro.obs import propagation_summary, reconstruct
    from repro.obs.trace import load_trace_file

    spec = make_spec("dag_wt", 3)
    placement = spec.build_placement()
    victim = 2

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (servers, client):
            generator = TransactionGenerator(
                spec.params, placement,
                RngRegistry(spec.seed).stream("workload"))

            async def worker(site, thread):
                for txn_spec in generator.thread_stream(site, thread):
                    await client.run_transaction(txn_spec)
                    await asyncio.sleep(0.005)

            async def crash_and_restart():
                await asyncio.sleep(0.1)
                servers[victim].kill()
                await asyncio.sleep(0.3)
                servers[victim] = await start_site(spec, str(tmp_path),
                                                   victim)

            await asyncio.gather(
                crash_and_restart(),
                *(worker(site, thread)
                  for site in range(spec.params.n_sites)
                  for thread in range(spec.params.threads_per_site)))
            verdict = await judge(client)
            traces = [server.wal_path + ".trace"
                      for server in servers.values()]
            return await client.traces_all(), verdict.statuses, traces

    live_spans, statuses, traces = asyncio.run(scenario())

    # Pool the live rings with the on-disk JSONL sinks: the victim's
    # pre-crash ring died with it, but its file did not.
    spans = list(live_spans)
    for path in traces:
        spans.extend(load_trace_file(path))

    # Every stamped id has the deterministic shape.
    tids = {span["trace"] for span in spans if "trace" in span}
    assert tids
    assert all(re.fullmatch(r"t\d+\.\d+", tid) for tid in tids)

    # The victim saw the failure/recovery paths, attributed to traces.
    victim_events = {span["event"] for span in spans
                     if span["site"] == victim}
    assert {"replayed", "received"} <= victim_events
    # (The restarted victim's counters start from zero, so they cover
    # exactly the recovery it had to do.)
    for status in statuses.values():
        assert not {"catchup-request", "catchup-reply"} & set(
            status["messages_by_type"]), status["messages_by_type"]

    # The headline invariant: ids survived restart, re-forward and
    # resend, so reconstruction closes every propagating tree.
    summary = propagation_summary(reconstruct(spans))
    assert summary["propagating"] > 0
    assert summary["complete"] == summary["propagating"], summary


async def settle(predicate):
    for _ in range(2000):
        if predicate():
            return
        await asyncio.sleep(0.001)
    raise AssertionError("condition never held")


class RecordingWriter:
    """The writer half of a connection, for driving
    ``SiteServer._peer_loop`` / ``_client_loop`` without a socket."""

    def __init__(self):
        self.data = bytearray()
        self.transport = self

    def writelines(self, chunks):
        self.data += b"".join(chunks)

    def get_write_buffer_size(self):
        return 0

    def is_closing(self):
        return False

    async def drain(self):
        pass

    async def acks(self):
        """Sequence numbers of the ack frames written so far."""
        reader = asyncio.StreamReader()
        reader.feed_data(bytes(self.data))
        reader.feed_eof()
        seqs = []
        while True:
            frame = await read_frame(reader)
            if frame is None:
                return seqs
            assert frame["kind"] == "ack"
            seqs.append(frame["seq"])


def feed(reader, *frames):
    """Put ``frames`` on a peer connection's socket."""
    for frame in frames:
        reader.feed_data(encode_frame(frame))


def test_apply_round_one_journal_sync_one_ack_after_the_sync(tmp_path):
    """The peer loop works in rounds: every frame one read returns is
    accepted in order, then ONE journal sync, ONE drive and ONE
    cumulative ack of the last sequence cover them all — and not a
    byte of that ack is written before the sync completes
    (journal-then-ack).  Frames that arrive during the sync wait in
    the socket and form the next round, acked only after its own sync.
    The journal's sync is gated so the test, not the disk, decides
    when each round becomes durable: one release lets one sync
    through."""
    spec = make_spec("dag_wt", 3)  # the chain s0 -> s1 -> s2
    placement = spec.build_placement()
    item = next(item for item in sorted(placement.items)
                if placement.primary_site(item) == 0
                and 1 in placement.replica_sites(item))

    def secondary(seq):
        return Message(MessageType.SECONDARY, src=0, dst=1, payload={
            "gid": GlobalTransactionId(0, seq),
            "writes": {item: 100 + seq}, "epoch": spec.epoch})

    def single(seq):
        return encode_batch_frame("inc-a", [(seq, secondary(seq))])

    async def scenario():
        server = SiteServer(
            spec, 1, wal_path=os.path.join(str(tmp_path), "site1.wal"))
        await server.start()
        try:
            journal = server.journal
            gate = threading.Semaphore(0)
            entered = threading.Event()
            real_sync = journal.sync

            def gated_sync():
                entered.set()
                assert gate.acquire(timeout=10.0)
                return real_sync()

            journal.sync = gated_sync
            reader = asyncio.StreamReader()
            writer = RecordingWriter()
            # Five frames, six entries, on the socket before the loop
            # wakes: one read takes them all.
            feed(reader, single(1), single(2),
                 encode_batch_frame("inc-a", [(3, secondary(3)),
                                              (4, secondary(4))]),
                 single(5), single(6))
            task = asyncio.get_running_loop().create_task(
                server._peer_loop(reader, writer, 0))
            # The sync was submitted before the loop first yielded (it
            # overlaps the drive), and blocks on the gate: all six are
            # applied, none is durable, so nothing may have been acked.
            await settle(entered.is_set)
            engine = server.system.site_of(1).engine
            await settle(
                lambda: engine.item(item).committed_version == 6)
            for _ in range(20):
                await asyncio.sleep(0.001)
            assert journal.appended == 6 and journal.syncs == 0
            assert not writer.data

            # Frames 7-9 arrive while round 1 waits on its sync: they
            # stay in the socket, unread, and form round 2, whose ack
            # waits for round 2's own sync.
            feed(reader, single(7), single(8), single(9))
            for _ in range(20):
                await asyncio.sleep(0.001)
            assert journal.appended == 6
            entered.clear()
            gate.release()
            await settle(entered.is_set)
            await settle(
                lambda: engine.item(item).committed_version == 9)
            assert journal.appended == 9 and journal.syncs == 1
            assert await writer.acks() == [6]
            acked = len(writer.data)
            gate.release()
            await settle(lambda: len(writer.data) > acked)
            assert journal.syncs == 2
            assert await writer.acks() == [6, 9]

            # Later rounds sync ungated.
            gate.release(8)
            # A resend overlapping the acked range plus one new entry:
            # duplicates are dropped by the dedup filter but still
            # covered by the round's single ack.
            feed(reader, single(8), single(9), single(10))
            await settle(lambda: journal.syncs == 3)
            # A round of nothing but duplicates journals nothing, so it
            # needs no sync — and is acked all the same.
            feed(reader, single(9), single(10))
            reader.feed_eof()
            await asyncio.wait_for(task, 10.0)
            assert await writer.acks() == [6, 9, 10, 10]
            assert journal.appended == 10 and journal.syncs == 3
            assert engine.item(item).committed_version == 10
            assert server.transport.dedup_dropped == 4
        finally:
            gate.release(8)
            await server.stop()

    asyncio.run(scenario())


def test_unsynced_replica_applies_come_back_from_the_journal(tmp_path):
    """A replica's COMMIT records have no timer behind them and need
    none.  The replica applies a round of updates, acks it (journal
    synced, WAL not) and is killed before any WAL barrier: the three
    commit records die in the buffer.  On restart the copy converges
    from the inbox journal alone — no peer is running, so nothing is
    resent — and replaying the journal once more over the now-logged
    commits changes nothing (``has_applied``)."""
    spec = make_spec("dag_wt", 3)
    placement = spec.build_placement()
    item = next(item for item in sorted(placement.items)
                if placement.primary_site(item) == 0
                and 1 in placement.replica_sites(item))
    wal_path = os.path.join(str(tmp_path), "site1.wal")
    gids = [GlobalTransactionId(0, seq) for seq in (1, 2, 3)]

    def single(seq):
        return encode_batch_frame("inc-a", [(seq, Message(
            MessageType.SECONDARY, src=0, dst=1, payload={
                "gid": GlobalTransactionId(0, seq),
                "writes": {item: 100 + seq}, "epoch": spec.epoch}))])

    def copy_of(server):
        record = server.system.site_of(1).engine.item(item)
        return record.value, record.committed_version, \
            list(record.writers)

    async def scenario():
        server = SiteServer(spec, 1, wal_path=wal_path)
        await server.start()
        reader = asyncio.StreamReader()
        writer = RecordingWriter()
        feed(reader, single(1), single(2), single(3))
        reader.feed_eof()
        await asyncio.wait_for(server._peer_loop(reader, writer, 0), 10.0)
        assert await writer.acks() == [3]
        assert copy_of(server) == (103, 3, gids)
        # Acked means journalled; the apply's own records are pending.
        assert server.journal.pending_sync == 0
        assert server.wal.pending_sync == 3
        assert server.wal.synced_records < server.wal.appended
        server.kill()
        assert server.wal.abandoned == 3

        restarted = SiteServer(spec, 1, wal_path=wal_path)
        await restarted.start()
        assert restarted.recovered
        assert copy_of(restarted) == (103, 3, gids)
        assert restarted.transport.dedup_dropped == 0
        await restarted.stop()          # graceful: the commits sync

        again = SiteServer(spec, 1, wal_path=wal_path)
        await again.start()
        try:
            assert copy_of(again) == (103, 3, gids)
            assert len(again.system.site_of(1).engine.history) == 3
        finally:
            await again.stop()

    asyncio.run(scenario())


def test_acked_2pc_decision_survives_a_kill(tmp_path):
    """A 2PC decision commits the backedge subtransaction its
    participant prepared, and decisions are not journalled: once the
    participant acks one, its sender has forgotten it and only the WAL
    holds the commit.  So that ack waits for the WAL, and a kill right
    after it loses nothing — the restarted participant has the
    update."""
    spec = make_spec("backedge", 5)  # seed 5: back edge s2 -> s1
    placement = spec.build_placement()
    item = next(item for item in sorted(placement.items)
                if placement.primary_site(item) == 2
                and 1 in placement.replica_sites(item))
    gid = GlobalTransactionId(2, 1)
    wal_path = os.path.join(str(tmp_path), "site1.wal")

    def single(seq, msg_type, **payload):
        return encode_batch_frame(
            "inc-a", [(seq, Message(msg_type, src=2, dst=1,
                                    payload=payload))])

    def copy_of(server):
        record = server.system.site_of(1).engine.item(item)
        return record.value, record.committed_version

    async def scenario():
        server = SiteServer(spec, 1, wal_path=wal_path)
        await server.start()
        reader = asyncio.StreamReader()
        writer = RecordingWriter()
        task = asyncio.get_running_loop().create_task(
            server._peer_loop(reader, writer, 2))
        feed(reader, single(
            1, MessageType.BACKEDGE, gid=gid, writes={item: 102},
            origin=2))
        await settle(lambda: writer.data)   # prepared here, acked
        feed(reader, single(2, MessageType.DECISION, gid=gid, commit=True))
        reader.feed_eof()
        await asyncio.wait_for(task, 10.0)
        assert await writer.acks() == [1, 2]
        assert copy_of(server) == (102, 1)
        server.kill()                       # right after the ack

        restarted = SiteServer(spec, 1, wal_path=wal_path)
        await restarted.start()
        try:
            return copy_of(restarted)
        finally:
            await restarted.stop()

    assert asyncio.run(scenario()) == (102, 1)


def test_read_only_transaction_waits_for_a_pending_commit_only(tmp_path):
    """A read-only transaction logs nothing, and the response barrier
    is what keeps that safe: "everything appended so far is stable".
    Served while a writer's commit record is still pending, a reader
    that saw the new value is not answered before the log has caught up
    (``synced_records == appended``); served on a clean log it is
    answered without a sync.  The WAL's sync is gated so the test
    decides when the pending record becomes durable."""
    spec = make_spec("dag_wt", 3)
    placement = spec.build_placement()
    item = sorted(placement.primary_items_at(0))[0]

    def request(rid, seq, op_type):
        txn = TransactionSpec(GlobalTransactionId(0, seq), 0,
                              (Operation(op_type, item),))
        return {"kind": "req", "rid": rid, "op": "txn",
                "spec": encode_spec(txn)}

    async def scenario():
        server = SiteServer(
            spec, 0, wal_path=os.path.join(str(tmp_path), "site0.wal"))
        await server.start()
        wal = server.wal
        gate = threading.Event()
        entered = threading.Event()
        real_sync = wal.sync

        def gated_sync():
            entered.set()
            assert gate.wait(10.0)
            return real_sync()

        class BarrierCheckingWriter(RecordingWriter):
            def writelines(self, chunks):
                # No response byte leaves ahead of the log.
                assert wal.synced_records == wal.appended
                super().writelines(chunks)

        def serve(writer):
            """A client connection on ``writer``; requests are fed to
            the returned reader."""
            reader = asyncio.StreamReader()
            task = asyncio.get_running_loop().create_task(
                server._client_loop(reader, writer))
            return reader, task

        async def responses(writer):
            reader = asyncio.StreamReader()
            reader.feed_data(bytes(writer.data))
            reader.feed_eof()
            frames = []
            while (frame := await read_frame(reader)) is not None:
                frames.append((frame["rid"], frame["status"]))
            return frames

        try:
            wal.sync = gated_sync
            writer = BarrierCheckingWriter()
            reader, task = serve(writer)
            before = wal.appended
            reader.feed_data(encode_frame(request(1, 1, OpType.WRITE)))
            await settle(entered.is_set)    # the writer's round, gated
            reader.feed_data(encode_frame(request(2, 2, OpType.READ)))
            await settle(lambda: server.committed == 2)
            for _ in range(20):
                await asyncio.sleep(0.001)
            # Both committed in the engine; one record between them;
            # neither has been answered.
            assert wal.appended == before + 1
            assert wal.synced_records < wal.appended
            assert not writer.data
            gate.set()
            await settle(lambda: writer.data.count(b'"kind":"resp"') == 2)
            reader.feed_eof()
            await asyncio.wait_for(task, 10.0)
            assert sorted(await responses(writer)) == [
                (1, "committed"), (2, "committed")]

            # Clean log: a reader appends nothing and syncs nothing,
            # and is answered inline.
            entered.clear()
            syncs, appended = wal.syncs, wal.appended
            writer = BarrierCheckingWriter()
            reader, task = serve(writer)
            reader.feed_data(encode_frame(request(3, 3, OpType.READ)))
            reader.feed_eof()
            await asyncio.wait_for(task, 10.0)
            assert await responses(writer) == [(3, "committed")]
            assert (wal.syncs, wal.appended) == (syncs, appended)
            assert not entered.is_set()
        finally:
            gate.set()
            await server.stop()

    asyncio.run(scenario())


def test_malformed_peer_frame_is_dropped_into_the_flight_ring(tmp_path):
    """A peer frame whose body does not decode is dropped as a
    structured flight-recorder event naming the peer and the error —
    not a line on stderr — and the rest of its round still applies and
    is acked."""
    spec = make_spec("dag_wt", 3)  # the chain s0 -> s1 -> s2
    placement = spec.build_placement()
    item = next(item for item in sorted(placement.items)
                if placement.primary_site(item) == 0
                and 1 in placement.replica_sites(item))

    def single(seq):
        return encode_batch_frame("inc-a", [(seq, Message(
            MessageType.SECONDARY, src=0, dst=1, payload={
                "gid": GlobalTransactionId(0, seq),
                "writes": {item: 100 + seq}, "epoch": spec.epoch}))])

    async def scenario():
        server = SiteServer(
            spec, 1, wal_path=os.path.join(str(tmp_path), "site1.wal"))
        await server.start()
        try:
            reader = asyncio.StreamReader()
            writer = RecordingWriter()
            feed(reader, single(1),
                 {"kind": "batch", "inc": "inc-a", "msgs": "not a list"},
                 single(2))
            reader.feed_eof()
            await asyncio.wait_for(
                server._peer_loop(reader, writer, 0), 10.0)
            engine = server.system.site_of(1).engine
            assert engine.item(item).committed_version == 2
            assert await writer.acks() == [2]
            _manifest, records = server.flight.gather("test")
            return [record for record in records
                    if record["type"] == "event"
                    and record["kind"] == "malformed-peer-frame"]
        finally:
            await server.stop()

    dropped = asyncio.run(scenario())
    assert len(dropped) == 1
    assert dropped[0]["peer"] == 0
    assert "batch frame without a msgs list" in dropped[0]["error"]


def _write_txn(site, seq, item):
    return TransactionSpec(GlobalTransactionId(site, seq), site,
                           (Operation(OpType.WRITE, item),))


def test_kernel_exception_fail_stops_the_site_and_survivors_converge(
        tmp_path):
    """A site whose kernel raises stops like a crash — no zombie that
    logs and carries on.  The tail of the chain s0 -> s1 -> s2 dies on
    an injected process failure; it answers nothing afterwards, and
    the survivors keep committing, converge and pass the DSG oracle on
    what committed."""
    from repro.cluster.client import ClusterError

    spec = make_spec("dag_wt", 3)
    placement = spec.build_placement()
    victim = 2
    survivors = (0, 1)

    def boom(env):
        yield env.timeout(0)
        raise RuntimeError("injected kernel fault")

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (servers, client):
            seq = 0
            for site in range(3):
                for item in sorted(placement.primary_items_at(site))[:2]:
                    seq += 1
                    await client.run_transaction(
                        _write_txn(site, seq, item))
            dead = servers[victim]
            dead.env.process(boom(dead.env))
            dead._drive()
            probe = ClusterClient(spec, timeout=0.5, retries=1)
            try:
                with pytest.raises((ClusterError, OSError)):
                    await probe.ping(victim)
            finally:
                await probe.close()
            outcomes = []
            for site in survivors:
                for item in sorted(placement.primary_items_at(site)):
                    seq += 1
                    outcomes.append(await client.run_transaction(
                        _write_txn(site, seq, item)))

            def settled(statuses):
                state = {site: decode_value(status["items"])
                         for site, status in statuses.items()}
                return all(
                    len({state[site][item]["version"]
                         for site in placement.sites_of(item)
                         if site in survivors}) <= 1
                    for item in placement.items)

            for _ in range(200):
                statuses = {site: await client.status(site)
                            for site in survivors}
                if settled(statuses):
                    break
                await asyncio.sleep(0.05)
            converged = settled(statuses)
            # Fail-stop is a crash: the dead site restarts from its WAL
            # and the whole cluster passes the verdict.
            servers[victim] = await start_site(spec, str(tmp_path), victim)
            return dead, outcomes, converged, await judge(client)

    dead, outcomes, converged, verdict = asyncio.run(scenario())
    assert isinstance(dead.fatal, RuntimeError)
    assert dead._closed
    assert any(event["kind"] == "fatal" for event in dead.flight._events)
    assert outcomes and all(outcome["status"] == "committed"
                            for outcome in outcomes)
    assert converged
    assert verdict.violations == []


def test_failed_journal_sync_fail_stops_the_site(tmp_path):
    """A journal sync that fails is a crash, not an exception the peer
    loop swallows: the site records the failure as ``fatal``, closes,
    and acks nothing of the round the failed sync covered."""
    import errno

    from repro.cluster.wal import LogFailedError

    spec = make_spec("dag_wt", 3)  # the chain s0 -> s1 -> s2
    placement = spec.build_placement()
    item = next(item for item in sorted(placement.items)
                if placement.primary_site(item) == 0
                and 1 in placement.replica_sites(item))

    class FullDisk:
        def write(self, block):
            raise OSError(errno.ENOSPC, "No space left on device")

        def close(self):
            pass

    async def scenario():
        server = SiteServer(
            spec, 1, wal_path=os.path.join(str(tmp_path), "site1.wal"))
        await server.start()
        try:
            server.journal._handle = FullDisk()
            reader = asyncio.StreamReader()
            for seq in (1, 2):
                reader.feed_data(encode_frame(encode_batch_frame(
                    "inc-a", [(seq, Message(
                        MessageType.SECONDARY, src=0, dst=1, payload={
                            "gid": GlobalTransactionId(0, seq),
                            "writes": {item: 100 + seq},
                            "epoch": spec.epoch}))])))
            reader.feed_eof()
            writer = RecordingWriter()
            await asyncio.wait_for(server._peer_loop(reader, writer, 0),
                                   10.0)
            await settle(lambda: server.fatal is not None)
            assert await writer.acks() == []
            assert server.journal.synced_records == 0
            with pytest.raises(LogFailedError):
                server.journal.sync()
            return server.fatal, server._closed
        finally:
            if not server._closed:
                await server.stop()

    fatal, closed = asyncio.run(scenario())
    assert isinstance(fatal, OSError)
    assert closed


def test_commit_time_is_stamped_at_arrival_not_at_the_previous_drive(
        tmp_path):
    """External input enters the kernel at wall-now: on an idle site
    (no timed event has advanced the clock since start) a transaction
    submitted after a 50 ms pause commits at >= 50 ms, not at the
    instant of the last drive."""
    spec = make_spec("dag_wt", 3)
    placement = spec.build_placement()
    item = sorted(placement.primary_items_at(0))[0]
    pause = 0.05

    async def scenario():
        server = SiteServer(
            spec, 0, wal_path=os.path.join(str(tmp_path), "site0.wal"))
        await server.start()
        try:
            await asyncio.sleep(pause)
            outcome = await server.submit_transaction(
                _write_txn(0, 1, item))
            engine = server.system.site_of(0).engine
            return outcome, list(engine.history)[-1].commit_time
        finally:
            await server.stop()

    (status, _reason, _elapsed), commit_time = asyncio.run(scenario())
    assert status == "committed"
    assert commit_time >= pause



def test_client_kill_mid_flight_leaves_no_reader_task(tmp_path, monkeypatch):
    """Concurrent idempotent requests to one site lose it — once while
    idle, once mid-flight — and retry onto its restart.  Every
    connection the client opened is either the one it holds for that
    site or closed with its read loop, so ``close()`` leaves no pending
    ``_read_loop`` task behind."""
    from repro.cluster import client as client_module

    spec = make_spec("dag_wt", 3)
    victim = 2
    readers = []        # (connection, its read-loop task), every one
    read_loop = client_module._Connection._read_loop

    async def spy(self, frames):
        readers.append((self, asyncio.current_task()))
        await read_loop(self, frames)

    monkeypatch.setattr(client_module._Connection, "_read_loop", spy)

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (servers, client):

            async def restart(pause):
                servers[victim].kill()
                await asyncio.sleep(pause)
                servers[victim] = await start_site(spec, str(tmp_path),
                                                   victim)

            # Idle loss: the held connection is defunct when the burst
            # arrives, and every request of the burst finds it so.
            await client.ping(victim)
            await restart(0.05)
            await asyncio.gather(*(client.ping(victim) for _ in range(8)))

            # Mid-flight loss: requests fail, drop and retry
            # concurrently.
            stop = asyncio.Event()

            async def prober():
                while not stop.is_set():
                    try:
                        await client.ping(victim)
                    except client_module.ClusterError:
                        pass
                    await asyncio.sleep(0)

            async def crash_and_restart():
                await asyncio.sleep(0.05)
                await restart(0.02)
                await asyncio.sleep(0.3)
                stop.set()

            await asyncio.gather(crash_and_restart(),
                                 *(prober() for _ in range(8)))
            live = {conn for conn, task in readers if not task.done()}
            held = set(client._connections.values())
        return live, held

    live, held = asyncio.run(scenario())
    assert len(readers) > 1, "the kill never forced a reconnect"
    assert live <= held, "an unregistered connection kept reading"
    assert all(task.done() for _conn, task in readers)


def test_refused_connect_is_an_abort_not_an_unknown_outcome():
    """Nothing listens on the spec's ports: a transaction whose connect
    to its origin is refused was never sent, so it cannot have run and
    is aborted as not submitted; an idempotent request still fails
    after its retries."""
    from repro.cluster.client import ClusterError

    spec = make_spec("dag_wt", 3)
    write = TransactionSpec(GlobalTransactionId(0, 1), 0,
                            (Operation(OpType.WRITE, 0),))

    async def scenario():
        client = ClusterClient(spec, timeout=2.0)
        try:
            outcome = await client.run_transaction(write)
            with pytest.raises(ClusterError):
                await client.ping(0)
            return outcome
        finally:
            await client.close()

    outcome = asyncio.run(scenario())
    assert outcome["status"] == "aborted"
    assert outcome["reason"].startswith("not submitted: "), outcome
    assert "ConnectionRefusedError" in outcome["reason"]
