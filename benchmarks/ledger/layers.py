"""Isolated layer microbenches — the "M" rows of the ledger.

Each bench imports one layer plus what it strictly needs, calls public
functions only, warms up before timing, consumes results inside the
timed region and reports the median of five samples with the number of
calls behind it.  None of them needs a cluster, so they read the same on
every workload: they say what one call into a layer costs on this host,
the traced run says how many such calls a transaction makes.

``run_all()`` returns ``{metric: {"value", "unit", "samples", "calls"}}``.
"""

from __future__ import annotations

import asyncio
import os
import random
import socket
import statistics
import tempfile
import time
import typing

SAMPLES = 5
#: Wall time one sample aims for; a bench costs about six times this.
SAMPLE_S = 0.02

_clock = time.perf_counter

Result = typing.Dict[str, typing.Any]


def _measure(batch: typing.Callable[[], typing.Any], ops: int,
             scale: float = 1e6, sample_s: float = SAMPLE_S) -> Result:
    """Median-of-five cost of one operation of ``batch`` (which performs
    ``ops`` of them and returns something derived from their results)."""
    batch()
    started = _clock()
    batch()
    once = _clock() - started
    reps = max(1, int(sample_s / max(once, 1e-9)))
    values = []
    for _ in range(SAMPLES):
        started = _clock()
        for _ in range(reps):
            batch()
        values.append((_clock() - started) / (reps * ops))
    return {"value": statistics.median(values) * scale,
            "samples": SAMPLES, "calls": SAMPLES * reps * ops}


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------

def _sim_benches() -> typing.Dict[str, Result]:
    from repro.sim.environment import Environment
    from repro.sim.resources import Resource

    def events() -> int:
        env = Environment()

        def ticker():
            for _ in range(1000):
                yield env.timeout(0.001)
        env.process(ticker())
        env.run()
        return env.events_processed

    def use(duration: float, workers: int) -> typing.Callable[[], int]:
        def batch() -> int:
            env = Environment()
            cpu = Resource(env, capacity=1)

            def worker():
                for _ in range(400 // workers):
                    yield from cpu.use(duration, quantum=0.001)
            for _ in range(workers):
                env.process(worker())
            env.run()
            return env.events_processed
        return batch

    return {
        "sim.event_us": dict(_measure(events, 1000), unit="us"),
        "sim.resource_use_zero_us": dict(
            _measure(use(0.0, 1), 400), unit="us"),
        "sim.resource_use_us": dict(
            _measure(use(0.002, 4), 400), unit="us"),
    }


# ----------------------------------------------------------------------
# storage
# ----------------------------------------------------------------------

def _storage_benches() -> typing.Dict[str, Result]:
    from repro.sim.environment import Environment
    from repro.storage.engine import StorageEngine
    from repro.storage.locks import LockMode
    from repro.types import GlobalTransactionId

    def transactions() -> int:
        env = Environment()
        engine = StorageEngine(env, 0, lock_timeout=0.05)
        for item in range(32):
            engine.create_item(item)

        def client():
            for seq in range(100):
                txn = engine.begin(GlobalTransactionId(0, seq + 1))
                for item in range(7):
                    yield from engine.read(txn, (seq + item) % 32)
                for item in range(3):
                    yield from engine.write(txn, (seq + 7 + item) % 32,
                                            seq)
                engine.commit(txn)
        env.process(client())
        env.run()
        return len(engine.history)

    def locks() -> int:
        env = Environment()
        engine = StorageEngine(env, 0, lock_timeout=0.05)
        for item in range(32):
            engine.create_item(item)
        granted = 0
        for seq in range(40):
            txn = engine.begin(GlobalTransactionId(0, seq + 1))
            for item in range(10):
                granted += engine.locks.acquire(
                    txn, item, LockMode.SHARED).triggered
            engine.locks.release_all(txn)
        return granted

    return {
        "storage.txn_us": dict(_measure(transactions, 100), unit="us"),
        "storage.lock_acquire_us": dict(_measure(locks, 400), unit="us"),
    }


# ----------------------------------------------------------------------
# core (kernel + engine + protocol, no I/O) and workload
# ----------------------------------------------------------------------

def _core_benches() -> typing.Dict[str, Result]:
    from repro.harness.runner import ExperimentConfig, run_experiment
    from repro.workload.params import WorkloadParams

    # Kernel + engine + DAG(WT) on the live topology, no sockets and no
    # disk.  Every simulated cost is 10 us — one scheduling slice per
    # step, the shape of the live path — not 0: with all-zero costs the
    # simulator dies on an unhandled LockTimeout (README, defects).  One
    # client per site, because a live transaction runs to its commit in
    # one kernel drive and so rarely overlaps another at its own site.
    params = WorkloadParams(
        n_sites=3, n_items=32, replication_probability=0.8,
        backedge_probability=0.0, read_txn_probability=0.1,
        threads_per_site=1, transactions_per_thread=100,
        network_latency=1e-5, deadlock_timeout=0.05)
    free = {name: 1e-5 for name in (
        "cpu_txn_setup", "cpu_per_op", "cpu_commit", "cpu_message",
        "cpu_apply_write", "cpu_remote_read")}
    def experiment() -> int:
        return run_experiment(ExperimentConfig(
            protocol="dag_wt", params=params, seed=27,
            cost_overrides=free, check_serializability=False)).committed

    committed = experiment()  # the same on every repetition of seed 27
    return {"core.noio_txn_us": dict(
        _measure(experiment, committed, sample_s=0.0), unit="us")}


def _workload_benches() -> typing.Dict[str, Result]:
    from repro.cluster.spec import ClusterSpec
    from repro.workload.generator import TransactionGenerator
    from repro.workload.params import WorkloadParams

    params = WorkloadParams(n_sites=3, n_items=32,
                            replication_probability=0.8,
                            backedge_probability=0.0,
                            read_txn_probability=0.1)
    generator = TransactionGenerator(
        params, ClusterSpec(params=params, seed=27).build_placement(),
        random.Random(1))
    rng = random.Random(2)

    def generate() -> int:
        return sum(len(generator.make_transaction(index % 3, rng)
                       .operations) for index in range(200))

    return {"workload.gen_us_per_txn": dict(_measure(generate, 200),
                                            unit="us")}


# ----------------------------------------------------------------------
# graph
# ----------------------------------------------------------------------

def _graph_benches() -> typing.Dict[str, Result]:
    from repro.graph.copygraph import CopyGraph
    from repro.graph.tree import (
        PropagationTree,
        build_propagation_tree,
        chain_tree,
    )
    from repro.workload.distribution import generate_placement
    from repro.workload.params import WorkloadParams

    def chain(n_sites: int) -> PropagationTree:
        # The paper's implemented tree, and the worst case: the subtree
        # of site i is every later site.
        return chain_tree(list(range(n_sites)))

    def subtree(n_sites: int) -> Result:
        tree = chain(n_sites)

        def batch() -> int:
            return sum(len(tree.subtree(site))
                       for site in range(n_sites))
        return dict(_measure(batch, n_sites), unit="us")

    tree_200 = chain(200)
    rng = random.Random(7)
    pairs = [(rng.randrange(200), site) for site in range(200)]

    def ancestors() -> int:
        return sum(tree_200.is_ancestor(ancestor, site)
                   for ancestor, site in pairs)

    graph = CopyGraph.from_placement(generate_placement(
        WorkloadParams(n_sites=200, n_items=2000,
                       backedge_probability=0.0),
        random.Random(200)))

    def build() -> int:
        return len(build_propagation_tree(graph).parent)

    return {
        "graph.subtree_us_9": subtree(9),
        "graph.subtree_us_200": subtree(200),
        "graph.is_ancestor_us_200": dict(_measure(ancestors, 200),
                                         unit="us"),
        "graph.build_tree_ms_200": dict(_measure(build, 1, scale=1e3),
                                        unit="ms"),
    }


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------

def _codec_benches() -> typing.Dict[str, Result]:
    from repro.cluster.codec import (
        WireCodec,
        decode_batch_frame,
        encode_batch_frame,
    )
    from repro.cluster.spec import ClusterSpec
    from repro.network.message import Message, MessageType
    from repro.types import GlobalTransactionId

    wire = ClusterSpec().wire_format  # what a default `serve` speaks
    entries = []
    for seq in range(64):
        gid = GlobalTransactionId(seq % 3, 1000 + seq)
        entries.append((seq + 1, Message(
            MessageType.SECONDARY, 0, 1,
            {"gid": gid, "epoch": 0,
             "writes": {(seq + step) % 32: "{}#{}".format(gid, step)
                        for step in range(3)}})))
    encoder, decoder = WireCodec(wire), WireCodec(wire)
    frame = encoder.encode_frame(encode_batch_frame("inc", entries))

    def encode() -> int:
        return len(encoder.encode_frame(
            encode_batch_frame("inc", entries)))

    def decode() -> int:
        return len(decode_batch_frame(decoder.decode_body(frame[4:]))[1])

    request = {"kind": "req", "rid": 7, "op": "txn", "spec": {
        "gid": [1, 42], "origin": 1,
        "ops": [["r" if step < 7 else "w", (step * 5) % 32]
                for step in range(10)]}}
    client, server = WireCodec(wire), WireCodec(wire)

    def txn_request() -> int:
        total = 0
        for rid in range(50):
            request["rid"] = rid
            body = client.encode_frame(request)
            total += len(server.decode_body(body[4:])["spec"]["ops"])
        return total

    return {
        "codec.enc_us_per_msg": dict(_measure(encode, 64), unit="us"),
        "codec.dec_us_per_msg": dict(_measure(decode, 64), unit="us"),
        "codec.bytes_per_msg": {"value": len(frame) / 64.0, "unit": "B",
                                "samples": 1, "calls": 1},
        "codec.txn_req_us": dict(_measure(txn_request, 50), unit="us"),
    }


# ----------------------------------------------------------------------
# transport (framing over a loopback socketpair)
# ----------------------------------------------------------------------

def _transport_benches() -> typing.Dict[str, Result]:
    from repro.cluster.codec import read_frame, write_frame

    async def roundtrips(count: int) -> typing.List[float]:
        left, right = socket.socketpair()
        reader_a, writer_a = await asyncio.open_connection(sock=left)
        reader_b, writer_b = await asyncio.open_connection(sock=right)

        async def echo() -> None:
            while True:
                frame = await read_frame(reader_b)
                if frame is None:
                    return
                await write_frame(writer_b, frame)
        echo_task = asyncio.ensure_future(echo())
        values = []
        try:
            for sample in range(SAMPLES + 1):
                started = _clock()
                acked = 0
                for seq in range(count):
                    await write_frame(writer_a,
                                      {"kind": "ack", "seq": seq})
                    acked += (await read_frame(reader_a))["seq"] == seq
                if sample:  # sample 0 is the warm-up
                    values.append((_clock() - started) / acked)
        finally:
            writer_a.close()
            await echo_task
            writer_b.close()
        return values

    count = 200
    values = asyncio.run(roundtrips(count))
    return {"transport.frame_roundtrip_us": {
        "value": statistics.median(values) * 1e6, "unit": "us",
        "samples": SAMPLES, "calls": SAMPLES * count}}


# ----------------------------------------------------------------------
# wal
# ----------------------------------------------------------------------

def _wal_benches(work_dir: str) -> typing.Dict[str, Result]:
    from repro.cluster.wal import FileWal
    from repro.storage.log import LogRecordKind
    from repro.types import GlobalTransactionId

    gid = GlobalTransactionId(0, 1)
    results: typing.Dict[str, Result] = {}
    with tempfile.TemporaryDirectory(dir=work_dir) as scratch:
        def wal(name: str, durability: str) -> FileWal:
            return FileWal(os.path.join(scratch, name),
                           durability=durability, group_commit=True)

        log = wal("append.wal", "none")

        def append() -> int:
            for step in range(200):
                log.append(LogRecordKind.WRITE, gid=gid, item=step % 32,
                           value="T0.1#3", time=1.0)
            return log.sync()
        results["wal.append_us"] = dict(_measure(append, 200), unit="us")
        log.close()

        def synced(log: FileWal, records: int, syncs: int
                   ) -> typing.Callable[[], int]:
            def batch() -> int:
                written = 0
                for _ in range(syncs):
                    for step in range(records):
                        log.append(LogRecordKind.WRITE, gid=gid,
                                   item=step % 32, value="T0.1#3",
                                   time=1.0)
                    written += log.sync()
                return written
            return batch

        for durability in ("none", "flush", "fsync"):
            log = wal("sync-{}.wal".format(durability), durability)
            results["wal.sync_us." + durability] = dict(
                _measure(synced(log, 1, 8), 8), unit="us")
            log.close()
        log = wal("group.wal", "fsync")
        results["wal.group64_us_per_record.fsync"] = dict(
            _measure(synced(log, 64, 4), 256), unit="us")
        log.close()
    return results


# ----------------------------------------------------------------------
# obs
# ----------------------------------------------------------------------

def _obs_benches() -> typing.Dict[str, Result]:
    from repro.obs.registry import Histogram
    from repro.obs.trace import TraceSink
    from repro.types import GlobalTransactionId

    sink = TraceSink(0)
    gid = GlobalTransactionId(0, 1)

    def emit() -> int:
        for step in range(500):
            sink.emit("committed", gid=gid, now=float(step))
        return len(sink)

    histogram = Histogram("ledger.bench_s")

    def observe() -> int:
        for step in range(500):
            histogram.observe(step * 1e-5)
        return histogram.count

    return {
        "obs.emit_us": dict(_measure(emit, 500), unit="us"),
        "obs.observe_us": dict(_measure(observe, 500), unit="us"),
    }


def run_all(work_dir: str) -> typing.Dict[str, Result]:
    """Every microbench; ``work_dir`` holds the WAL scratch files."""
    results: typing.Dict[str, Result] = {}
    for bench in (_sim_benches, _storage_benches, _core_benches,
                  _workload_benches, _graph_benches, _codec_benches,
                  _transport_benches, _obs_benches):
        results.update(bench())
    results.update(_wal_benches(work_dir))
    return results
