"""Flight recorder: bounded rings, atomic bundle IO, schema
validation, and the ``dump`` wire op on a live cluster.

The unit tests drive :class:`~repro.obs.flight.FlightRecorder`
directly — ring bounds, the metrics snapshot, damaged bundles.  The
live tests boot a real 3-site cluster and prove
the acceptance property: a dump taken *under load* runs off the event
loop, so every transaction still gets its ack and the convergence /
serializability oracles stay green while bundles land on disk.
"""

import asyncio
import os
import re

from repro.cluster.client import ClusterClient
from repro.cluster.loadgen import generate_load
from repro.cluster.server import SiteServer
from repro.cluster.spec import ClusterSpec
from repro.obs.flight import (
    BUNDLE_VERSION,
    FlightRecorder,
    bundle_paths,
    load_bundle,
    repo_git_sha,
    validate_bundle,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceSink
from repro.workload.params import WorkloadParams
from tests.helpers import free_base_port

PARAMS = WorkloadParams(n_sites=3, n_items=12,
                        replication_probability=0.8,
                        threads_per_site=2, transactions_per_thread=6,
                        read_txn_probability=0.3,
                        deadlock_timeout=0.05)


def make_spec():
    return ClusterSpec(params=PARAMS, protocol="dag_wt", seed=3,
                       base_port=free_base_port(PARAMS.n_sites))


# ----------------------------------------------------------------------
# Rings and the metrics snapshot
# ----------------------------------------------------------------------

def test_event_ring_keeps_only_the_recent_past():
    recorder = FlightRecorder(0, max_events=8)
    for index in range(20):
        recorder.record_event("tick", n=index)
    manifest, records = recorder.gather("test")
    events = [record for record in records
              if record["type"] == "event"]
    assert len(events) == 8
    assert [event["n"] for event in events] == list(range(12, 20))
    assert manifest["counts"]["event"] == 8
    assert all("t" in event and "mono" in event for event in events)


def test_bundle_metrics_record_is_the_registry_at_dump_time():
    """The one metrics record is the registry's snapshot when the dump
    gathers."""
    metrics = MetricsRegistry()
    counter = metrics.counter("txn.committed")
    metrics.gauge("server.apply_queue").set(7)
    recorder = FlightRecorder(1, metrics=metrics)
    counter.inc(5)
    _, records = recorder.gather("test")
    counter.inc(3)
    manifest, later = recorder.gather("test")
    (first,) = [r for r in records if r["type"] == "metrics"]
    (second,) = [r for r in later if r["type"] == "metrics"]
    assert first["snapshot"]["counters"]["txn.committed"] == 5
    assert first["snapshot"]["gauges"]["server.apply_queue"]["value"] == 7
    assert second["snapshot"]["counters"]["txn.committed"] == 8
    assert set(manifest["counts"]) == {"metrics"}


def test_bundle_has_no_metrics_record_without_registry():
    manifest, records = FlightRecorder(0).gather("test")
    assert records == []
    assert "metrics" not in manifest["counts"]


# ----------------------------------------------------------------------
# Bundle IO
# ----------------------------------------------------------------------

def test_dump_writes_valid_bundle_atomically(tmp_path):
    trace = TraceSink(0, capacity=64)
    for index in range(5):
        trace.emit("applied", trace="t0.{}".format(index), peer=1)
    metrics = MetricsRegistry()
    metrics.counter("txn.committed").inc(5)
    metrics.histogram("server.apply_s").observe(0.001)
    recorder = FlightRecorder(
        0, trace=trace, metrics=metrics, epoch=lambda: 2,
        cluster={"n_sites": 3, "protocol": "dag_wt"})
    recorder.add_source("watermarks", lambda: {"3": 4})
    recorder.record_event("server-start", epoch=2)

    path = recorder.dump("unit-test", out_dir=str(tmp_path))
    assert os.path.basename(path) == "flight-s0-001.jsonl"
    assert validate_bundle(path) == []
    assert list(tmp_path.glob("*.tmp")) == []  # atomic: no orphan
    manifest, records = load_bundle(path)
    assert manifest["version"] == BUNDLE_VERSION
    assert manifest["site"] == 0
    assert manifest["epoch"] == 2
    assert manifest["trigger"] == "unit-test"
    assert manifest["cluster"]["protocol"] == "dag_wt"
    assert sum(manifest["counts"].values()) == len(records)
    assert len([r for r in records if r["type"] == "span"]) == 5
    (snapshot,) = [r["snapshot"] for r in records
                   if r["type"] == "metrics"]
    assert snapshot["histograms"]["server.apply_s"]["count"] == 1
    states = {record["name"]: record for record in records
              if record["type"] == "state"}
    assert states["watermarks"]["state"] == {"3": 4}
    assert recorder.last_dump_path == path
    assert recorder.last_dump_records == len(records)

    # A second dump gets the next sequence; the first stays intact.
    path2 = recorder.dump("unit-test", out_dir=str(tmp_path))
    assert os.path.basename(path2) == "flight-s0-002.jsonl"
    assert bundle_paths(str(tmp_path)) == [path, path2]
    assert validate_bundle(path) == []


def test_raising_source_degrades_to_error_record(tmp_path):
    recorder = FlightRecorder(2)

    def broken():
        raise RuntimeError("disk gone")

    recorder.add_source("wal", broken)
    recorder.add_source("watermarks", lambda: {"0": 1})
    path = recorder.dump("unit-test", out_dir=str(tmp_path))
    assert validate_bundle(path) == []
    _, records = load_bundle(path)
    states = {record["name"]: record for record in records
              if record["type"] == "state"}
    assert states["wal"]["error"] == "RuntimeError: disk gone"
    assert "state" not in states["wal"]
    assert states["watermarks"]["state"] == {"0": 1}


def test_foreign_objects_degrade_to_repr(tmp_path):
    recorder = FlightRecorder(0)
    recorder.record_event("alert", payload=object())
    path = recorder.dump("unit-test", out_dir=str(tmp_path))
    assert validate_bundle(path) == []
    _, records = load_bundle(path)
    event = next(record for record in records
                 if record["type"] == "event")
    assert event["payload"].startswith("<object object")


def test_truncated_bundle_loads_but_fails_check(tmp_path):
    recorder = FlightRecorder(0)
    for index in range(3):
        recorder.record_event("tick", n=index)
    path = recorder.dump("unit-test", out_dir=str(tmp_path))
    torn_path = str(tmp_path / "flight-s0-900.jsonl")
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    with open(torn_path, "w", encoding="utf-8") as handle:
        handle.write(text[:-15])  # tear the last record mid-line
    manifest, records = load_bundle(torn_path)
    assert manifest["site"] == 0
    assert len(records) == 2  # torn line skipped
    problems = validate_bundle(torn_path)
    assert any("counts" in problem for problem in problems)


def test_repo_git_sha_resolves_this_checkout(tmp_path):
    assert re.fullmatch(r"[0-9a-f]{12}", repo_git_sha())
    assert repo_git_sha(str(tmp_path)) == "unknown"


# ----------------------------------------------------------------------
# Live cluster: the dump wire op, and dumping under load
# ----------------------------------------------------------------------

async def start_cluster(spec, wal_dir):
    servers = {}
    for site in range(spec.params.n_sites):
        servers[site] = SiteServer(
            spec, site,
            wal_path=os.path.join(str(wal_dir), "site{}.wal".format(site)))
        await servers[site].start()
    client = ClusterClient(spec, timeout=2.0, retries=1)
    await client.wait_ready()
    return servers, client


def test_dump_wire_op_on_live_cluster(tmp_path):
    spec = make_spec()

    async def scenario():
        servers, client = await start_cluster(spec, tmp_path)
        try:
            report = await generate_load(spec, client, verify=True)
            single = await client.dump(0, trigger="wire-test",
                                       out_dir=str(tmp_path))
            fanned, unreachable = await client.try_each(
                "dump", trigger="wire-fan", dir=str(tmp_path))
            return report, single, fanned, unreachable
        finally:
            await client.close()
            for server in servers.values():
                await server.stop()

    report, single, fanned, unreachable = asyncio.run(scenario())
    assert report.convergent and report.serializable

    assert single["ok"] and single["site"] == 0
    manifest, records = load_bundle(single["path"])
    assert manifest["trigger"] == "wire-test"
    assert manifest["site"] == 0
    assert manifest["cluster"]["n_sites"] == 3
    assert single["records"] == len(records)
    assert any(record["type"] == "span"
               and record["event"] == "committed"
               for record in records)
    assert any(record["type"] == "event"
               and record["kind"] == "server-start"
               for record in records)
    states = {record["name"] for record in records
              if record["type"] == "state"}
    assert {"wal", "journal", "watermarks"} <= states

    # The fan-out reached every member; site 0's second dump got the
    # next sequence, and every bundle passes the schema check.
    assert unreachable == []
    assert sorted(fanned) == [0, 1, 2]
    paths = bundle_paths(str(tmp_path))
    assert len(paths) == 4
    for path in paths:
        assert validate_bundle(path) == [], path


def test_dump_under_load_drops_no_acks(tmp_path):
    """Dumps fired while the workload runs: gathering happens on the
    loop but the file write is in the executor, so every transaction
    still gets a decision and the oracles stay green."""
    spec = make_spec()

    async def scenario():
        servers, client = await start_cluster(spec, tmp_path)
        try:
            async def dumper():
                paths = []
                for _ in range(5):
                    responses, _ = await client.try_each(
                        "dump", trigger="under-load",
                        dir=str(tmp_path))
                    paths.extend(response["path"]
                                 for response in responses.values()
                                 if response.get("ok"))
                    await asyncio.sleep(0.05)
                return paths
            report, paths = await asyncio.gather(
                generate_load(spec, client, verify=True), dumper())
            return report, paths
        finally:
            await client.close()
            for server in servers.values():
                await server.stop()

    report, paths = asyncio.run(scenario())
    assert report.convergent and report.serializable
    assert report.committed > 0
    assert report.unknown == 0  # no ack was dropped by the dumps
    assert len(paths) == 15  # 5 rounds x 3 sites all answered
    for path in sorted(set(paths)):
        assert validate_bundle(path) == [], path
