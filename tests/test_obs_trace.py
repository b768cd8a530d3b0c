"""Tests for trace-id derivation, span sinks, the shared span observer,
and propagation-tree reconstruction (:mod:`repro.obs.trace` /
:mod:`repro.obs.reconstruct`).

No sockets: reconstruction is checked on synthetic spans and against
the simulator's exact bookkeeping, and the receiver's derived ids on an
in-process server fed through a stream reader.  The live end-to-end
invariants (ids surviving restart and re-forward on real sockets) are
covered in ``test_live_cluster.py``.
"""

import asyncio
import json
import os

import pytest

from repro.cluster.codec import (
    decode_message,
    encode_batch_frame,
    encode_message,
)
from repro.cluster.server import SiteServer
from repro.harness.metrics import MetricsCollector
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.network.message import Message, MessageType
from repro.obs.reconstruct import (
    format_tree,
    propagation_summary,
    reconstruct,
)
from repro.obs.trace import (
    SpanObserver,
    TraceSink,
    load_trace_file,
    message_trace_id,
    trace_id,
)
from repro.types import GlobalTransactionId
from repro.workload.params import WorkloadParams
from tests.test_live_cluster import RecordingWriter, feed, make_spec


def gid(site, seq):
    return GlobalTransactionId(site, seq)


# ----------------------------------------------------------------------
# Trace ids
# ----------------------------------------------------------------------

def test_trace_id_roundtrip_and_determinism():
    assert trace_id(gid(2, 7)) == "t2.7"
    # Same gid -> same id, always; no state involved.
    assert trace_id(gid(2, 7)) == trace_id(gid(2, 7))
    # The receiver derives the sender's id from the decoded payload.
    secondary = Message(MessageType.SECONDARY, src=2, dst=1,
                        payload={"gid": gid(2, 7), "writes": {}})
    assert message_trace_id(decode_message(encode_message(secondary))) \
        == trace_id(gid(2, 7))


def test_message_trace_ids_gid_payloads():
    secondary = Message(MessageType.SECONDARY, src=0, dst=1,
                        payload={"gid": gid(0, 3), "writes": {}})
    assert message_trace_id(secondary) == "t0.3"


def test_message_trace_ids_control_traffic_is_untraced():
    request = Message(MessageType.DUMMY, src=1, dst=0, payload={})
    assert message_trace_id(request) is None


def test_wire_carries_no_trace_and_the_receiver_derives_it(tmp_path):
    """Nothing rides beside the payload: a batch frame's message
    objects carry no ``"trace"`` key.  The receiver's ``received`` and
    ``journaled`` spans, and after a restart the journal's ``replayed``
    spans, still carry the id derived from the payload's gid."""
    spec = make_spec("dag_wt", 3)  # the chain s0 -> s1 -> s2
    placement = spec.build_placement()
    item = next(item for item in sorted(placement.items)
                if placement.primary_site(item) == 0
                and 1 in placement.replica_sites(item))
    frame = encode_batch_frame("inc-a", [
        (seq, Message(MessageType.SECONDARY, src=0, dst=1, payload={
            "gid": gid(0, seq), "writes": {item: 100 + seq},
            "epoch": spec.epoch}))
        for seq in (1, 2)])
    assert len(frame["msgs"]) == 2
    assert all("trace" not in entry["msg"] for entry in frame["msgs"])
    # An object stamped by an older sender (or journal) still decodes.
    stamped = dict(frame["msgs"][0]["msg"], trace="t0.1")
    assert decode_message(stamped).payload["gid"] == gid(0, 1)
    wal_path = os.path.join(str(tmp_path), "site1.wal")

    async def scenario():
        server = SiteServer(spec, 1, wal_path=wal_path)
        await server.start()
        reader = asyncio.StreamReader()
        feed(reader, frame)
        reader.feed_eof()
        await asyncio.wait_for(
            server._peer_loop(reader, RecordingWriter(), 0), 10.0)
        live = server.trace.spans()
        server.kill()
        restarted = SiteServer(spec, 1, wal_path=wal_path)
        await restarted.start()
        try:
            return live, restarted.trace.spans()
        finally:
            await restarted.stop()

    live, after_restart = asyncio.run(scenario())

    def traces(spans, event):
        return sorted(span["trace"] for span in spans
                      if span["event"] == event)

    assert traces(live, "received") == ["t0.1", "t0.2"]
    assert traces(live, "journaled") == ["t0.1", "t0.2"]
    assert traces(after_restart, "replayed") == ["t0.1", "t0.2"]


# ----------------------------------------------------------------------
# TraceSink
# ----------------------------------------------------------------------

def test_sink_records_and_filters_spans():
    sink = TraceSink(site_id=1)
    sink.emit("received", gid=gid(0, 3), peer=0, type="secondary")
    sink.emit("applied", gid=gid(0, 3))
    sink.emit("received", trace="t2.9", peer=2)
    sink.emit("journaled", trace="t0.3")

    assert len(sink) == 4
    spans = sink.spans(trace="t0.3")
    assert [span["event"] for span in spans] == \
        ["received", "applied", "journaled"]
    assert spans[0]["gid"] == [0, 3]
    assert spans[0]["site"] == 1
    assert all("t" in span for span in spans)
    assert len(sink.spans(trace="t2.9")) == 1
    assert sink.spans(limit=2)[-1]["event"] == "journaled"


def test_sink_ring_keeps_tail_and_counts_dropped():
    sink = TraceSink(site_id=0, capacity=3)
    for seq in range(5):
        sink.emit("committed", gid=gid(0, seq))
    assert len(sink) == 3
    assert sink.dropped == 2
    assert [span["gid"][1] for span in sink.spans()] == [2, 3, 4]


def test_sink_jsonl_file_and_torn_tail(tmp_path):
    path = str(tmp_path / "site0.trace")
    sink = TraceSink(site_id=0, path=path)
    sink.emit("committed", gid=gid(0, 1), expected=[1, 2])
    sink.emit("forwarded", gid=gid(0, 1), peer=1)
    sink.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"t": 1.0, "site": 0, "ev')  # crashed writer

    spans = load_trace_file(path)
    assert [span["event"] for span in spans] == ["committed",
                                                 "forwarded"]
    assert spans[0]["expected"] == [1, 2]
    # every line that did load is valid JSON from the sink
    with open(path, "r", encoding="utf-8") as handle:
        assert json.loads(handle.readline())["trace"] == "t0.1"


# ----------------------------------------------------------------------
# Reconstruction
# ----------------------------------------------------------------------

def synthetic_spans():
    """t0.1 fully propagates to s1+s2 (s2 seen only applying); t0.2
    never reaches s2; t1.1 is read-only (no expected replicas)."""
    return [
        {"t": 1.01, "site": 0, "event": "committed", "trace": "t0.1",
         "expected": [1, 2]},
        {"t": 1.02, "site": 0, "event": "forwarded", "trace": "t0.1"},
        {"t": 1.03, "site": 1, "event": "received", "trace": "t0.1"},
        {"t": 1.04, "site": 1, "event": "journaled", "trace": "t0.1"},
        {"t": 1.05, "site": 1, "event": "applied", "trace": "t0.1"},
        # s2's receive spans fell off its ring; its apply survived.
        {"t": 1.50, "site": 2, "event": "applied", "trace": "t0.1"},
        {"t": 2.00, "site": 0, "event": "committed", "trace": "t0.2",
         "expected": [1, 2]},
        {"t": 2.02, "site": 1, "event": "received", "trace": "t0.2"},
        {"t": 2.03, "site": 1, "event": "applied", "trace": "t0.2"},
        {"t": 3.00, "site": 1, "event": "committed", "trace": "t1.1",
         "expected": []},
    ]


def test_reconstruct_builds_complete_and_incomplete_trees():
    trees = reconstruct(synthetic_spans())
    assert sorted(trees) == ["t0.1", "t0.2", "t1.1"]

    done = trees["t0.1"]
    assert done.origin == 0
    assert done.expected == [1, 2]
    assert done.applied_sites == [1, 2]
    assert done.complete
    assert done.delay == 1.50 - 1.01  # last expected apply wins
    assert done.applied_at(1) - done.committed_t == 1.05 - 1.01
    assert done.hops[1]["received"] == 1.03

    partial = trees["t0.2"]
    assert not partial.complete
    assert partial.delay is None
    assert partial.applied_sites == [1]

    readonly = trees["t1.1"]
    assert readonly.expected == []
    assert not readonly.complete


def test_reconstruct_keeps_first_commit_and_earliest_hop():
    """A re-forward after a crash can duplicate received/applied spans
    and never re-emits the commit; the tree keeps the first commit and
    the earliest per-site hop mark."""
    spans = [
        {"t": 1.0, "site": 0, "event": "committed", "trace": "t0.9",
         "expected": [1]},
        {"t": 1.2, "site": 1, "event": "received", "trace": "t0.9"},
        {"t": 1.3, "site": 1, "event": "applied", "trace": "t0.9"},
        # duplicate delivery after a sender restart
        {"t": 5.0, "site": 1, "event": "received", "trace": "t0.9"},
        {"t": 6.0, "site": 0, "event": "committed", "trace": "t0.9",
         "expected": [1, 2]},
    ]
    tree = reconstruct(spans)["t0.9"]
    assert tree.committed_t == 1.0
    assert tree.expected == [1]
    assert tree.hops[1]["received"] == 1.2
    assert tree.delay == 1.3 - 1.0


def test_propagation_summary_counts_and_percentiles():
    summary = propagation_summary(reconstruct(synthetic_spans()))
    assert summary["count"] == 3
    assert summary["propagating"] == 2  # t1.1 has no fan-out
    assert summary["complete"] == 1
    assert summary["p50"] == summary["max"] == 1.50 - 1.01
    empty = propagation_summary({})
    assert empty["count"] == 0 and empty["p95"] == 0.0


def test_format_tree_renders_hops_and_verdict():
    trees = reconstruct(synthetic_spans())
    text = format_tree(trees["t0.1"])
    assert "t0.1" in text and "origin s0" in text
    assert "expects s1,s2" in text
    assert "s1: received" in text and "applied" in text
    assert "complete, propagation delay" in text

    text = format_tree(trees["t0.2"])
    assert "incomplete (missing s2)" in text

    headless = reconstruct([{"t": 1.0, "site": 1, "event": "received",
                             "trace": "t9.9"}])["t9.9"]
    assert "origin commit not captured" in format_tree(headless)


# ----------------------------------------------------------------------
# The shared observer against the simulator's bookkeeping
# ----------------------------------------------------------------------

class CommitLedger:
    """Ground truth: every committed primary with expected replicas."""

    def __init__(self):
        self.expected = {}

    def on_primary_commit(self, gid, site, time, expected_replicas):
        if expected_replicas:
            self.expected[trace_id(gid)] = sorted(expected_replicas)


@pytest.mark.parametrize("protocol", ["dag_wt", "backedge"])
def test_span_observer_trees_match_the_simulator(protocol):
    """Spans from :class:`SpanObserver` on one sink, fed to
    :func:`reconstruct`, rebuild exactly what the simulator counted:
    a tree per committed primary with replicas, complete for all but
    :meth:`MetricsCollector.unpropagated_count` of them, each complete
    tree applied at exactly its expected replicas."""
    params = WorkloadParams(n_sites=4, n_items=40,
                            threads_per_site=2,
                            transactions_per_thread=10,
                            read_txn_probability=0.2,
                            backedge_probability=0.0
                            if protocol == "dag_wt" else 0.5)
    sink = TraceSink(site_id=0)
    ledger = CommitLedger()
    metrics = MetricsCollector(params.n_sites)
    # No drain: the run stops with the tail of its propagation still in
    # flight (under BackEdge here, one transaction).
    run_experiment(ExperimentConfig(
        protocol=protocol, params=params, seed=2, drain_time=0.0,
        extra_observers=[SpanObserver(sink), ledger, metrics]))
    assert sink.dropped == 0

    trees = reconstruct(sink.spans())
    assert ledger.expected
    for tid, expected in ledger.expected.items():
        assert trees[tid].expected == expected
    complete = [tree for tree in trees.values() if tree.complete]
    assert len(complete) == \
        len(ledger.expected) - metrics.unpropagated_count()
    for tree in complete:
        assert tree.applied_sites == tree.expected
