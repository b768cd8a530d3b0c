"""Critical-path latency attribution and the observability pieces
riding with it (:mod:`repro.obs.reconstruct` attribution, the trace
sink's shutdown flush, the dashboard stage column).

All synthetic — no sockets.
"""

import os
import time

import pytest

from repro.obs.dashboard import Dashboard, top_stage
from repro.obs.reconstruct import (
    HOP_COMPONENTS,
    attribute_tree,
    attribution_summary,
    format_attributed_path,
    format_attribution,
    hop_attributions,
    reconstruct,
)
from repro.obs.trace import TraceSink, load_trace_file
from tests.test_obs_monitor import StubClient, make_spec


def attributed_spans():
    """t0.1 propagates s0 -> s1 -> s2 with full span detail: s0
    commits at 1.00 and forwards at 1.04 (0.01 s of that on the WAL
    barrier); s1 receives 1.06, applies 1.09, relays at 1.10; s2
    receives 1.12, applies 1.15."""
    return [
        {"t": 1.00, "site": 0, "event": "committed", "trace": "t0.1",
         "expected": [1, 2]},
        {"t": 1.04, "site": 0, "event": "forwarded", "trace": "t0.1",
         "peer": 1, "wal": 0.01},
        {"t": 1.06, "site": 1, "event": "received", "trace": "t0.1"},
        {"t": 1.09, "site": 1, "event": "applied", "trace": "t0.1"},
        {"t": 1.10, "site": 1, "event": "forwarded", "trace": "t0.1",
         "peer": 2, "wal": 0.0},
        {"t": 1.12, "site": 2, "event": "received", "trace": "t0.1"},
        {"t": 1.15, "site": 2, "event": "applied", "trace": "t0.1"},
    ]


# ----------------------------------------------------------------------
# Hop attribution
# ----------------------------------------------------------------------

def test_hop_components_partition_the_hop_delay():
    tree = reconstruct(attributed_spans())["t0.1"]
    hops = hop_attributions(tree)
    assert sorted(hops) == [1, 2]

    direct = hops[1]
    assert direct["src"] == 0
    assert direct["anchor"] == 1.00
    assert direct["total"] == pytest.approx(0.09)
    assert direct["components"]["wal"] == pytest.approx(0.01)
    assert direct["components"]["queue"] == pytest.approx(0.03)
    assert direct["components"]["wire"] == pytest.approx(0.02)
    assert direct["components"]["apply"] == pytest.approx(0.03)
    assert direct["unattributed"] == pytest.approx(0.0)

    # The relay hop anchors at its forwarder's apply, so the chain
    # telescopes instead of double-counting the upstream delay.
    relay = hops[2]
    assert relay["src"] == 1
    assert relay["anchor"] == pytest.approx(1.09)
    assert relay["total"] == pytest.approx(0.06)
    assert relay["components"]["queue"] == pytest.approx(0.01)
    assert relay["components"]["wire"] == pytest.approx(0.02)
    assert relay["components"]["apply"] == pytest.approx(0.03)

    for hop in hops.values():
        assert sum(hop["components"].values()) + hop["unattributed"] \
            == pytest.approx(hop["total"])


def test_hop_attribution_degrades_without_forward_span():
    """A sender whose ``forwarded`` span is lost: the receiver
    side stays measurable, the rest banks in ``unattributed``."""
    spans = [
        {"t": 1.0, "site": 0, "event": "committed", "trace": "t0.2",
         "expected": [1]},
        {"t": 1.4, "site": 1, "event": "received", "trace": "t0.2"},
        {"t": 1.5, "site": 1, "event": "applied", "trace": "t0.2"},
    ]
    hop = hop_attributions(reconstruct(spans)["t0.2"])[1]
    assert hop["src"] is None
    assert hop["components"]["apply"] == pytest.approx(0.1)
    assert hop["components"]["wire"] == 0.0
    assert hop["unattributed"] == pytest.approx(0.4)


def test_hop_attribution_without_commit_is_empty():
    spans = [{"t": 1.0, "site": 1, "event": "received",
              "trace": "t9.9"}]
    tree = reconstruct(spans)["t9.9"]
    assert hop_attributions(tree) == {}
    assert attribute_tree(tree) is None


# ----------------------------------------------------------------------
# Critical path
# ----------------------------------------------------------------------

def test_critical_path_telescopes_to_end_to_end_delay():
    tree = reconstruct(attributed_spans())["t0.1"]
    attributed = attribute_tree(tree)
    assert attributed is not None
    assert attributed["complete"]
    assert attributed["target"] == 2
    assert attributed["path"] == [0, 1, 2]
    assert attributed["total"] == pytest.approx(0.15)
    # The acceptance criterion, exact by construction: chain
    # components + unattributed reproduce the end-to-end delay.
    assert sum(attributed["components"].values()) + \
        attributed["unattributed"] == pytest.approx(attributed["total"])
    assert attributed["unattributed"] == pytest.approx(0.0)
    assert attributed["components"]["wire"] == pytest.approx(0.04)

    line = format_attributed_path(attributed)
    assert "t0.1" in line and "s0→s1→s2" in line
    assert "wire" in line and "150.00ms" in line


def test_attribution_summary_coverage_and_format():
    spans = attributed_spans() + [
        # A second tree without its forward span: only apply measured.
        {"t": 5.0, "site": 0, "event": "committed", "trace": "t0.4",
         "expected": [1]},
        {"t": 5.8, "site": 1, "event": "received", "trace": "t0.4"},
        {"t": 6.0, "site": 1, "event": "applied", "trace": "t0.4"},
    ]
    summary = attribution_summary(reconstruct(spans), top=2)
    assert summary["hops"] == 3
    assert summary["attributed_hops"] == 2  # t0.4's hop is 80% dark
    assert summary["total_s"] == pytest.approx(0.09 + 0.06 + 1.0)
    assert summary["unattributed_s"] == pytest.approx(0.8)
    assert 0.0 < summary["coverage"] < 1.0
    assert set(summary["components"]) == set(HOP_COMPONENTS)
    shares = sum(component["share"]
                 for component in summary["components"].values())
    assert shares + summary["unattributed_s"] / summary["total_s"] \
        == pytest.approx(1.0)
    assert [entry["trace"] for entry in summary["top"]] == \
        ["t0.4", "t0.1"]

    text = format_attribution(summary)
    assert "latency attribution: 3 hops" in text
    for name in HOP_COMPONENTS:
        assert name in text
    assert "(other)" in text
    assert "t0.1" in text and "t0.4" in text

    empty = attribution_summary({})
    assert empty["hops"] == 0 and empty["coverage"] == 1.0
    assert "0 hops" in format_attribution(empty)


def test_attribution_survives_torn_files_and_mixed_members(tmp_path):
    """Satellite (c): span files from a crashed writer plus members
    whose spans are missing reconstruct into *partial* attribution,
    never an error."""
    path = str(tmp_path / "site0.trace")
    sink = TraceSink(site_id=0, path=path, flush_every=1)
    for span in attributed_spans():
        if span["site"] == 0:
            sink.emit(span["event"], trace=span["trace"],
                      expected=span.get("expected"),
                      peer=span.get("peer"), wal=span.get("wal"))
    sink.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"t": 9.0, "site": 0, "ev')  # torn tail

    spans = load_trace_file(path)
    # The receiver sites' span files are lost: only a late apply is
    # visible.
    spans.append({"t": time.time() + 5.0, "site": 2,
                  "event": "applied", "trace": "t0.1"})
    summary = attribution_summary(reconstruct(spans))
    assert summary["hops"] == 1
    assert summary["attributed_hops"] == 0
    assert summary["coverage"] == pytest.approx(0.0)
    assert format_attribution(summary)  # renders without detail


# ----------------------------------------------------------------------
# TraceSink shutdown (satellite a)
# ----------------------------------------------------------------------

def test_sink_close_flushes_pending_below_flush_every(tmp_path):
    """Regression: spans queued below ``flush_every`` must not be lost
    when the server shuts down, and teardown stragglers emitted after
    ``close()`` write straight through."""
    path = str(tmp_path / "late.trace")
    sink = TraceSink(site_id=0, path=path, flush_every=1000)
    sink.emit("committed", trace="t0.1", expected=[1])
    sink.emit("forwarded", trace="t0.1", peer=1)
    # Deferred serialization: nothing on disk before the close.
    assert not os.path.exists(path)
    sink.close()
    assert [span["event"] for span in load_trace_file(path)] == \
        ["committed", "forwarded"]

    # An in-flight apply task emits after close (teardown stops the
    # transport first): the span lands in the file immediately.
    sink.emit("applied", trace="t0.1")
    assert [span["event"] for span in load_trace_file(path)] == \
        ["committed", "forwarded", "applied"]


# ----------------------------------------------------------------------
# Dashboard stage column (satellite b)
# ----------------------------------------------------------------------

def test_top_stage_picks_dominant_p95_share():
    histograms = {
        "server.apply_s": {"count": 10, "p95": 0.06},
        "server.write_s": {"count": 10, "p95": 0.02},
        # Unrecorded instruments never vote.
        "server.read_wait_s": {"count": 0, "p95": 0.5},
        "wal.barrier_wait_s": {"count": 4, "p95": 0.0},
    }
    stage = top_stage(histograms)
    assert stage == ("apply", pytest.approx(0.75))
    assert top_stage({}) is None
    assert top_stage({"server.drive_s": {"count": 0}}) is None


def test_dashboard_render_shows_stage_breakdown():
    dashboard = Dashboard(make_spec(), client=StubClient())

    def row(site, stage):
        return {"site": site, "up": True, "commit_rate": 1.0,
                "abort_rate": 0.0, "queue": 0, "queue_hwm": 0,
                "lag": 0, "drive_p95_s": None, "wal_p95_s": None,
                "top_stage": stage}

    model = {"t": time.time(), "elapsed": 1.0, "down": [],
             "total_commit_rate": 1.0,
             "propagation": None, "alerts": [],
             "rows": [row(0, ("apply", 0.62)), row(1, None)]}
    text = dashboard.render(model)
    header = next(line for line in text.splitlines()
                  if line.startswith("site"))
    assert "stage" in header
    assert "apply 62%" in text
    # A member with no stage samples renders a dash, not a crash.
    assert any("-" in line for line in text.splitlines()
               if line.startswith("s1"))
