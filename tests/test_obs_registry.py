"""Unit tests for the metrics registry (:mod:`repro.obs.registry`).

The registry underpins the live cluster's ``stats`` plane, so the
tests pin down its design constraints: exact counts under thread
concurrency, Prometheus-style ``le`` bucket semantics at the edges,
and a snapshot schema that ``repro stats --check`` can enforce.
"""

import threading

import pytest

from repro.obs.registry import (
    LATENCY_BUCKETS_S,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    snapshot_percentile,
    validate_snapshot,
)


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------

def test_counter_and_gauge_basics():
    counter = Counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5

    gauge = Gauge("g")
    gauge.set(3.0)
    gauge.set(7.5)
    gauge.set(2.0)
    assert gauge.value == 2.0
    assert gauge.high_water == 7.5


def test_histogram_bucket_edges_are_le_semantics():
    """A value exactly on an edge counts toward that edge's bucket;
    just above it falls into the next one; above the last edge lands in
    the overflow bucket."""
    hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
    hist.observe(1.0)      # == first edge -> bucket 0
    hist.observe(1.0001)   # just above -> bucket 1
    hist.observe(2.0)      # == second edge -> bucket 1
    hist.observe(4.0)      # == last edge -> bucket 2
    hist.observe(99.0)     # overflow
    assert hist.snapshot()["counts"] == [1, 2, 1, 1]
    assert hist.count == 5
    assert hist.sum == pytest.approx(1.0 + 1.0001 + 2.0 + 4.0 + 99.0)
    snap = hist.snapshot()
    assert snap["min"] == 1.0 and snap["max"] == 99.0


def test_histogram_percentile_is_bucket_upper_bound():
    hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
    for value in (0.5, 0.5, 1.5, 3.0):
        hist.observe(value)
    assert hist.percentile(50.0) == 1.0   # rank 2 still in bucket <=1
    assert hist.percentile(75.0) == 2.0
    assert hist.percentile(100.0) == 4.0
    hist.observe(50.0)  # overflow: percentile reports the exact max
    assert hist.percentile(100.0) == 50.0
    with pytest.raises(ValueError):
        hist.percentile(101.0)


def test_histogram_empty_and_invalid_buckets():
    assert Histogram("h").percentile(99.0) == 0.0
    with pytest.raises(ValueError):
        Histogram("h", buckets=())
    with pytest.raises(ValueError):
        Histogram("h", buckets=(2.0, 1.0))


def test_default_bucket_tables_are_ascending():
    for table in (LATENCY_BUCKETS_S, SIZE_BUCKETS):
        assert list(table) == sorted(table)
        assert len(set(table)) == len(table)


def test_snapshot_percentile_matches_live_instrument():
    hist = Histogram("h", buckets=(0.001, 0.01, 0.1, 1.0))
    for value in (0.0005, 0.003, 0.02, 0.02, 0.5, 3.0):
        hist.observe(value)
    snap = hist.snapshot()
    for pct in (0.0, 25.0, 50.0, 90.0, 99.0, 100.0):
        assert snapshot_percentile(snap, pct) == hist.percentile(pct)
    assert snapshot_percentile(
        {"counts": [0, 0], "buckets": [1.0], "count": 0,
         "sum": 0.0, "min": None, "max": None}, 50.0) == 0.0


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------

def test_instruments_are_exact_under_thread_concurrency():
    registry = MetricsRegistry()
    counter = registry.counter("hits")
    hist = registry.histogram("lat", buckets=(0.5, 1.5))
    n_threads, per_thread = 8, 5000

    def worker():
        for i in range(per_thread):
            counter.inc()
            hist.observe(1.0)

    threads = [threading.Thread(target=worker)
               for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    total = n_threads * per_thread
    assert counter.value == total
    assert hist.count == total
    assert hist.snapshot()["counts"] == [0, total, 0]
    assert hist.sum == pytest.approx(float(total))


# ----------------------------------------------------------------------
# Registry behaviour
# ----------------------------------------------------------------------

def test_registry_get_or_create_returns_same_instrument():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.histogram("h") is registry.histogram("h")
    with pytest.raises(TypeError):
        registry.gauge("a")  # name already registered as a Counter


def test_enabled_registry_snapshot_roundtrip_and_schema():
    registry = MetricsRegistry()
    registry.counter("net.frames_sent").inc(3)
    registry.gauge("server.apply_queue").set(2.0)
    registry.histogram("wal.sync_s").observe(0.004)
    snap = registry.snapshot()
    validate_snapshot(snap)
    assert set(snap) == {"counters", "gauges", "histograms"}
    assert snap["counters"]["net.frames_sent"] == 3
    assert snap["gauges"]["server.apply_queue"]["high_water"] == 2.0
    assert snap["histograms"]["wal.sync_s"]["count"] == 1
    # JSON-safe: survives an encode/decode round trip unchanged.
    import json
    assert json.loads(json.dumps(snap)) == snap


@pytest.mark.parametrize("mutate", [
    lambda snap: snap.pop("counters"),
    lambda snap: snap.pop("histograms"),
    lambda snap: snap["counters"].__setitem__("bad", -1),
    lambda snap: snap["counters"].__setitem__("bad", True),
    lambda snap: snap["gauges"].__setitem__("bad", {"value": 1.0}),
    lambda snap: snap["histograms"]["wal.sync_s"].__setitem__(
        "count", 99),
    lambda snap: snap["histograms"]["wal.sync_s"]["counts"].pop(),
])
def test_validate_snapshot_rejects_malformed(mutate):
    registry = MetricsRegistry()
    registry.counter("ok").inc()
    registry.gauge("g").set(1.0)
    registry.histogram("wal.sync_s").observe(0.002)
    snap = registry.snapshot()
    mutate(snap)
    with pytest.raises(ValueError):
        validate_snapshot(snap)


# ----------------------------------------------------------------------
# Pre-derived percentiles
# ----------------------------------------------------------------------

def test_histogram_snapshot_pre_derives_percentiles():
    """Snapshots ship p50/p95/p99 alongside the raw buckets, so wire
    consumers (dashboard, watchdog, CLI) need no re-derivation — and
    the pre-derived cuts must agree with recomputing from the raw
    buckets that are still present."""
    hist = Histogram("lat", buckets=(0.001, 0.004, 0.016, 0.064))
    for value in [0.0005] * 50 + [0.002] * 45 + [0.05] * 4 + [0.25]:
        hist.observe(value)
    snap = hist.snapshot()
    assert snap["p50"] == 0.001   # rank 50 closes the <=1 ms bucket
    assert snap["p95"] == 0.004
    assert snap["p99"] == 0.064
    for pct, key in ((50.0, "p50"), (95.0, "p95"), (99.0, "p99")):
        assert snapshot_percentile(snap, pct) == snap[key]
    # Raw buckets are still the source of truth for windowed deltas.
    assert snap["buckets"] == [0.001, 0.004, 0.016, 0.064]
    assert sum(snap["counts"]) == snap["count"] == 100
    validate_snapshot({"counters": {}, "gauges": {},
                       "histograms": {"lat": snap}})


def test_empty_histogram_percentiles_are_zero():
    snap = Histogram("lat").snapshot()
    assert snap["p50"] == snap["p95"] == snap["p99"] == 0.0


def test_overflow_bucket_percentile_reports_exact_maximum():
    hist = Histogram("lat", buckets=(1.0,))
    hist.observe(123.5)
    snap = hist.snapshot()
    assert snap["p95"] == 123.5   # overflow: the observed max, not inf
    assert snapshot_percentile(snap, 100.0) == 123.5


def test_bucket_percentile_edge_cases():
    from repro.obs.registry import bucket_percentile

    # Empty histogram and out-of-range pct.
    assert bucket_percentile([1.0], [0, 0], 0, None, 95.0) == 0.0
    with pytest.raises(ValueError):
        bucket_percentile([1.0], [1, 0], 1, None, 101.0)
    # pct=0 still needs rank >= 1 (the smallest observation's bucket).
    assert bucket_percentile([1.0, 2.0], [0, 3, 0], 3, None, 0.0) == 2.0
    # Overflow bucket without a recorded maximum degrades to 0.
    assert bucket_percentile([1.0], [0, 5], 5, None, 99.0) == 0.0
