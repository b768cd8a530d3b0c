"""Tests for the harness extras: ASCII plots, multi-seed analysis,
serialization-order witnesses, and span tracing of simulated runs."""

import pytest

from repro.errors import SerializabilityViolation
from repro.harness.analysis import MetricSummary, compare, replicate
from repro.harness.plots import render_series, render_sweep
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.harness.serializability import serialization_order
from repro.harness.sweep import sweep
from repro.obs.trace import SpanObserver, TraceSink, trace_id
from repro.types import GlobalTransactionId
from repro.workload.params import WorkloadParams

TINY = WorkloadParams(n_sites=3, n_items=30, transactions_per_thread=6,
                      threads_per_site=2)


# ----------------------------------------------------------------------
# serialization_order
# ----------------------------------------------------------------------


def gid(seq):
    return GlobalTransactionId(0, seq)


def test_witness_respects_edges():
    graph = {gid(1): {gid(2)}, gid(2): {gid(3)}, gid(3): set(),
             gid(4): {gid(3)}}
    order = serialization_order(graph)
    assert set(order) == set(graph)
    position = {node: index for index, node in enumerate(order)}
    for node, successors in graph.items():
        for succ in successors:
            assert position[node] < position[succ]


def test_witness_raises_on_cycle():
    graph = {gid(1): {gid(2)}, gid(2): {gid(1)}}
    with pytest.raises(SerializabilityViolation):
        serialization_order(graph)


def test_witness_deterministic_tie_break():
    graph = {gid(3): set(), gid(1): set(), gid(2): set()}
    assert serialization_order(graph) == [gid(1), gid(2), gid(3)]


def test_witness_from_real_run():
    from repro.harness.runner import run_experiment
    from repro.harness.serializability import build_serialization_graph
    from repro.harness.runner import build_system
    result = run_experiment(
        ExperimentConfig(protocol="backedge", params=TINY, seed=1))
    assert result.serializable


# ----------------------------------------------------------------------
# Plots
# ----------------------------------------------------------------------


def test_render_series_contains_markers_axis_and_legend():
    chart = render_series(
        {"backedge": [(0.0, 20.0), (0.5, 15.0), (1.0, 12.0)],
         "psl": [(0.0, 10.0), (0.5, 9.0), (1.0, 8.0)]},
        title="demo")
    assert "demo" in chart
    assert "*" in chart and "o" in chart
    assert "legend: * backedge   o psl" in chart
    assert "+" + "-" * 3 in chart  # The x axis baseline.


def test_render_series_empty():
    assert render_series({}) == "(no data)"
    assert render_series({"a": []}) == "(no data)"


def test_render_series_single_point():
    chart = render_series({"only": [(5, 3.0)]})
    assert "*" in chart
    assert "5" in chart


def test_render_sweep_end_to_end():
    points = sweep("backedge_probability", [0.0, 1.0], ["backedge"],
                   base_params=TINY, seed=1)
    chart = render_sweep(points, title="fig")
    assert "fig" in chart
    assert "average throughput" in chart
    assert render_sweep([], title="x") == "(no data)"


def test_render_handles_zero_values():
    chart = render_series({"flat": [(0, 0.0), (1, 0.0)]})
    assert "legend" in chart


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def test_replicate_runs_each_seed():
    replication = replicate(
        ExperimentConfig(protocol="backedge", params=TINY), seeds=[1, 2])
    assert len(replication.results) == 2
    summary = replication.summary()
    assert summary.n == 2
    assert summary.minimum <= summary.mean <= summary.maximum


def test_metric_summary_statistics():
    summary = MetricSummary("m", n=4, mean=10.0, stdev=2.0,
                            minimum=8.0, maximum=12.0)
    assert summary.sem == pytest.approx(1.0)
    low, high = summary.ci95()
    assert low == pytest.approx(10 - 1.96)
    assert high == pytest.approx(10 + 1.96)
    assert "10.00 +/- 2.00" in str(summary)


def test_single_seed_summary_has_zero_stdev():
    replication = replicate(
        ExperimentConfig(protocol="backedge", params=TINY), seeds=[3])
    summary = replication.summary()
    assert summary.stdev == 0.0
    assert summary.sem == 0.0


def test_compare_backedge_beats_psl():
    outcome = compare(
        ExperimentConfig(protocol="backedge", params=TINY),
        ExperimentConfig(protocol="psl", params=TINY),
        seeds=[1, 2, 3])
    assert outcome["n"] == 3
    assert outcome["mean_ratio"] > 1.0
    assert outcome["win_fraction"] >= 2 / 3


# ----------------------------------------------------------------------
# Tracing: the shared span observer on a simulated run
# ----------------------------------------------------------------------


def test_tracer_collects_protocol_events():
    sink = TraceSink(site_id=0)
    run_experiment(ExperimentConfig(
        protocol="backedge", params=TINY, seed=1,
        extra_observers=[SpanObserver(sink)]))

    commits = [span for span in sink.spans()
               if span["event"] == "committed"]
    assert commits
    # For some committed txn with replicas, applications follow commit.
    for commit in commits:
        if commit["expected"]:
            chain = sink.spans(trace=commit["trace"])
            assert chain[0] is commit
            assert all(span["now"] >= commit["now"] for span in chain)
            assert {span["site"] for span in chain[1:]} <= \
                set(commit["expected"])
            break
    else:
        raise AssertionError("no committed transaction had replicas")


def test_tracer_capacity_bound():
    sink = TraceSink(site_id=0, capacity=2)
    observer = SpanObserver(sink)
    observer.on_primary_commit(gid(1), 0, 1.0, set())
    observer.on_replica_commit(gid(1), 1, 2.0)
    observer.on_replica_commit(gid(1), 2, 3.0)
    assert len(sink) == 2
    assert sink.dropped == 1
    # The ring keeps the newest spans.
    assert [span["site"] for span in sink.spans()] == [1, 2]


def test_tracer_queries():
    sink = TraceSink(site_id=0)
    observer = SpanObserver(sink)
    observer.on_primary_commit(gid(1), 0, 1.0, {1})
    observer.on_replica_commit(gid(1), 1, 2.0)
    observer.on_primary_commit(gid(2), 0, 3.0, set())
    assert len(sink.spans(trace=trace_id(gid(1)))) == 2
    assert len([span for span in sink.spans()
                if span["event"] == "committed"]) == 2
    assert [(span["event"], span["site"], span["now"]) for span
            in sink.spans(trace=trace_id(gid(1)))] == \
        [("committed", 0, 1.0), ("applied", 1, 2.0)]
