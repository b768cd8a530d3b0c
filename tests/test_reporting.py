"""Edge-case tests for the reporting helpers."""

import dataclasses

from repro.harness.reporting import (
    _fmt,
    format_comparison,
    format_sweep_report,
    format_sweep_table,
)
from repro.harness.runner import ExperimentConfig, ExperimentResult
from repro.harness.sweep import SweepPoint


def make_result(protocol, throughput, abort_rate=0.0):
    return ExperimentResult(
        config=ExperimentConfig(protocol=protocol),
        average_throughput=throughput,
        abort_rate=abort_rate,
        mean_response_time=0.1,
        mean_propagation_delay=0.0,
        committed=10,
        aborted=0,
        duration=1.0,
        messages_by_type={},
        total_messages=0,
        serializable=True,
        committed_per_site={},
    )


def make_points():
    return [
        SweepPoint("b", 0.0, "backedge", make_result("backedge", 20.0)),
        SweepPoint("b", 0.0, "psl", make_result("psl", 10.0)),
        SweepPoint("b", 1.0, "backedge", make_result("backedge", 15.0)),
        SweepPoint("b", 1.0, "psl", make_result("psl", 8.0)),
    ]


def test_sweep_table_layout():
    table = format_sweep_table(make_points())
    lines = table.splitlines()
    assert lines[0] == "Throughput (txn/s/site)"
    assert "backedge" in lines[1] and "psl" in lines[1]
    assert "20.00" in table and "8.00" in table


def test_sweep_table_missing_cell_rendered_as_dash():
    points = make_points()[:3]  # psl missing at b=1
    table = format_sweep_table(points)
    last_row = table.splitlines()[-1]
    assert "-" in last_row.split()[-1]


def test_sweep_table_scale_and_label():
    table = format_sweep_table(make_points(),
                               metric="mean_response_time",
                               metric_label="Response (ms)",
                               scale=1000.0)
    assert "Response (ms)" in table
    assert "100.00" in table


def test_comparison_speedups():
    comparison = format_comparison(make_points(), "psl", "backedge")
    assert "2.00x" in comparison
    assert "1.88x" in comparison  # 15 / 8


def test_comparison_skips_zero_baseline():
    points = [
        SweepPoint("b", 0.0, "backedge", make_result("backedge", 20.0)),
        SweepPoint("b", 0.0, "psl", make_result("psl", 0.0)),
    ]
    comparison = format_comparison(points, "psl", "backedge")
    assert "x" not in comparison.splitlines()[-1] or \
        len(comparison.splitlines()) == 1


def test_sweep_report_is_tables_and_first_over_second_speedup():
    points = make_points()
    assert format_sweep_report(points) == "\n\n".join([
        format_sweep_table(points),
        format_comparison(points, "psl", "backedge"),
        format_sweep_table(points, metric="abort_rate",
                           metric_label="Abort rate (%)")])
    psl_only = [point for point in points if point.protocol == "psl"]
    assert "speedup" not in format_sweep_report(psl_only)
    assert "Abort rate (%)" in format_sweep_report(psl_only)


def test_fmt_renders_floats_compactly():
    assert _fmt(0.5) == "0.5"
    assert _fmt(1.0) == "1"
    assert _fmt("name") == "name"
    assert _fmt(3) == "3"
