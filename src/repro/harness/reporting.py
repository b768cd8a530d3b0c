"""Paper-style rendering of sweep results (the rows/series behind each
figure)."""

from __future__ import annotations

import typing

from repro.harness.sweep import SweepPoint, series


def format_sweep_table(points: typing.Sequence[SweepPoint],
                       metric: str = "average_throughput",
                       metric_label: str = "Throughput (txn/s/site)",
                       scale: float = 1.0) -> str:
    """Render a sweep as the table behind one of the paper's figures.

    One row per parameter value, one column per protocol.
    """
    if not points:
        return "(no data)"
    parameter = points[0].parameter
    protocols = list(dict.fromkeys(point.protocol for point in points))
    columns = {protocol: dict(series(points, protocol, metric))
               for protocol in protocols}
    values = list(dict.fromkeys(point.value for point in points))

    header = "{:<14}".format(parameter) + "".join(
        "{:>12}".format(protocol) for protocol in protocols)
    lines = [metric_label, header, "-" * len(header)]
    for value in values:
        row = "{:<14}".format(_fmt(value))
        for protocol in protocols:
            cell = columns[protocol].get(value)
            row += "{:>12}".format(
                "-" if cell is None else "{:.2f}".format(cell * scale))
        lines.append(row)
    return "\n".join(lines)


def format_comparison(points: typing.Sequence[SweepPoint],
                      baseline: str, contender: str) -> str:
    """Per-value speedup of ``contender`` over ``baseline``."""
    base = dict(series(points, baseline))
    cont = dict(series(points, contender))
    lines = ["{:<14}{:>12}".format(points[0].parameter if points else "",
                                   "speedup")]
    for value in dict.fromkeys(point.value for point in points):
        if value in base and value in cont and base[value] > 0:
            lines.append("{:<14}{:>11.2f}x".format(
                _fmt(value), cont[value] / base[value]))
    return "\n".join(lines)


def format_sweep_report(points: typing.Sequence[SweepPoint]) -> str:
    """The throughput table, the speedup of the first protocol over the
    second when exactly two are swept, and the abort-rate table."""
    protocols = list(dict.fromkeys(point.protocol for point in points))
    parts = [format_sweep_table(points)]
    if len(protocols) == 2:
        parts.append(format_comparison(points, protocols[1], protocols[0]))
    parts.append(format_sweep_table(points, metric="abort_rate",
                                    metric_label="Abort rate (%)"))
    return "\n\n".join(parts)


def _fmt(value) -> str:
    if isinstance(value, float):
        return "{:g}".format(value)
    return str(value)
