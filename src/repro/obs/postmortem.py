"""Cross-site postmortem forensics over the sites' span files.

Each live site's black box is the ``.trace`` JSONL beside its WAL
(:class:`repro.obs.trace.TraceSink`).  It outlives the process — a
SIGKILLed site leaves everything it flushed — and it holds every life
of a restarted site: a life opens with a ``server-start`` record and
closes with ``server-stop`` (graceful) or ``fatal`` (fail-stop), or
with neither when the site was killed.  This module merges the files of
one incident into a single cross-site picture:

1. **Collect** span files (or the directories holding them) and split
   each site's records into lives at its ``server-start`` records.
2. **Merge** into one timeline: the lifecycle records (starts, stops,
   epoch commits, fail-stops, the chaos controller's faults and
   alerts), the end of every earlier life that was cut short, and
   propagation-stall aggregates, beside the propagation trees and
   per-hop attribution of :mod:`repro.obs.reconstruct`.  Every site of
   a cluster runs on one host
   (:meth:`repro.cluster.spec.ClusterSpec.address`) and stamps
   ``time.time()``, so records merge on their recorded ``t`` as they
   are.
3. **Localize**: rank findings — divergence, fail-stops, dark sites,
   stalled hops — each with the site and the time window the evidence
   spans ("first stall at hop s0→s2 within +1.2s..+3.4s").  A site is
   *dark* when its last life ends with neither ``server-stop`` nor
   ``fatal``, or when it left no file.

Outputs: a terminal report (:func:`format_report`); the analysis
itself is plain JSON types (``repro postmortem --json``).
"""

from __future__ import annotations

import glob
import json
import os
import typing

from repro.obs.reconstruct import (
    attribution_summary,
    propagation_summary,
    reconstruct,
)
from repro.obs.trace import load_trace_file

Record = typing.Dict[str, typing.Any]

#: The records that close a life: a graceful stop or a fail-stop.
_ENDINGS = ("server-stop", "fatal")


def collect_traces(paths: typing.Iterable[str]
                   ) -> typing.Tuple[typing.Dict[int, typing.List[Record]],
                                     typing.List[str]]:
    """Load span files and/or directories of ``*.trace`` files.

    Returns ``(traces, problems)``: each site's records in file order,
    and one problem string per file that cannot be read or holds no
    record — never an exception (a postmortem over a damaged fleet must
    report what it *can* read).
    """
    files: typing.List[str] = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(sorted(glob.glob(os.path.join(path, "*.trace"))))
        else:
            files.append(path)
    traces: typing.Dict[int, typing.List[Record]] = {}
    problems: typing.List[str] = []
    for path in files:
        try:
            records = load_trace_file(path)
        except (OSError, ValueError) as exc:
            problems.append(str(exc))
            continue
        site = next((record["site"] for record in records
                     if isinstance(record.get("site"), int)), None)
        if site is None:
            problems.append("{}: no trace records".format(path))
            continue
        traces.setdefault(site, []).extend(records)
    return traces, problems


def _lives(records: typing.List[Record]) -> typing.List[typing.List[Record]]:
    """One site's records split at its ``server-start`` records."""
    lives: typing.List[typing.List[Record]] = [[]]
    for record in records:
        if record.get("event") == "server-start" and lives[-1]:
            lives.append([])
        lives[-1].append(record)
    return lives


def _ending(life: typing.List[Record]) -> typing.Optional[Record]:
    """The record that closed ``life``, or ``None`` when it was cut
    short."""
    return next((record for record in reversed(life)
                 if record.get("event") in _ENDINGS), None)


def _last_t(records: typing.List[Record]) -> typing.Optional[float]:
    return max((float(record["t"]) for record in records
                if isinstance(record.get("t"), (int, float))),
               default=None)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

#: Ranking of finding kinds, most damning first.
_FINDING_ORDER = ("divergence", "fatal", "site-down", "stall",
                  "critical-alert")


def analyze(traces: typing.Mapping[int, typing.List[Record]],
            injections: typing.Optional[typing.List[typing.Dict]] = None
            ) -> typing.Dict[str, typing.Any]:
    """Merge the sites' records (:func:`collect_traces`) into one
    cross-site analysis (plain JSON types throughout)."""
    sites = sorted(traces)
    lives = {site: _lives(traces[site]) for site in sites}
    n_sites = max([int(record.get("n_sites") or 0)
                   for records in traces.values() for record in records
                   if record.get("event") == "server-start"]
                  + [max(sites) + 1 if sites else 0])
    endings = {site: _ending(lives[site][-1]) for site in sites}
    dark_sites = sorted(
        [site for site in range(n_sites) if site not in traces]
        + [site for site in sites if endings[site] is None])

    records = [record for site in sites for record in traces[site]]
    trees = reconstruct(records)

    timeline: typing.List[typing.Dict[str, typing.Any]] = []
    for site in sites:
        for number, life in enumerate(lives[site], 1):
            for record in life:
                wall = record.get("t")
                if "trace" in record or \
                        not isinstance(wall, (int, float)):
                    continue
                entry = {key: value for key, value in record.items()
                         if key not in ("t", "site", "event")}
                entry.update(t=float(wall), site=site,
                             kind=str(record.get("event")),
                             label=_record_label(record))
                timeline.append(entry)
            if number < len(lives[site]) and _ending(life) is None:
                timeline.append({
                    "t": _last_t(life) or 0.0, "site": site,
                    "kind": "crash",
                    "label": "life {} cut short (no server-stop or "
                             "fatal record); restarted".format(number)})

    stalls = _stalls(trees)
    for stall in stalls:
        timeline.append({
            "t": stall["window"][0], "site": stall["site"],
            "kind": "stall",
            "label": "{} update(s) committed but never applied at "
                     "s{}".format(stall["count"], stall["site"]),
        })
    timeline.sort(key=lambda entry: entry.get("t", 0.0))

    last_seen = {site: _last_t(lives[site][-1]) for site in sites}
    findings = _findings(dark_sites, last_seen, timeline, stalls)

    times = [entry["t"] for entry in timeline]
    times.extend(float(record["t"]) for record in records
                 if isinstance(record.get("t"), (int, float)))
    window = [min(times), max(times)] if times else [0.0, 0.0]

    summaries = []
    for site in sites:
        ending = endings[site] or {}
        summaries.append({
            "site": site,
            "records": len(traces[site]),
            "spans": sum(1 for record in traces[site]
                         if "trace" in record),
            "lives": len(lives[site]),
            "epoch": next((record["epoch"]
                           for record in reversed(traces[site])
                           if "epoch" in record
                           and "trace" not in record), None),
            "ended": ending.get("event"),
            "error": ending.get("error"),
        })

    return {
        "sites": sites,
        "dark_sites": dark_sites,
        "n_sites": n_sites,
        "traces": summaries,
        "propagation": propagation_summary(trees),
        "attribution": attribution_summary(trees, top=3),
        "timeline": timeline,
        "findings": findings,
        "injections": list(injections or ()),
        "window": window,
    }


def _record_label(record: typing.Mapping[str, typing.Any]) -> str:
    event = record.get("event")
    if event == "alert":
        site = record.get("alert_site")
        return "[{}] {}{}: {}".format(
            record.get("severity", "?"), record.get("rule", "?"),
            " s{}".format(site) if site is not None else "",
            str(record.get("message", ""))[:120])
    if event == "epoch-commit":
        return "epoch -> {}".format(record.get("epoch"))
    if event == "fault":
        victim = record.get("victim")
        return "injected {}{}".format(
            record.get("fault", "fault"),
            " on s{}".format(victim) if victim is not None else "")
    if event == "server-start":
        return "server started (epoch {}{})".format(
            record.get("epoch", 0),
            ", recovered" if record.get("recovered") else "")
    if event == "server-stop":
        return "server stopped"
    if event == "fatal":
        return "fail-stop: {}".format(str(record.get("error"))[:120])
    extras = {key: value for key, value in record.items()
              if key not in ("t", "site", "event")}
    return "{} {}".format(event, extras) if extras else str(event)


def _stalls(trees: typing.Mapping[str, typing.Any]
            ) -> typing.List[typing.Dict[str, typing.Any]]:
    """Aggregate incomplete propagation trees by the replica site that
    never applied: the stalled hop, its evidence count and window."""
    grouped: typing.Dict[int, typing.Dict[str, typing.Any]] = {}
    for tree in trees.values():
        if tree.complete or tree.committed_t is None or \
                not tree.expected:
            continue
        last_seen = max((span["t"] for span in tree.events
                         if isinstance(span.get("t"), (int, float))),
                        default=tree.committed_t)
        for site in sorted(set(tree.expected) -
                           set(tree.applied_sites)):
            stall = grouped.setdefault(site, {
                "site": site, "count": 0, "origins": {},
                "window": [tree.committed_t, last_seen]})
            stall["count"] += 1
            if tree.origin is not None:
                stall["origins"][tree.origin] = \
                    stall["origins"].get(tree.origin, 0) + 1
            stall["window"][0] = min(stall["window"][0],
                                     tree.committed_t)
            stall["window"][1] = max(stall["window"][1], last_seen)
    stalls = []
    for site, stall in sorted(grouped.items()):
        origins = stall.pop("origins")
        stall["origin"] = max(origins, key=origins.get) \
            if origins else None
        stalls.append(stall)
    stalls.sort(key=lambda stall: stall["count"], reverse=True)
    return stalls


def _findings(dark_sites: typing.List[int],
              last_seen: typing.Mapping[int, typing.Optional[float]],
              timeline: typing.List[typing.Dict[str, typing.Any]],
              stalls: typing.List[typing.Dict[str, typing.Any]]
              ) -> typing.List[typing.Dict[str, typing.Any]]:
    findings: typing.List[typing.Dict[str, typing.Any]] = []

    def alert_entries(rule: str) -> typing.List[typing.Dict]:
        return [entry for entry in timeline
                if entry.get("kind") == "alert"
                and entry.get("rule") == rule]

    for entry in alert_entries("divergence"):
        findings.append({
            "kind": "divergence",
            "site": entry.get("alert_site"),
            "window": [entry["t"], entry["t"]],
            "summary": "replica divergence flagged: {}".format(
                entry.get("label")),
            "evidence": 1,
        })

    for entry in timeline:
        if entry.get("kind") == "fatal":
            findings.append({
                "kind": "fatal",
                "site": entry["site"],
                "window": [entry["t"], entry["t"]],
                "summary": "s{} fail-stopped: {}".format(
                    entry["site"], entry.get("error")),
                "evidence": 1,
            })

    down_times: typing.Dict[int, typing.List[float]] = {}
    for entry in alert_entries("site-down"):
        site = entry.get("alert_site")
        if isinstance(site, int):
            down_times.setdefault(site, []).append(entry["t"])
    for site in sorted(set(dark_sites) | set(down_times)):
        times = list(down_times.get(site, []))
        parts = []
        if site in dark_sites:
            if site in last_seen:
                parts.append("killed (its last life has no server-stop "
                             "or fatal record)")
                if last_seen[site] is not None:
                    times.append(last_seen[site])
            else:
                parts.append("no readable span file")
        if site in down_times:
            parts.append("site-down critical fired {} time(s)".format(
                len(down_times[site])))
        findings.append({
            "kind": "site-down",
            "site": site,
            "window": [min(times), max(times)] if times else None,
            "summary": "s{} dark: {}".format(site, ", ".join(parts)),
            "evidence": len(down_times.get(site, ()))
            + (1 if site in dark_sites else 0),
        })

    for stall in stalls:
        hop = "s{}→s{}".format(stall["origin"], stall["site"]) \
            if stall["origin"] is not None \
            else "?→s{}".format(stall["site"])
        findings.append({
            "kind": "stall",
            "site": stall["site"],
            "window": list(stall["window"]),
            "summary": "first stall at hop {}: {} update(s) committed "
                       "but never applied at s{}".format(
                           hop, stall["count"], stall["site"]),
            "evidence": stall["count"],
        })

    for entry in timeline:
        if entry.get("kind") == "alert" and \
                entry.get("severity") == "critical" and \
                entry.get("rule") not in ("divergence", "site-down"):
            findings.append({
                "kind": "critical-alert",
                "site": entry.get("alert_site"),
                "window": [entry["t"], entry["t"]],
                "summary": entry.get("label", "critical alert"),
                "evidence": 1,
            })

    findings.sort(key=lambda finding: (
        _FINDING_ORDER.index(finding["kind"]), -finding["evidence"]))
    return findings


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _rel(analysis: typing.Mapping[str, typing.Any],
         wall: typing.Optional[float]) -> str:
    if wall is None:
        return "?"
    return "+{:.3f}s".format(wall - analysis["window"][0])


def _window_str(analysis: typing.Mapping[str, typing.Any],
                window: typing.Optional[typing.List[float]]) -> str:
    if not window:
        return "window unknown"
    return "window {}..{}".format(_rel(analysis, window[0]),
                                  _rel(analysis, window[1]))


def format_report(analysis: typing.Mapping[str, typing.Any]) -> str:
    """Terminal rendering of one :func:`analyze` result: the timeline
    is its last 60 entries."""
    lines: typing.List[str] = []
    sites = ", ".join("s{}".format(site) for site in analysis["sites"])
    header = "postmortem: span files from {}".format(sites or "no site")
    if analysis["dark_sites"]:
        header += " (dark: {})".format(", ".join(
            "s{}".format(site) for site in analysis["dark_sites"]))
    lines.append(header)
    for summary in analysis["traces"]:
        ended = summary["ended"] or "cut short"
        if summary["error"]:
            ended += " ({})".format(summary["error"])
        lines.append(
            "  s{}: {} record(s), {} span(s), {} life(s), epoch {}, "
            "last life ended: {}".format(
                summary["site"], summary["records"], summary["spans"],
                summary["lives"], summary["epoch"], ended))

    propagation = analysis["propagation"]
    lines.append(
        "propagation: {} trace(s), {} propagating, {} complete"
        .format(propagation["count"], propagation["propagating"],
                propagation["complete"]))
    if propagation["complete"]:
        lines.append(
            "  delay p50 {:.1f} ms  p95 {:.1f} ms  max {:.1f} ms".format(
                propagation["p50"] * 1000, propagation["p95"] * 1000,
                propagation["max"] * 1000))

    lines.append("fault localization:")
    if analysis["findings"]:
        for rank, finding in enumerate(analysis["findings"], 1):
            lines.append("  {}. [{}] {} ({})".format(
                rank, finding["kind"], finding["summary"],
                _window_str(analysis, finding.get("window"))))
    else:
        lines.append("  no anomaly localized")

    if analysis["injections"]:
        lines.append("fault script ({} injection decision(s), times "
                     "relative to run start):".format(
                         len(analysis["injections"])))
        for entry in analysis["injections"][:10]:
            lines.append("  " + json.dumps(entry, sort_keys=True))
        if len(analysis["injections"]) > 10:
            lines.append("  ... {} more".format(
                len(analysis["injections"]) - 10))

    timeline = analysis["timeline"]
    shown = timeline[-60:]
    lines.append("timeline ({} of {} entr{}):".format(
        len(shown), len(timeline),
        "y" if len(timeline) == 1 else "ies"))
    for entry in shown:
        lines.append("  {:>10} s{:<2} {:<12} {}".format(
            _rel(analysis, entry.get("t")),
            entry.get("site", "?"), entry.get("kind", "?"),
            entry.get("label", "")))
    return "\n".join(lines)
