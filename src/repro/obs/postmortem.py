"""Cross-site postmortem forensics over flight-recorder bundles.

One incident leaves one bundle per surviving site
(:mod:`repro.obs.flight`).  This module merges them back into a single
causally ordered cross-site picture:

1. **Collect** bundles (files or directories), keeping the newest
   bundle per site when a site dumped more than once.
2. **Merge** into one timeline: recorded events (alerts, epoch
   commits, injected faults, lifecycle), bundle-dump markers, and
   propagation-stall aggregates, interleaved with the reconstructed
   propagation trees and per-hop attribution of
   :mod:`repro.obs.reconstruct`.  Every site of a cluster runs on one
   host (:meth:`repro.cluster.spec.ClusterSpec.address`) and stamps
   ``time.time()``, so records merge on their recorded ``t`` as they
   are.
3. **Localize**: rank findings — divergence, dead/dark sites, stalled
   hops — each with the site and the time window the evidence spans
   ("first stall at hop s0→s2 within +1.2s..+3.4s").

Outputs: a terminal report (:func:`format_report`); the analysis
itself is plain JSON types (``repro postmortem --json``).
"""

from __future__ import annotations

import json
import os
import typing

from repro.obs.flight import bundle_paths, load_bundle
from repro.obs.reconstruct import (
    attribution_summary,
    propagation_summary,
    reconstruct,
)


class Bundle:
    """One loaded incident bundle."""

    def __init__(self, path: str,
                 manifest: typing.Dict[str, typing.Any],
                 records: typing.List[typing.Dict[str, typing.Any]]):
        self.path = path
        self.manifest = manifest
        self.records = records

    @property
    def site(self) -> int:
        return int(self.manifest.get("site", -1))

    @property
    def wall_t(self) -> float:
        return float(self.manifest.get("wall_t", 0.0))

    def spans(self) -> typing.List[typing.Dict[str, typing.Any]]:
        return [record for record in self.records
                if record.get("type") == "span"]

    def events(self) -> typing.List[typing.Dict[str, typing.Any]]:
        return [record for record in self.records
                if record.get("type") == "event"]

    def states(self) -> typing.Dict[str, typing.Any]:
        return {record["name"]: record.get("state")
                for record in self.records
                if record.get("type") == "state"
                and isinstance(record.get("name"), str)}


def collect_bundles(paths: typing.Iterable[str]
                    ) -> typing.Tuple[typing.List[Bundle],
                                      typing.List[str]]:
    """Load bundles from files and/or directories.

    Returns ``(bundles, problems)`` — an unreadable bundle becomes a
    problem string, never an exception (a postmortem over a damaged
    fleet must report what it *can* read).
    """
    files: typing.List[str] = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(bundle_paths(path))
        else:
            files.append(path)
    bundles: typing.List[Bundle] = []
    problems: typing.List[str] = []
    for path in files:
        try:
            manifest, records = load_bundle(path)
        except (OSError, ValueError) as exc:
            problems.append(str(exc))
            continue
        bundles.append(Bundle(path, manifest, records))
    return bundles, problems


def _latest_per_site(bundles: typing.Iterable[Bundle]
                     ) -> typing.Dict[int, Bundle]:
    """Newest bundle per site (by manifest wall clock, then sequence)."""
    latest: typing.Dict[int, Bundle] = {}
    for bundle in bundles:
        current = latest.get(bundle.site)
        if current is None or \
                (bundle.wall_t, bundle.manifest.get("sequence", 0)) > \
                (current.wall_t, current.manifest.get("sequence", 0)):
            latest[bundle.site] = bundle
    return latest


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

#: Ranking of finding kinds, most damning first.
_FINDING_ORDER = ("divergence", "site-down", "stall", "critical-alert")


def analyze(bundles: typing.List[Bundle],
            injections: typing.Optional[typing.List[typing.Dict]] = None
            ) -> typing.Dict[str, typing.Any]:
    """Merge loaded bundles into one cross-site analysis (plain JSON
    types throughout)."""
    latest = _latest_per_site(bundles)
    sites = sorted(latest)
    n_sites = 0
    for bundle in latest.values():
        cluster = bundle.manifest.get("cluster") or {}
        n_sites = max(n_sites, int(cluster.get("n_sites") or 0))
    n_sites = max(n_sites, (max(sites) + 1) if sites else 0)
    missing_sites = [site for site in range(n_sites)
                     if site not in latest]

    spans_by_site = {site: bundle.spans()
                     for site, bundle in latest.items()}
    spans = [span for site_spans in spans_by_site.values()
             for span in site_spans]
    trees = reconstruct(spans)

    timeline: typing.List[typing.Dict[str, typing.Any]] = []
    for site, bundle in sorted(latest.items()):
        timeline.append({
            "t": bundle.wall_t, "site": site, "kind": "dump",
            "label": "bundle dumped (trigger {})".format(
                bundle.manifest.get("trigger")),
        })
        for event in bundle.events():
            wall = event.get("t")
            if not isinstance(wall, (int, float)):
                continue
            entry = {key: value for key, value in event.items()
                     if key not in ("t", "mono", "type")}
            entry.update(t=float(wall), site=site,
                         kind=str(event.get("kind", "event")),
                         label=_event_label(event))
            timeline.append(entry)

    stalls = _stalls(trees)
    for stall in stalls:
        timeline.append({
            "t": stall["window"][0], "site": stall["site"],
            "kind": "stall",
            "label": "{} update(s) committed but never applied at "
                     "s{}".format(stall["count"], stall["site"]),
        })
    timeline.sort(key=lambda entry: entry.get("t", 0.0))

    findings = _findings(latest, missing_sites, timeline, stalls)

    times = [entry["t"] for entry in timeline
             if isinstance(entry.get("t"), (int, float))]
    times.extend(span["t"] for span in spans
                 if isinstance(span.get("t"), (int, float)))
    window = [min(times), max(times)] if times else [0.0, 0.0]

    return {
        "sites": sites,
        "missing_sites": missing_sites,
        "n_sites": n_sites,
        "bundles": [{
            "path": bundle.path, "site": site,
            "trigger": bundle.manifest.get("trigger"),
            "epoch": bundle.manifest.get("epoch"),
            "git_sha": bundle.manifest.get("git_sha"),
            "wall_t": bundle.wall_t,
            "records": len(bundle.records),
            "spans": len(spans_by_site.get(site, ())),
        } for site, bundle in sorted(latest.items())],
        "propagation": propagation_summary(trees),
        "attribution": attribution_summary(trees, top=3),
        "timeline": timeline,
        "findings": findings,
        "injections": list(injections or ()),
        "window": window,
    }


def _event_label(event: typing.Mapping[str, typing.Any]) -> str:
    kind = event.get("kind")
    if kind == "alert":
        site = event.get("alert_site")
        return "[{}] {}{}: {}".format(
            event.get("severity", "?"), event.get("rule", "?"),
            " s{}".format(site) if site is not None else "",
            str(event.get("message", ""))[:120])
    if kind == "epoch-commit":
        return "epoch -> {}".format(event.get("epoch"))
    if kind == "fault":
        victim = event.get("victim")
        return "injected {}{}".format(
            event.get("fault", "fault"),
            " on s{}".format(victim) if victim is not None else "")
    if kind == "server-start":
        return "server started (epoch {})".format(event.get("epoch", 0))
    extras = {key: value for key, value in event.items()
              if key not in ("t", "mono", "kind", "type")}
    return "{} {}".format(kind, extras) if extras else str(kind)


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


def _findings(latest: typing.Mapping[int, Bundle],
              missing_sites: typing.List[int],
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

    down_times: typing.Dict[int, typing.List[float]] = {}
    for entry in alert_entries("site-down"):
        site = entry.get("alert_site")
        if isinstance(site, int):
            down_times.setdefault(site, []).append(entry["t"])
    dark = sorted(set(missing_sites) | set(down_times))
    for site in dark:
        times = down_times.get(site, [])
        window = [min(times), max(times)] if times else None
        parts = []
        if site in missing_sites:
            parts.append("no bundle recovered")
        if times:
            parts.append("site-down critical fired {} time(s)".format(
                len(times)))
        findings.append({
            "kind": "site-down",
            "site": site,
            "window": window,
            "summary": "s{} dark: {}".format(site, ", ".join(parts)),
            "evidence": len(times) + (1 if site in missing_sites else 0),
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
        _FINDING_ORDER.index(finding["kind"])
        if finding["kind"] in _FINDING_ORDER else len(_FINDING_ORDER),
        -finding["evidence"]))
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


def format_report(analysis: typing.Mapping[str, typing.Any],
                  timeline_limit: int = 60) -> str:
    """Terminal rendering of one :func:`analyze` result."""
    lines: typing.List[str] = []
    sites = ", ".join("s{}".format(site) for site in analysis["sites"])
    header = "postmortem: {} bundle(s) from {}".format(
        len(analysis["bundles"]), sites or "no site")
    if analysis["missing_sites"]:
        header += " (missing: {})".format(", ".join(
            "s{}".format(site) for site in analysis["missing_sites"]))
    lines.append(header)
    for bundle in analysis["bundles"]:
        lines.append(
            "  s{}: {} record(s), {} span(s), trigger {!r}, epoch {}, "
            "git {}".format(
                bundle["site"], bundle["records"], bundle["spans"],
                bundle["trigger"], bundle["epoch"], bundle["git_sha"]))

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
        lines.append("  no anomaly localized (clean bundles)")

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
    shown = timeline[-max(0, timeline_limit):]
    lines.append("timeline ({} of {} entr{}):".format(
        len(shown), len(timeline),
        "y" if len(timeline) == 1 else "ies"))
    for entry in shown:
        lines.append("  {:>10} s{:<2} {:<6} {}".format(
            _rel(analysis, entry.get("t")),
            entry.get("site", "?"), entry.get("kind", "?"),
            entry.get("label", "")))
    return "\n".join(lines)
