"""Stitch per-site span records into propagation trees.

Each origin transaction's spans — emitted independently at every site it
touched (:mod:`repro.obs.trace`) — are grouped by trace id and folded
into one :class:`PropagationTree`: the origin commit at the root, one
hop per replica site with its received → journaled → applied
timestamps, and the end-to-end **propagation delay** (origin commit to
last expected replica apply).  This is the paper's Sec. 5.3.4 measure,
taken on real sockets.

All sites of a cluster run on one host and share its clock
(``time.time()``), so cross-site deltas are directly meaningful.  The
simulator's spans (``repro run --trace``) carry its virtual time in
``now`` beside that wall time; over them the trees match the
simulator's own propagation bookkeeping.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.harness.metrics import percentile

#: Hop events recorded per replica site, in their causal order.
HOP_EVENTS = ("received", "journaled", "applied")

#: Per-hop latency components, in hot-path order.  They telescope:
#: ``queue`` + ``wal`` span commit→forward on the sender (channel
#: queueing vs the WAL group-commit barrier, split by the ``wal``
#: stamp on the forwarded span), ``wire`` spans forward→receive
#: (socket, receiver read + apply-queue wait + decode), and ``apply``
#: spans receive→apply (journal append, kernel drive, queue processor).
#: With all four span events present the components sum to the hop
#: delay *exactly* — attribution is a partition of measured time, not
#: an estimate.
HOP_COMPONENTS = ("queue", "wal", "wire", "apply")


@dataclasses.dataclass
class PropagationTree:
    """One origin transaction's reconstructed propagation fan-out."""

    trace: str
    #: Origin site, from the ``committed`` span (``None`` if that span
    #: was never captured — e.g. it fell off a ring).
    origin: typing.Optional[int] = None
    #: Wall-clock time of the origin commit.
    committed_t: typing.Optional[float] = None
    #: Replica sites the origin expected to reach.
    expected: typing.List[int] = dataclasses.field(default_factory=list)
    #: Per replica site: earliest wall-clock time of each hop event.
    hops: typing.Dict[int, typing.Dict[str, float]] = \
        dataclasses.field(default_factory=dict)
    #: Every span of this trace, ordered by wall-clock time.
    events: typing.List[typing.Dict[str, typing.Any]] = \
        dataclasses.field(default_factory=list)

    @property
    def applied_sites(self) -> typing.List[int]:
        """Replica sites that durably applied the update."""
        return sorted(site for site, marks in self.hops.items()
                      if "applied" in marks)

    @property
    def complete(self) -> bool:
        """True when the origin commit was captured and every expected
        replica applied."""
        return (self.committed_t is not None and self.expected != [] and
                set(self.expected) <= set(self.applied_sites))

    def applied_at(self, site: int) -> typing.Optional[float]:
        return self.hops.get(site, {}).get("applied")

    @property
    def delay(self) -> typing.Optional[float]:
        """End-to-end propagation delay: origin commit → last expected
        replica apply.  ``None`` until the tree is complete."""
        if not self.complete:
            return None
        return max(self.applied_at(site) for site in self.expected) \
            - self.committed_t


def reconstruct(spans: typing.Iterable[typing.Mapping[str, typing.Any]]
                ) -> typing.Dict[str, PropagationTree]:
    """Group spans (from any number of sites) into per-trace trees."""
    by_trace: typing.Dict[str, typing.List[typing.Dict]] = {}
    for span in spans:
        trace = span.get("trace")
        if isinstance(trace, str):
            by_trace.setdefault(trace, []).append(dict(span))
    trees: typing.Dict[str, PropagationTree] = {}
    for tid, trace_spans in sorted(by_trace.items()):
        trees[tid] = _build_tree(tid, trace_spans)
    return trees


def _build_tree(trace: str,
                spans: typing.List[typing.Dict[str, typing.Any]]
                ) -> PropagationTree:
    tree = PropagationTree(trace=trace)
    tree.events = sorted(spans, key=lambda span: span.get("t", 0.0))
    for span in tree.events:
        event = span.get("event")
        site = span.get("site")
        wall = span.get("t")
        if not isinstance(site, int) or not isinstance(wall, (int, float)):
            continue
        if event == "committed":
            # Re-forwards after a crash re-emit nothing here; keep the
            # first commit instant we saw.
            if tree.committed_t is None:
                tree.origin = site
                tree.committed_t = float(wall)
                expected = span.get("expected")
                if isinstance(expected, list):
                    tree.expected = sorted(int(s) for s in expected)
        elif event in HOP_EVENTS and site != tree.origin:
            marks = tree.hops.setdefault(site, {})
            if event not in marks or wall < marks[event]:
                marks[event] = float(wall)
    return tree


def propagation_summary(trees: typing.Mapping[str, PropagationTree]
                        ) -> typing.Dict[str, typing.Any]:
    """Aggregate delay statistics over many trees (seconds).

    ``count`` is every trace observed; ``propagating`` those whose
    origin committed replicated writes (read-only and unreplicated
    transactions have no fan-out to measure); ``complete`` those whose
    full fan-out was captured.  The percentiles run over complete trees
    only (an incomplete tree has no honest end-to-end delay).
    """
    delays = [tree.delay for tree in trees.values()
              if tree.delay is not None]
    return {
        "count": len(trees),
        "propagating": sum(1 for tree in trees.values()
                           if tree.expected),
        "complete": len(delays),
        "p50": percentile(delays, 50.0),
        "p95": percentile(delays, 95.0),
        "max": max(delays, default=0.0),
        "mean": (sum(delays) / len(delays)) if delays else 0.0,
    }


# ----------------------------------------------------------------------
# Critical-path latency attribution
# ----------------------------------------------------------------------

def hop_attributions(tree: PropagationTree
                     ) -> typing.Dict[int, typing.Dict[str, typing.Any]]:
    """Attribute each replica hop's delay to :data:`HOP_COMPONENTS`.

    Per replica site with an applied mark, the hop's **anchor** is the
    moment the update became available at its forwarder — the origin
    commit, or the upstream relay's own apply — and the hop delay
    ``applied - anchor`` is partitioned along the span timestamps::

        anchor ──queue+wal── forwarded ──wire── received ──apply── applied

    Attribution degrades to partial, never fails: a hop whose
    ``forwarded`` or ``received`` span is missing (lost with its site)
    keeps its measurable segments and banks the rest in
    ``unattributed``, so components + unattributed always sum to
    the hop delay.
    """
    hops: typing.Dict[int, typing.Dict[str, typing.Any]] = {}
    if tree.committed_t is None:
        return hops
    # Earliest forward toward each replica, with its sender and the
    # WAL-barrier stamp the transport put on the span.
    forwards: typing.Dict[int, typing.Tuple[float, float,
                                            typing.Optional[int]]] = {}
    for span in tree.events:
        if span.get("event") != "forwarded":
            continue
        peer = span.get("peer")
        wall = span.get("t")
        if not isinstance(peer, int) or \
                not isinstance(wall, (int, float)):
            continue
        if peer not in forwards or wall < forwards[peer][0]:
            wal = span.get("wal")
            src = span.get("site")
            forwards[peer] = (
                float(wall),
                float(wal) if isinstance(wal, (int, float)) else 0.0,
                src if isinstance(src, int) else None)
    for site, marks in tree.hops.items():
        applied = tree.applied_at(site)
        if applied is None:
            continue
        forward = forwards.get(site)
        src = forward[2] if forward is not None else None
        anchor = tree.committed_t
        if src is not None and src != tree.origin:
            upstream = tree.applied_at(src)
            if upstream is not None and upstream > anchor:
                anchor = upstream
        total = max(0.0, applied - anchor)
        components = {name: 0.0 for name in HOP_COMPONENTS}
        received = marks.get("received")
        if forward is not None and received is not None and \
                anchor <= forward[0] <= received <= applied:
            pre_wire = forward[0] - anchor
            components["wal"] = min(forward[1], pre_wire)
            components["queue"] = pre_wire - components["wal"]
            components["wire"] = received - forward[0]
            components["apply"] = applied - received
        elif received is not None and anchor <= received <= applied:
            # No forward span (sender's spans lost, ring overflow): only
            # the receiver side is measurable.
            components["apply"] = applied - received
        # else: applied only — nothing to partition.
        unattributed = max(0.0, total - sum(components.values()))
        hops[site] = {
            "site": site,
            "src": src,
            "anchor": anchor,
            "applied": applied,
            "total": total,
            "components": components,
            "unattributed": unattributed,
        }
    return hops


def attribute_tree(tree: PropagationTree
                   ) -> typing.Optional[typing.Dict[str, typing.Any]]:
    """Critical-path attribution of one tree's end-to-end latency.

    The critical path is the relay chain from the origin to the
    slowest replica (expected replicas when the tree is complete, any
    observed hop otherwise), followed backwards through each hop's
    forwarder.  Because every hop's anchor is its forwarder's apply
    instant, the chain's hop delays telescope — summing their
    components reproduces the end-to-end delay, any gap (a missing
    upstream span) lands in ``unattributed``.
    """
    hops = hop_attributions(tree)
    if not hops or tree.committed_t is None:
        return None
    candidates = [site for site in
                  (tree.expected if tree.complete else hops)
                  if site in hops]
    if not candidates:
        return None
    target = max(candidates, key=lambda site: hops[site]["applied"])
    total = max(0.0, hops[target]["applied"] - tree.committed_t)
    path: typing.List[int] = []
    seen: typing.Set[int] = set()
    site: typing.Optional[int] = target
    while site is not None and site in hops and site not in seen:
        seen.add(site)
        path.append(site)
        src = hops[site]["src"]
        site = src if (src is not None and src != tree.origin
                       and src in hops) else None
    path.reverse()
    components = {name: 0.0 for name in HOP_COMPONENTS}
    for hop_site in path:
        for name in HOP_COMPONENTS:
            components[name] += hops[hop_site]["components"][name]
    unattributed = max(0.0, total - sum(components.values()))
    full_path = ([tree.origin] if tree.origin is not None else []) + path
    return {
        "trace": tree.trace,
        "complete": tree.complete,
        "target": target,
        "path": full_path,
        "total": total,
        "components": components,
        "unattributed": unattributed,
    }


def attribution_summary(trees: typing.Mapping[str, PropagationTree],
                        top: int = 5) -> typing.Dict[str, typing.Any]:
    """Aggregate attribution over every observed hop (seconds).

    ``coverage`` is the attributed share of total hop time — 1.0 when
    every hop carried all four span events; missing spans degrade it
    instead of breaking.  ``top`` critical-path
    breakdowns of the slowest complete trees ride along for the
    "which traces should I stare at" question.
    """
    per_component: typing.Dict[str, typing.List[float]] = {
        name: [] for name in HOP_COMPONENTS}
    totals: typing.List[float] = []
    unattributed_s = 0.0
    attributed_hops = 0
    for tree in trees.values():
        for hop in hop_attributions(tree).values():
            totals.append(hop["total"])
            unattributed_s += hop["unattributed"]
            if hop["total"] == 0.0 or \
                    hop["unattributed"] <= 0.05 * hop["total"]:
                attributed_hops += 1
            for name in HOP_COMPONENTS:
                per_component[name].append(hop["components"][name])
    total_s = sum(totals)
    components: typing.Dict[str, typing.Dict[str, float]] = {}
    for name in HOP_COMPONENTS:
        values = per_component[name]
        component_total = sum(values)
        components[name] = {
            "total_s": component_total,
            "share": (component_total / total_s) if total_s else 0.0,
            "mean_s": (component_total / len(values)) if values else 0.0,
            "p95_s": percentile(values, 95.0),
        }
    slowest = sorted(
        (tree for tree in trees.values() if tree.delay is not None),
        key=lambda tree: tree.delay, reverse=True)
    top_paths = []
    for tree in slowest[:max(0, top)]:
        attributed = attribute_tree(tree)
        if attributed is not None:
            top_paths.append(attributed)
    return {
        "hops": len(totals),
        "attributed_hops": attributed_hops,
        "total_s": total_s,
        "unattributed_s": unattributed_s,
        "coverage": ((total_s - unattributed_s) / total_s)
        if total_s else 1.0,
        "components": components,
        "top": top_paths,
    }


def _ms(seconds: float) -> str:
    return "{:.2f}ms".format(seconds * 1000.0)


def format_attribution(summary: typing.Mapping[str, typing.Any]) -> str:
    """Render an :func:`attribution_summary` as the aggregate table +
    top-k critical paths."""
    lines = ["latency attribution: {} hops, {:.1f}% of hop time "
             "attributed".format(summary["hops"],
                                 summary["coverage"] * 100.0)]
    lines.append("  {:<10} {:>10} {:>7} {:>10} {:>10}".format(
        "component", "total", "share", "mean", "p95"))
    for name in HOP_COMPONENTS:
        component = summary["components"][name]
        lines.append("  {:<10} {:>10} {:>6.1f}% {:>10} {:>10}".format(
            name, _ms(component["total_s"]),
            component["share"] * 100.0,
            _ms(component["mean_s"]), _ms(component["p95_s"])))
    if summary["unattributed_s"] > 0.0:
        lines.append("  {:<10} {:>10} {:>6.1f}%".format(
            "(other)", _ms(summary["unattributed_s"]),
            (summary["unattributed_s"] / summary["total_s"] * 100.0)
            if summary["total_s"] else 0.0))
    for attributed in summary.get("top", ()):
        lines.append("  " + format_attributed_path(attributed))
    return "\n".join(lines)


def format_attributed_path(attributed: typing.Mapping[str, typing.Any]
                           ) -> str:
    """One-line critical-path rendering of an :func:`attribute_tree`."""
    path = "→".join("s{}".format(site)
                         for site in attributed["path"])
    parts = ["{} {}".format(name, _ms(attributed["components"][name]))
             for name in HOP_COMPONENTS
             if attributed["components"][name] > 0.0]
    if attributed["unattributed"] > 0.0:
        parts.append("other {}".format(_ms(attributed["unattributed"])))
    return "{}  {} via {}  [{}]".format(
        attributed["trace"], _ms(attributed["total"]), path,
        "  ".join(parts) if parts else "no span detail")


def format_tree(tree: PropagationTree) -> str:
    """Human-readable rendering of one propagation tree."""

    def ms(delta: typing.Optional[float]) -> str:
        return "?" if delta is None else "+{:.1f}ms".format(delta * 1000)

    header = tree.trace
    if tree.origin is not None:
        header += "  origin s{} committed".format(tree.origin)
        if tree.expected:
            header += "  expects {}".format(
                ",".join("s{}".format(site) for site in tree.expected))
    else:
        header += "  (origin commit not captured)"
    lines = [header]
    base = tree.committed_t
    for site in sorted(tree.hops):
        marks = tree.hops[site]
        stages = []
        for event in HOP_EVENTS:
            if event in marks:
                delta = marks[event] - base if base is not None else None
                stages.append("{} {}".format(event, ms(delta)))
        lines.append("  └─ s{}: {}".format(site, "  ".join(stages)))
    if tree.complete:
        lines.append("  complete, propagation delay {}".format(
            ms(tree.delay)))
    else:
        missing = sorted(set(tree.expected) - set(tree.applied_sites))
        lines.append("  incomplete{}".format(
            " (missing {})".format(
                ",".join("s{}".format(site) for site in missing))
            if missing else ""))
    return "\n".join(lines)
