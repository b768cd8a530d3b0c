"""Prometheus text exposition of a metrics-registry snapshot.

Renders any :meth:`repro.obs.registry.MetricsRegistry.snapshot` dict in
the Prometheus text format (version 0.0.4): counters become
``*_total`` families, gauges become two gauge families (the value and
its ``*_high_water`` mark), and ``le``-bucket histograms become the
canonical ``*_bucket``/``*_sum``/``*_count`` triple with a cumulative
``+Inf`` bucket.  The renderer works from the *snapshot*, not the live
registry, so the same code serves the in-process HTTP scrape endpoint,
the ``metrics`` wire request, and offline tooling fed a JSON snapshot.

Name mapping:

- registry names are namespaced and sanitised (``wal.sync_s`` →
  ``repro_wal_sync_s``; any character outside ``[a-zA-Z0-9_:]``
  becomes ``_``);
- counters gain the conventional ``_total`` suffix;
- the per-peer families the transport registers (``net.resent.s<dst>``,
  ``net.dedup_dropped.s<src>``) fold into one family with a
  ``peer="<id>"`` label instead of exploding into per-peer names.

A disabled registry renders to an **empty-but-valid** exposition: the
``repro_obs_enabled 0`` gauge and nothing else, so a scrape of a
``--no-obs`` member is distinguishable from a scrape failure.  Every
exposition carries ``repro_obs_enabled`` — it doubles as a liveness
canary for the monitoring plane itself.
"""

from __future__ import annotations

import re
import typing

#: Content-Type an HTTP scrape response must declare.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_PEER_SUFFIX = re.compile(r"^(?P<base>.+)\.s(?P<peer>\d+)$")

#: Grammar of a rendered exposition, used by :func:`validate_exposition`
#: (and the golden-format test) to keep the output scrapeable.
_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"'
_SAMPLE_LINE = re.compile(
    r"^(?P<name>{name})(?:\{{(?:{label})(?:,(?:{label}))*\}})? "
    r"(?P<value>[^ ]+)$".format(name=_METRIC_NAME, label=_LABEL))
_COMMENT_LINE = re.compile(
    r"^# (?P<kind>HELP|TYPE) (?P<name>{name})(?: (?P<rest>.*))?$".format(
        name=_METRIC_NAME))


def _sanitize(name: str, namespace: str) -> str:
    return "{}_{}".format(namespace, _NAME_OK.sub("_", name))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: typing.Union[int, float, None]) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return "{0:g}".format(value)


def _format_labels(labels: typing.Mapping[str, str]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(
        '{}="{}"'.format(key, _escape_label(str(value)))
        for key, value in sorted(labels.items())) + "}"


def _split_peer(name: str) -> typing.Tuple[
        str, typing.Optional[str]]:
    """``net.resent.s1`` → ``("net.resent", "1")``; plain names pass
    through."""
    match = _PEER_SUFFIX.match(name)
    if match:
        return match.group("base"), match.group("peer")
    return name, None


class _Family:
    """One metric family: TYPE/HELP header plus its sample lines."""

    def __init__(self, name: str, kind: str, help_text: str):
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.samples: typing.List[typing.Tuple[
            str, typing.Dict[str, str],
            typing.Union[int, float, None]]] = []

    def add(self, suffix: str, labels: typing.Mapping[str, str],
            value: typing.Union[int, float, None]) -> None:
        self.samples.append((suffix, dict(labels), value))

    def render(self) -> typing.List[str]:
        lines = [
            "# HELP {} {}".format(self.name,
                                  _escape_help(self.help_text)),
            "# TYPE {} {}".format(self.name, self.kind),
        ]
        # Insertion order is kept: the registry snapshot iterates its
        # sections name-sorted already, and histogram buckets must stay
        # in edge order (lexicographic label sorting would put
        # le="1024" before le="16").
        for suffix, labels, value in self.samples:
            lines.append("{}{}{} {}".format(
                self.name, suffix, _format_labels(labels),
                _format_value(value)))
        return lines


def render_exposition(snapshot: typing.Mapping[str, typing.Any],
                      labels: typing.Optional[
                          typing.Mapping[str, str]] = None,
                      namespace: str = "repro") -> str:
    """Render one registry snapshot as Prometheus exposition text.

    ``labels`` (e.g. ``{"site": "1"}``) are attached to every sample.
    The output is deterministic: families sorted by name, samples in
    the snapshot's (name-sorted) iteration order with histogram
    buckets in edge order — rendering the same snapshot twice yields
    byte-identical text (the golden test relies on this).
    """
    base = dict(labels or {})
    enabled = bool(snapshot.get("enabled"))
    families: typing.Dict[str, _Family] = {}

    def family(name: str, kind: str, help_text: str) -> _Family:
        existing = families.get(name)
        if existing is None:
            existing = families[name] = _Family(name, kind, help_text)
        return existing

    canary = family(namespace + "_obs_enabled", "gauge",
                    "1 when this member's metrics registry is "
                    "recording, 0 for a --no-obs member.")
    canary.add("", base, 1 if enabled else 0)

    for name, value in snapshot.get("counters", {}).items():
        plain, peer = _split_peer(name)
        sample_labels = dict(base)
        if peer is not None:
            sample_labels["peer"] = peer
        family(_sanitize(plain, namespace) + "_total", "counter",
               plain).add("", sample_labels, value)

    for name, gauge in snapshot.get("gauges", {}).items():
        plain, peer = _split_peer(name)
        sample_labels = dict(base)
        if peer is not None:
            sample_labels["peer"] = peer
        family(_sanitize(plain, namespace), "gauge",
               plain).add("", sample_labels, gauge.get("value"))
        family(_sanitize(plain, namespace) + "_high_water", "gauge",
               plain + " (high-water mark)").add(
                   "", sample_labels, gauge.get("high_water"))

    for name, hist in snapshot.get("histograms", {}).items():
        fam = family(_sanitize(name, namespace), "histogram", name)
        edges = hist.get("buckets", [])
        counts = hist.get("counts", [])
        cumulative = 0
        for edge, count in zip(edges, counts):
            cumulative += count
            fam.add("_bucket",
                    dict(base, le=_format_value(float(edge))),
                    cumulative)
        fam.add("_bucket", dict(base, le="+Inf"), hist.get("count", 0))
        fam.add("_sum", base, hist.get("sum", 0.0))
        fam.add("_count", base, hist.get("count", 0))

    lines: typing.List[str] = []
    for name in sorted(families):
        lines.extend(families[name].render())
    return "\n".join(lines) + "\n"


def validate_exposition(text: str) -> None:
    """Raise :class:`ValueError` unless ``text`` is well-formed
    Prometheus text exposition (the subset this module emits).

    Checks line grammar, that every sample's family was TYPE-declared
    before it, that values parse as floats, and that each histogram's
    ``+Inf`` bucket equals its ``_count`` — the invariants a scraper
    relies on.
    """
    if not text.endswith("\n"):
        raise ValueError("exposition must end with a newline")
    declared: typing.Dict[str, str] = {}
    inf_buckets: typing.Dict[str, float] = {}
    counts: typing.Dict[str, float] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line:
            raise ValueError("blank line {}".format(number))
        if line.startswith("#"):
            match = _COMMENT_LINE.match(line)
            if match is None:
                raise ValueError(
                    "malformed comment on line {}: {!r}".format(
                        number, line))
            if match.group("kind") == "TYPE":
                declared[match.group("name")] = match.group("rest")
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError("malformed sample on line {}: {!r}".format(
                number, line))
        name = match.group("name")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and \
                    declared.get(name[:-len(suffix)]) == "histogram":
                base = name[:-len(suffix)]
        if base not in declared:
            raise ValueError(
                "sample {!r} on line {} precedes its TYPE "
                "declaration".format(name, number))
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ValueError(
                "non-numeric value on line {}: {!r}".format(
                    number, match.group("value")))
        if name.endswith("_bucket") and 'le="+Inf"' in line:
            inf_buckets[base] = value
        elif name.endswith("_count") and base != name:
            counts[base] = value
    for base, total in counts.items():
        if inf_buckets.get(base) != total:
            raise ValueError(
                "histogram {!r}: +Inf bucket {} != count {}".format(
                    base, inf_buckets.get(base), total))
