"""Per-site black-box flight recorder.

Every :class:`~repro.cluster.server.SiteServer` carries a
:class:`FlightRecorder`: a bounded, low-overhead record of the recent
past — the span tail (shared with :class:`~repro.obs.trace.TraceSink`'s
ring, not copied), a ring of notable events (epoch commits, alerts,
lifecycle, injected faults), and pluggable state sources (WAL/journal
positions with their durability sub-dicts, applied-version
watermarks), plus the metric registry's snapshot taken at dump time.
Steady-state cost is a deque append per event; nothing is sampled or
serialized until a dump.

On a trigger — watchdog critical, chaos verdict failure, the ``dump``
wire op, SIGTERM, a fatal exception, or a manual ``repro dump`` — the
recorder freezes its recent past into a versioned **incident bundle**:
one JSONL file whose first line is a manifest (site id, epoch, git
SHA, trigger, wall + monotonic clocks, record counts) and whose
remaining lines are typed records.  The write is atomic (temp file +
``os.replace``) so a reader never sees a half bundle, and record
gathering is separated from file IO so a server can gather on its
event loop and write in an executor without stalling acks.

:func:`validate_bundle` is the schema check behind ``repro postmortem
--check``.

:mod:`repro.obs.postmortem` merges bundles from every site of an
incident into one causally ordered cross-site timeline.
"""

from __future__ import annotations

import collections
import json
import os
import time
import typing

#: Bundle format version (bump on incompatible record changes).
BUNDLE_VERSION = 1

#: Record types a bundle may carry beyond the manifest.  Unknown types
#: are tolerated by the validator (forward compatibility) but each
#: record must declare one.
RECORD_TYPES = ("event", "span", "metrics", "state")

#: Bundle filename pattern (``site``, ``sequence``).
BUNDLE_NAME = "flight-s{}-{:03d}.jsonl"


def repo_git_sha(start: typing.Optional[str] = None) -> str:
    """Best-effort short git SHA of the checkout containing ``start``.

    Reads ``.git/HEAD`` directly (no subprocess — a dump may run in a
    signal-adjacent path where forking is unwelcome).  Returns
    ``"unknown"`` outside a git checkout.
    """
    directory = os.path.abspath(start or os.path.dirname(__file__))
    try:
        while True:
            head_path = os.path.join(directory, ".git", "HEAD")
            if os.path.exists(head_path):
                with open(head_path, "r", encoding="utf-8") as handle:
                    head = handle.read().strip()
                if head.startswith("ref:"):
                    ref = head.partition(":")[2].strip()
                    ref_path = os.path.join(directory, ".git", *ref.split("/"))
                    if os.path.exists(ref_path):
                        with open(ref_path, "r", encoding="utf-8") as handle:
                            return handle.read().strip()[:12] or "unknown"
                    packed = os.path.join(directory, ".git", "packed-refs")
                    if os.path.exists(packed):
                        with open(packed, "r", encoding="utf-8") as handle:
                            for line in handle:
                                line = line.strip()
                                if line.endswith(ref) and " " in line:
                                    return line.split(" ", 1)[0][:12]
                    return "unknown"
                return head[:12] or "unknown"
            parent = os.path.dirname(directory)
            if parent == directory:
                return "unknown"
            directory = parent
    except OSError:
        return "unknown"


class FlightRecorder:
    """Bounded black-box recorder for one site.

    Parameters
    ----------
    site:
        The site id stamped into every bundle.
    trace:
        The site's :class:`~repro.obs.trace.TraceSink` (or ``None``);
        its existing ring *is* the span buffer, no copy is kept here.
    metrics:
        The site's :class:`~repro.obs.registry.MetricsRegistry` (or
        ``None``); the bundle's ``metrics`` snapshot comes from it.
    epoch:
        Zero-argument callable returning the site's current
        configuration epoch at dump time.
    cluster:
        Static cluster facts for the manifest (``n_sites``,
        ``protocol``, ``seed``, ...) so a postmortem can detect dark
        sites without the spec.
    default_dir:
        Directory dumps land in when the trigger names none.
    """

    def __init__(self, site: int,
                 trace=None,
                 metrics=None,
                 epoch: typing.Optional[typing.Callable[[], int]] = None,
                 cluster: typing.Optional[typing.Mapping[str,
                                                         typing.Any]] = None,
                 default_dir: typing.Optional[str] = None,
                 max_events: int = 512,
                 span_limit: int = 4096):
        self.site = int(site)
        self.trace = trace
        self.metrics = metrics
        self._epoch = epoch if epoch is not None else (lambda: 0)
        self.cluster = dict(cluster or {})
        self.default_dir = default_dir
        self.span_limit = int(span_limit)
        self._events: typing.Deque[typing.Dict[str, typing.Any]] = \
            collections.deque(maxlen=int(max_events))
        self._sources: typing.Dict[str, typing.Callable[[], typing.Any]] \
            = {}
        self.dumps = 0
        self.last_dump_path: typing.Optional[str] = None
        self.last_dump_records = 0

    # ------------------------------------------------------------------
    # Continuous capture (hot path; must stay cheap)
    # ------------------------------------------------------------------

    def add_source(self, name: str,
                   fn: typing.Callable[[], typing.Any]) -> None:
        """Register a state source sampled once per dump.  ``fn`` must
        return something JSON-serializable; a raising source degrades
        to an error record, it never fails the dump."""
        self._sources[str(name)] = fn

    def record_event(self, kind: str, **fields) -> typing.Dict[str,
                                                               typing.Any]:
        """Append one notable event (epoch commit, alert, fault,
        lifecycle) to the bounded event ring."""
        event: typing.Dict[str, typing.Any] = {
            "t": time.time(),
            "mono": time.monotonic(),
            "kind": str(kind),
        }
        for key, value in fields.items():
            if value is not None:
                event[key] = value
        self._events.append(event)
        return event

    # ------------------------------------------------------------------
    # Dumping
    # ------------------------------------------------------------------

    def gather(self, trigger: str
               ) -> typing.Tuple[typing.Dict[str, typing.Any],
                                 typing.List[typing.Dict[str, typing.Any]]]:
        """Freeze the recent past: returns ``(manifest, records)``.

        Pure in-memory work (no file IO) so a live server can gather on
        its event loop and hand the write to an executor.
        """
        self.dumps += 1
        records: typing.List[typing.Dict[str, typing.Any]] = []
        for event in self._events:
            records.append(dict(event, type="event"))
        dropped_spans = 0
        if self.trace is not None:
            dropped_spans = getattr(self.trace, "dropped", 0)
            for span in self.trace.spans(limit=self.span_limit):
                records.append(dict(span, type="span"))
        if self.metrics is not None:
            records.append({"type": "metrics", "t": time.time(),
                            "snapshot": self.metrics.snapshot()})
        for name, fn in sorted(self._sources.items()):
            try:
                value = fn()
            except Exception as exc:  # noqa: BLE001 - degrade, don't fail
                records.append({"type": "state", "name": name,
                                "t": time.time(),
                                "error": "{}: {}".format(
                                    type(exc).__name__, exc)})
                continue
            records.append({"type": "state", "name": name,
                            "t": time.time(), "state": value})
        counts: typing.Dict[str, int] = {}
        for record in records:
            counts[record["type"]] = counts.get(record["type"], 0) + 1
        manifest = {
            "type": "manifest",
            "version": BUNDLE_VERSION,
            "site": self.site,
            "epoch": int(self._epoch()),
            "git_sha": repo_git_sha(),
            "trigger": str(trigger),
            "wall_t": time.time(),
            "mono_t": time.monotonic(),
            "cluster": dict(self.cluster),
            "sequence": self.dumps,
            "dropped_spans": dropped_spans,
            "counts": counts,
        }
        return manifest, records

    def bundle_path(self, out_dir: typing.Optional[str],
                    sequence: int) -> str:
        directory = out_dir or self.default_dir or os.getcwd()
        return os.path.join(directory,
                            BUNDLE_NAME.format(self.site, sequence))

    def dump(self, trigger: str,
             out_dir: typing.Optional[str] = None) -> str:
        """Gather and write one bundle atomically; returns its path.

        Synchronous — the signal-handler / fatal-exception entry.  Live
        servers use :meth:`dump_async` to keep the write off the loop.
        """
        manifest, records = self.gather(trigger)
        path = self.bundle_path(out_dir, manifest["sequence"])
        write_bundle(path, manifest, records)
        self.last_dump_path = path
        self.last_dump_records = len(records)
        return path

    async def dump_async(self, trigger: str,
                         out_dir: typing.Optional[str] = None) -> str:
        """Like :meth:`dump`, but the file write runs in the default
        executor so a dump under load never blocks the event loop (and
        therefore never delays an ack)."""
        import asyncio

        manifest, records = self.gather(trigger)
        path = self.bundle_path(out_dir, manifest["sequence"])
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, write_bundle, path, manifest,
                                   records)
        self.last_dump_path = path
        self.last_dump_records = len(records)
        return path


# ----------------------------------------------------------------------
# Bundle file IO
# ----------------------------------------------------------------------

def write_bundle(path: str, manifest: typing.Mapping[str, typing.Any],
                 records: typing.Iterable[typing.Mapping[str, typing.Any]]
                 ) -> None:
    """Write one bundle atomically: temp file, flush+fsync, rename.

    A crash mid-dump leaves at worst a ``*.tmp`` orphan; the bundle
    path either holds a complete bundle or nothing.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, sort_keys=True,
                                default=_json_default) + "\n")
        for record in records:
            handle.write(json.dumps(record, sort_keys=True,
                                    default=_json_default) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _json_default(value: typing.Any) -> typing.Any:
    """Last-resort encoder: incident evidence must never fail to
    serialize — a foreign object degrades to its repr."""
    return repr(value)


def load_bundle(path: str
                ) -> typing.Tuple[typing.Dict[str, typing.Any],
                                  typing.List[typing.Dict[str, typing.Any]]]:
    """Load one bundle; returns ``(manifest, records)``.

    Raises :class:`ValueError` when the first line is not a manifest
    (use :func:`validate_bundle` for a non-raising check).  Torn or
    unparsable trailing lines are skipped — atomic writes make them
    impossible for our own bundles, but a postmortem must also survive
    a bundle truncated in transit.
    """
    manifest: typing.Optional[typing.Dict[str, typing.Any]] = None
    records: typing.List[typing.Dict[str, typing.Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for index, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict):
                continue
            if index == 0:
                if record.get("type") != "manifest":
                    raise ValueError(
                        "{}: first record is not a manifest".format(path))
                manifest = record
            else:
                records.append(record)
    if manifest is None:
        raise ValueError("{}: empty or unreadable bundle".format(path))
    return manifest, records


def validate_bundle(path: str) -> typing.List[str]:
    """Schema check of one bundle file; returns problems (empty =
    valid).  The check behind ``repro postmortem --check``.  The
    schema requires the manifest and typed records, not any particular
    record population."""
    problems: typing.List[str] = []
    try:
        manifest, records = load_bundle(path)
    except (OSError, ValueError) as exc:
        return ["{}".format(exc)]
    if not isinstance(manifest.get("version"), int) or \
            manifest["version"] < 1:
        problems.append("manifest version is not a positive int")
    for key, kinds in (("site", int), ("trigger", str),
                       ("git_sha", str)):
        if not isinstance(manifest.get(key), kinds):
            problems.append("manifest {!r} missing or mistyped".format(key))
    for key in ("wall_t", "mono_t"):
        if not isinstance(manifest.get(key), (int, float)):
            problems.append("manifest {!r} is not a number".format(key))
    if not isinstance(manifest.get("epoch"), int):
        problems.append("manifest 'epoch' is not an int")
    if not isinstance(manifest.get("counts"), dict):
        problems.append("manifest 'counts' is not an object")
    counts: typing.Dict[str, int] = {}
    for index, record in enumerate(records):
        kind = record.get("type")
        if not isinstance(kind, str):
            problems.append("record {} missing 'type'".format(index + 1))
            continue
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "span":
            if not isinstance(record.get("t"), (int, float)) or \
                    not isinstance(record.get("site"), int) or \
                    not isinstance(record.get("event"), str):
                problems.append(
                    "span record {} lacks t/site/event".format(index + 1))
        elif kind == "event":
            if not isinstance(record.get("t"), (int, float)) or \
                    not isinstance(record.get("kind"), str):
                problems.append(
                    "event record {} lacks t/kind".format(index + 1))
        elif kind == "state":
            if not isinstance(record.get("name"), str):
                problems.append(
                    "state record {} lacks a name".format(index + 1))
    declared = manifest.get("counts")
    if isinstance(declared, dict) and declared != counts:
        problems.append(
            "manifest counts {} do not match records {}".format(
                declared, counts))
    return problems


def bundle_paths(directory: str) -> typing.List[str]:
    """Bundle files inside ``directory`` (sorted, non-recursive)."""
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return []
    return [os.path.join(directory, name) for name in names
            if name.startswith("flight-s") and name.endswith(".jsonl")]
