"""Update-propagation tracing, shared by the simulator and the live
cluster.

Every origin (primary) transaction gets a **trace id** derived
deterministically from its global transaction id (:func:`trace_id`).
Deterministic derivation is the crash-safety trick: a restarted site
re-forwarding committed primaries from its WAL or a receiver replaying
its inbox journal derives exactly the same trace id from the message
payload (:func:`message_trace_id`) without any volatile lookup table,
and nothing rides on the wire beside the payload.

Each site appends timestamped **span records** to its
:class:`TraceSink`: a bounded in-memory ring (served live by the
``trace`` wire request) plus an optional JSONL file next to the WAL.
Span events along one update's life:

``committed → forwarded → received → journaled → applied → forwarded
→ ...`` (plus ``replayed`` on the recovery path).
:mod:`repro.obs.reconstruct` builds trees from ``committed`` and the
hop events ``received``/``journaled``/``applied``, and attribution
splits each hop at ``forwarded``.

:class:`SpanObserver` turns the protocols' commit notifications into
``committed``/``applied`` spans; the live server and ``repro run
--trace`` register the same observer.

:mod:`repro.obs.reconstruct` stitches spans from all sites back into
the origin→replica propagation tree with per-hop latencies.
"""

from __future__ import annotations

import collections
import json
import time
import typing

from repro.types import GlobalTransactionId

# Pre-built: ``json.dumps`` with keyword arguments constructs an encoder
# per call, and the flush below runs on the site's event loop.
_encode_span = json.JSONEncoder(separators=(",", ":")).encode

#: Span events a sink may emit (documented set; not enforced, so new
#: instrumentation points don't need a lockstep edit here).
SPAN_EVENTS = (
    "committed",     # origin: primary committed (expected replicas known)
    "forwarded",     # sender: message bytes left on a peer channel
    "received",      # receiver: frame entry accepted (post-dedup)
    "journaled",     # receiver: durable-class message journalled
    "applied",       # replica: secondary subtransaction committed
    "replayed",      # receiver: re-delivered from the inbox journal
)


def trace_id(gid: GlobalTransactionId) -> str:
    """The trace id of the origin transaction ``gid`` (deterministic)."""
    return "t{}.{}".format(gid.site, gid.seq)


def message_trace_id(message) -> typing.Optional[str]:
    """Trace id of the origin transaction ``message`` derives from.

    Any payload carrying a ``gid`` (secondary/backedge/special
    subtransactions, 2PC rounds, wounds, lock traffic) derives from
    exactly that transaction; control traffic (``RECONFIG``, ``DUMMY``)
    derives from none and carries no trace.
    """
    gid = message.payload.get("gid")
    return trace_id(gid) if isinstance(gid, GlobalTransactionId) \
        else None


class TraceSink:
    """Per-site span recorder: bounded ring + optional JSONL file.

    The ring keeps the **tail** — the newest ``capacity`` spans — and
    counts what it overwrote (``dropped``); the live ``trace`` wire
    request serves from it.  With ``path`` set, every span is also
    appended to a JSONL file so offline reconstruction survives the
    process.  File serialization is deferred: :meth:`emit` only queues
    the span dict (keeping json encoding off the server's hot path) and
    the JSONL is written on :meth:`flush` / :meth:`close` or when the
    queue reaches ``flush_every`` spans — few enough that one flush takes
    the event loop for a few milliseconds, not for a p99's worth.
    """

    def __init__(self, site_id: int,
                 path: typing.Optional[str] = None,
                 capacity: int = 65536,
                 flush_every: int = 512):
        self.site_id = site_id
        self.path = str(path) if path is not None else None
        self.capacity = int(capacity)
        self.flush_every = int(flush_every)
        self._ring: typing.Deque[typing.Dict[str, typing.Any]] = \
            collections.deque(maxlen=self.capacity)
        self._total = 0
        self._pending: typing.List[typing.Dict[str, typing.Any]] = []
        self._handle: typing.Optional[typing.TextIO] = None
        self._closed = False

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Spans overwritten in the ring (still in the file, if any)."""
        return self._total - len(self._ring)

    def emit(self, event: str, trace: typing.Optional[str] = None,
             **fields) -> typing.Dict[str, typing.Any]:
        """Record one span; returns the span dict.

        Canonical optional ``fields``: ``gid`` (a
        :class:`GlobalTransactionId`, encoded as ``[site, seq]``),
        ``now`` (site-local virtual time), ``peer`` (the other site of
        a hop), ``type`` (wire message type), ``site`` (overrides the
        sink's own id where one sink records several sites), plus
        free-form extras.
        """
        span: typing.Dict[str, typing.Any] = {
            "t": time.time(),
            "site": self.site_id,
            "event": event,
        }
        if trace is not None:
            span["trace"] = trace
        gid = fields.pop("gid", None)
        if gid is not None:
            span["gid"] = [gid.site, gid.seq]
            if trace is None:
                span["trace"] = trace_id(gid)
        for key, value in fields.items():
            if value is not None:
                span[key] = value
        self._ring.append(span)
        self._total += 1
        if self.path is not None:
            self._pending.append(span)
            # Write-through once closed: teardown orders transport
            # shutdown before the sink close, but an in-flight apply
            # task can still emit a late span — deferring it to a
            # flush that will never come loses it silently.
            if len(self._pending) >= self.flush_every or self._closed:
                self.flush()
        return span

    def spans(self, trace: typing.Optional[str] = None,
              limit: typing.Optional[int] = None
              ) -> typing.List[typing.Dict[str, typing.Any]]:
        """Newest-last spans from the ring, optionally filtered to one
        trace id."""
        if trace is None:
            selected = list(self._ring)
        else:
            selected = [span for span in self._ring
                        if span.get("trace") == trace]
        if limit is not None and len(selected) > limit:
            selected = selected[-limit:]
        return selected

    def flush(self) -> None:
        """Serialize queued spans to the JSONL file (lazy-opened)."""
        if self.path is None or not self._pending:
            return
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        pending, self._pending = self._pending, []
        self._handle.write("".join(
            _encode_span(span) + "\n" for span in pending))
        self._handle.flush()
        if self._closed:
            self._handle.close()
            self._handle = None

    def close(self) -> None:
        """Flush everything queued and close the file.  The sink stays
        usable: later spans (teardown stragglers) write straight
        through instead of queueing behind ``flush_every``."""
        self._closed = True
        self.flush()
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class SpanObserver:
    """System observer turning the protocols' commit notifications into
    ``committed`` and ``applied`` spans on ``sink``.

    The notifying ``site`` rides on each span, so one sink serves a
    live site and a whole simulated system alike; ``now`` is the
    kernel's virtual time of the commit.
    """

    def __init__(self, sink: TraceSink):
        self.sink = sink

    def on_primary_commit(self, gid: GlobalTransactionId, site: int,
                          time: float,
                          expected_replicas: typing.Set[int]) -> None:
        self.sink.emit("committed", gid=gid, site=site, now=time,
                       expected=sorted(expected_replicas))

    def on_replica_commit(self, gid: GlobalTransactionId, site: int,
                          time: float) -> None:
        self.sink.emit("applied", gid=gid, site=site, now=time)


def load_trace_file(path: str
                    ) -> typing.List[typing.Dict[str, typing.Any]]:
    """Load one site's span JSONL (tolerates a torn last line)."""
    spans: typing.List[typing.Dict[str, typing.Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                span = json.loads(line)
            except ValueError:
                continue  # torn tail of a crashed writer
            if isinstance(span, dict):
                spans.append(span)
    return spans
