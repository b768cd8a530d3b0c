"""Low-overhead metrics registry: counters, gauges, histograms.

Design constraints, in order:

1. **Cheap on the hot path.**  An increment is one lock acquire and one
   integer add; a histogram observation is a bisect into a fixed bucket
   table.  No strings are formatted, no timestamps taken, nothing is
   allocated per observation.  There is no off switch: what the
   instruments cost is the ledger's ``obs.*`` rows.
2. **Thread- and task-safe.**  The live server runs one asyncio
   coroutine per connection, and tests (plus future multi-threaded
   frontends) hammer instruments from worker threads; every mutation
   holds the instrument's own lock, so counts are exact, not "close
   enough".

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-safe dicts
served by the cluster ``stats`` wire request; their shape is pinned by
:func:`validate_snapshot` (used by ``repro stats --check`` and CI).
"""

from __future__ import annotations

import bisect
import threading
import typing

#: Default latency buckets (seconds): ~100 us to 10 s, geometric-ish.
LATENCY_BUCKETS_S: typing.Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value that also remembers its high-water mark."""

    __slots__ = ("name", "_value", "_high_water", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._high_water = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value
            if value > self._high_water:
                self._high_water = value

    @property
    def value(self) -> float:
        return self._value

    @property
    def high_water(self) -> float:
        return self._high_water

    def snapshot(self) -> typing.Dict[str, float]:
        return {"value": self._value, "high_water": self._high_water}


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    Bucket semantics are cumulative-friendly "less than or equal":
    an observation lands in the first bucket whose upper edge is
    ``>= value``; anything above the last edge lands in the overflow
    bucket.  Observing a value exactly equal to an edge counts toward
    that edge's bucket (Prometheus ``le`` semantics).

    :meth:`percentile` returns an upper-bound estimate — the edge of
    the bucket containing the requested rank (the exact maximum for the
    overflow bucket) — which is what fixed buckets can honestly offer.
    """

    __slots__ = ("name", "edges", "_counts", "_count", "_sum",
                 "_min", "_max", "_lock")

    def __init__(self, name: str,
                 buckets: typing.Sequence[float] = LATENCY_BUCKETS_S):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(
                "histogram buckets must be a non-empty ascending "
                "sequence, got {!r}".format(buckets))
        self.name = name
        self.edges = tuple(float(edge) for edge in buckets)
        self._counts = [0] * (len(self.edges) + 1)  # +1 overflow
        self._count = 0
        self._sum = 0.0
        self._min: typing.Optional[float] = None
        self._max: typing.Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.edges, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def percentile(self, pct: float) -> float:
        """Upper-bound estimate of the ``pct``-th percentile."""
        with self._lock:
            return bucket_percentile(self.edges, self._counts,
                                     self._count, self._max, pct)

    def snapshot(self) -> typing.Dict[str, typing.Any]:
        with self._lock:
            snap = {
                "buckets": list(self.edges),
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
            }
            # Pre-derived quantiles (upper-bound estimates, like
            # :meth:`percentile`): consumers — dashboard, loadgen
            # report, alert rules — read these instead of re-deriving
            # from the raw buckets, which stay in the schema for
            # anything needing a different cut.
            for pct, key in ((50.0, "p50"), (95.0, "p95"),
                             (99.0, "p99")):
                snap[key] = bucket_percentile(
                    self.edges, self._counts, self._count, self._max,
                    pct)
            return snap


class MetricsRegistry:
    """Named instruments for one process (typically one site server).

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking
    for an existing name returns the same instrument (asking with a
    different instrument type raises).
    """

    def __init__(self):
        self._instruments: typing.Dict[str, typing.Any] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, cls, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = factory()
            elif not isinstance(instrument, cls):
                raise TypeError(
                    "metric {!r} already registered as {}, not {}".format(
                        name, type(instrument).__name__, cls.__name__))
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str,
                  buckets: typing.Sequence[float] = LATENCY_BUCKETS_S
                  ) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, buckets))

    def snapshot(self) -> typing.Dict[str, typing.Any]:
        """JSON-safe snapshot of every instrument, grouped by type."""
        counters: typing.Dict[str, int] = {}
        gauges: typing.Dict[str, typing.Any] = {}
        histograms: typing.Dict[str, typing.Any] = {}
        with self._lock:
            instruments = list(self._instruments.items())
        for name, instrument in sorted(instruments):
            if isinstance(instrument, Counter):
                counters[name] = instrument.snapshot()
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.snapshot()
            elif isinstance(instrument, Histogram):
                histograms[name] = instrument.snapshot()
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}


def bucket_percentile(edges: typing.Sequence[float],
                      counts: typing.Sequence[int], total: int,
                      maximum: typing.Optional[float],
                      pct: float) -> float:
    """Upper-bound ``pct``-th percentile of a fixed-bucket histogram.

    The single implementation behind :meth:`Histogram.percentile` and
    snapshot pre-derivation: the edge of the bucket containing the
    requested rank, or the exact maximum for the overflow bucket.
    """
    if not 0.0 <= pct <= 100.0:
        raise ValueError("percentile {} outside [0, 100]".format(pct))
    if total == 0:
        return 0.0
    rank = max(1, -(-total * pct // 100))  # ceil
    seen = 0
    for index, bucket_count in enumerate(counts):
        seen += bucket_count
        if seen >= rank:
            if index < len(edges):
                return float(edges[index])
            break
    return float(maximum) if maximum is not None else 0.0


def validate_snapshot(obj: typing.Any) -> None:
    """Raise :class:`ValueError` unless ``obj`` is a well-formed
    registry snapshot (the ``stats`` wire schema CI asserts against)."""

    def fail(detail: str) -> typing.NoReturn:
        raise ValueError("invalid stats snapshot: " + detail)

    if not isinstance(obj, dict):
        fail("not an object")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(obj.get(section), dict):
            fail("missing object section {!r}".format(section))
    for name, value in obj["counters"].items():
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 0:
            fail("counter {!r} is not a non-negative int".format(name))
    for name, value in obj["gauges"].items():
        if not isinstance(value, dict) or \
                not all(isinstance(value.get(key), (int, float))
                        for key in ("value", "high_water")):
            fail("gauge {!r} lacks value/high_water numbers".format(name))
    for name, value in obj["histograms"].items():
        if not isinstance(value, dict):
            fail("histogram {!r} is not an object".format(name))
        buckets, counts = value.get("buckets"), value.get("counts")
        if not isinstance(buckets, list) or not isinstance(counts, list) \
                or len(counts) != len(buckets) + 1:
            fail("histogram {!r} bucket/count shape mismatch".format(name))
        if not all(isinstance(count, int) and count >= 0
                   for count in counts):
            fail("histogram {!r} has invalid counts".format(name))
        if not isinstance(value.get("count"), int) or \
                value["count"] != sum(counts):
            fail("histogram {!r} count disagrees with buckets".format(
                name))
        if not isinstance(value.get("sum"), (int, float)):
            fail("histogram {!r} lacks a sum".format(name))
        for key in ("p50", "p95", "p99"):
            # Optional for hand-built fixtures, but when present (every
            # registry-produced snapshot) they must be numbers.
            if key in value and not isinstance(value[key],
                                               (int, float)):
                fail("histogram {!r} has non-numeric {}".format(
                    name, key))
