"""Live terminal dashboard for a running cluster (``repro top``).

Polls every site over the monitoring plane (``stats`` + ``trace`` via
the failure-tolerant ``try_each`` fan-out, plus one watchdog poll) and
renders a single-screen view: per-site commit/abort rates, apply-queue
depth, replica version lag (the watchdog's sample, so it follows the
placement across epochs), WAL sync latency, end-to-end
propagation-delay percentiles, and the watchdog's active alerts.  A
dead member stays on the board as ``DOWN`` — disappearing rows are how
outages get missed.

On a TTY the screen redraws in place each interval (ANSI home+clear);
without one (CI logs, pipes) ``repro top`` degrades to a single-shot
snapshot: two quick polls to derive rates, one plain-text render, exit
zero.  All layout is pure string building over the sampled model, so
tests can render deterministically without a terminal.
"""

from __future__ import annotations

import asyncio
import time
import typing

from repro.obs.monitor import MonitorConfig, Watchdog
from repro.obs.reconstruct import propagation_summary, reconstruct

if typing.TYPE_CHECKING:  # pragma: no cover
    # Runtime import would be circular (cluster imports repro.obs).
    from repro.cluster.client import ClusterClient
    from repro.cluster.spec import ClusterSpec

#: Hot-path stage histograms behind the ``stage`` column: short label
#: -> instrument name, in pipeline order.  The column shows the stage
#: with the largest share of the summed per-stage p95 — a one-glance
#: answer to "where is this site spending its time right now".
STAGE_HISTOGRAMS = (
    ("read", "server.read_wait_s"),
    ("decode", "server.decode_s"),
    ("queue", "server.queue_wait_s"),
    ("wal", "wal.barrier_wait_s"),
    ("journal", "server.journal_wait_s"),
    ("drive", "server.drive_s"),
    ("apply", "server.apply_s"),
    ("encode", "server.encode_s"),
    ("write", "server.write_s"),
)


def top_stage(histograms: typing.Mapping[str, typing.Any]
              ) -> typing.Optional[typing.Tuple[str, float]]:
    """``(label, share)`` for the dominant stage, or None if no stage
    histogram has recorded anything (idle sites)."""
    p95s: typing.Dict[str, float] = {}
    for label, name in STAGE_HISTOGRAMS:
        hist = histograms.get(name) or {}
        p95 = hist.get("p95")
        if hist.get("count") and p95:
            p95s[label] = p95
    if not p95s:
        return None
    total = sum(p95s.values())
    label = max(p95s, key=lambda key: p95s[key])
    return label, p95s[label] / total


def _rate(delta: float, elapsed: float) -> float:
    return delta / elapsed if elapsed > 0 else 0.0


def model_json(model: typing.Mapping[str, typing.Any]
               ) -> typing.Dict[str, typing.Any]:
    """The sampled model as plain JSON types (``repro top --json``):
    Alert objects become their ``to_json`` dicts and the top-stage
    tuple a ``[label, share]`` pair; everything else is already
    serialisable."""
    payload = dict(model)
    payload["alerts"] = [alert.to_json()
                         for alert in model.get("alerts") or []]
    rows = []
    for row in model.get("rows", ()):
        row = dict(row)
        stage = row.get("top_stage")
        row["top_stage"] = list(stage) if stage else None
        rows.append(row)
    payload["rows"] = rows
    return payload


def _fmt_ms(seconds: typing.Optional[float]) -> str:
    if seconds is None:
        return "-"
    return "{:.1f}ms".format(seconds * 1000.0)


class Dashboard:
    """Samples one cluster into a render-ready model.

    Separated into :meth:`sample` (pure data) and :meth:`render`
    (pure string) so the refresh loop, the single-shot mode and the
    tests all share the exact same pipeline.
    """

    def __init__(self, spec: "ClusterSpec", client: "ClusterClient",
                 interval: float = 1.0, trace_limit: int = 5000,
                 watchdog: typing.Optional[Watchdog] = None):
        self.spec = spec
        self.client = client
        self.interval = interval
        self.trace_limit = trace_limit
        if watchdog is None:
            config = MonitorConfig(interval=interval,
                                   convergence_every=0,
                                   trace_limit=0)
            watchdog = Watchdog(spec, client, config=config)
        self.watchdog = watchdog
        #: Previous poll's cumulative counters, for rate derivation.
        self._prev: typing.Dict[int, typing.Dict[str, float]] = {}
        self._prev_t: typing.Optional[float] = None

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    async def sample(self) -> typing.Dict[str, typing.Any]:
        """One poll of every site, folded into the display model."""
        now = time.monotonic()
        elapsed = (now - self._prev_t) if self._prev_t is not None \
            else 0.0
        self._prev_t = now

        stats_resp, down = await self.client.try_each("stats")
        await self.watchdog.poll_once()
        lag_by_site = self.watchdog.lag_by_site

        rows = []
        total_commit_rate = 0.0
        for site in sorted(self.spec.addresses()):
            row: typing.Dict[str, typing.Any] = {
                "site": site,
                "up": site not in down,
                "lag": lag_by_site.get(site, 0),
            }
            snapshot = (stats_resp.get(site) or {}).get("stats") or {}
            counters = snapshot.get("counters", {})
            gauges = snapshot.get("gauges", {})
            histograms = snapshot.get("histograms", {})
            committed = counters.get("txn.committed", 0)
            aborted = counters.get("txn.aborted", 0)
            row["committed"] = committed
            queue = gauges.get("server.apply_queue", {})
            row["queue"] = int(queue.get("value", 0))
            row["queue_hwm"] = int(queue.get("high_water", 0))
            drive = histograms.get("server.drive_s") or {}
            row["drive_p95_s"] = drive.get("p95") if drive.get("count") \
                else None
            wal = histograms.get("wal.sync_s") or {}
            row["wal_p95_s"] = wal.get("p95") if wal.get("count") \
                else None
            row["top_stage"] = top_stage(histograms)
            previous = self._prev.get(site)
            if previous is not None and elapsed > 0 and row["up"]:
                row["commit_rate"] = _rate(
                    committed - previous["committed"], elapsed)
                row["abort_rate"] = _rate(
                    aborted - previous["aborted"], elapsed)
            else:
                row["commit_rate"] = 0.0
                row["abort_rate"] = 0.0
            if row["up"]:
                self._prev[site] = {"committed": committed,
                                    "aborted": aborted}
            total_commit_rate += row["commit_rate"]
            rows.append(row)

        propagation = None
        if self.trace_limit > 0:
            trace_resp, _ = await self.client.try_each(
                "trace", limit=self.trace_limit)
            spans: typing.List[typing.Dict] = []
            for response in trace_resp.values():
                spans.extend(response.get("spans", ()))
            if spans:
                propagation = propagation_summary(reconstruct(spans))

        return {
            "t": time.time(),
            "elapsed": elapsed,
            "rows": rows,
            "down": sorted(down),
            "total_commit_rate": total_commit_rate,
            "propagation": propagation,
            "alerts": [alert for alert
                       in self.watchdog.active_alerts()],
        }

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render(self, model: typing.Mapping[str, typing.Any]) -> str:
        spec = self.spec
        lines = []
        lines.append(
            "repro top — {} sites  protocol {}  seed {}  "
            "{}".format(spec.params.n_sites, spec.protocol, spec.seed,
                        time.strftime("%H:%M:%S",
                                      time.localtime(model["t"]))))
        lines.append(
            "cluster commit rate {:6.1f} txn/s".format(
                model["total_commit_rate"]))
        propagation = model.get("propagation")
        if propagation and propagation["complete"]:
            lines.append(
                "propagation delay: p50 {}  p95 {}  max {}  "
                "[{} complete / {} propagating]".format(
                    _fmt_ms(propagation["p50"]),
                    _fmt_ms(propagation["p95"]),
                    _fmt_ms(propagation["max"]),
                    propagation["complete"],
                    propagation["propagating"]))
        lines.append("")
        lines.append(
            "site  state  commit/s  abort/s  applyq  lag  "
            "drive p95  wal p95        stage")
        for row in model["rows"]:
            state = "up" if row["up"] else "DOWN"
            stage = row.get("top_stage")
            stage_cell = "{} {:.0f}%".format(stage[0], stage[1] * 100) \
                if stage else "-"
            lines.append(
                "s{:<4} {:<5} {:>8.1f} {:>8.1f} {:>7} {:>4} "
                "{:>9} {:>8} {:>12}".format(
                    row["site"], state, row["commit_rate"],
                    row["abort_rate"], row["queue"], row["lag"],
                    _fmt_ms(row["drive_p95_s"]),
                    _fmt_ms(row["wal_p95_s"]), stage_cell))
        alerts = model.get("alerts") or []
        lines.append("")
        if alerts:
            lines.append("active alerts:")
            for alert in alerts:
                lines.append("  " + alert.format())
        else:
            lines.append("active alerts: none")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # Drive modes
    # ------------------------------------------------------------------

    async def run(self, out: typing.TextIO,
                  iterations: typing.Optional[int] = None,
                  clear: bool = True) -> None:
        """Refresh loop: sample, redraw, sleep; ``iterations=None``
        runs until cancelled (Ctrl-C in the CLI)."""
        count = 0
        while iterations is None or count < iterations:
            model = await self.sample()
            frame = self.render(model)
            if clear:
                # Home + clear-below keeps the last frame on an
                # interrupt, unlike a full screen wipe.
                out.write("\x1b[H\x1b[J" + frame)
            else:
                out.write(frame)
            out.flush()
            count += 1
            if iterations is not None and count >= iterations:
                return
            await asyncio.sleep(self.interval)

    async def snapshot(self, out: typing.TextIO,
                       warmup: float = 0.3) -> None:
        """Non-TTY degradation: two polls (to derive rates), one
        plain-text frame, no escape codes."""
        await self.sample()
        await asyncio.sleep(warmup)
        model = await self.sample()
        out.write(self.render(model))
        out.flush()

    async def snapshot_json(self, warmup: float = 0.3
                            ) -> typing.Dict[str, typing.Any]:
        """Single-shot machine-readable snapshot: the same two-poll
        pipeline as :meth:`snapshot`, returning the model as JSON-safe
        data instead of a rendered frame."""
        await self.sample()
        await asyncio.sleep(warmup)
        return model_json(await self.sample())
