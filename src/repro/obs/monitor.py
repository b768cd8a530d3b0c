"""Online invariant watchdog for a live cluster.

The passive telemetry plane (``versions``/``trace``/``status``) measures
the paper's guarantees; this module *watches* them while the cluster is
serving.  A :class:`Watchdog` polls every site on an interval and
evaluates live rules derived from the offline oracles:

``site-down``
    A member stopped answering the lightweight ``versions`` request for
    consecutive polls.  Critical — every other guarantee degrades from
    here.
``lag-slo``
    A replica trails its primary by more committed versions than the
    staleness SLO allows (Sec. 5.3.4's recency claim, enforced instead
    of merely measured).  Unreachable replicas are judged from their
    last known versions and flagged as such.  Each poll's lags stay
    readable on the watchdog (:attr:`Watchdog.lags`,
    :attr:`Watchdog.lag_by_site`): the one live lag computation, read
    by ``repro top`` and the load generator's recency summary.
``stuck-propagation``
    A committed primary update did not reach an expected replica within
    the deadline.  Localised via the propagation trees of
    :mod:`repro.obs.reconstruct`: the alert goes to the first site on
    the update's path from its origin to the replica that lacks it (the
    path down the protocol's propagation tree when updates relay along
    one, else the direct copy-graph edge), and the evidence names that
    hop (origin → first site lacking it) and the stuck trace ids.  The
    deadline runs from when the site before that hop had the update, so
    an update stuck at a dead relay is blamed on the relay, not on every
    replica behind it, nor on a replica it has only just reached.
``divergence``
    Sampled convergence: two copies report the **same committed
    version with different values**.  With the paper's writer-lineage
    propagation that is impossible in a correct run, so any hit is
    critical.

Alerts are structured (rule, severity, site, message, evidence) and
**deduplicated** by ``(rule, site)``: a persisting condition updates
``last_seen``/``count`` instead of re-emitting, and each *first* firing
(or severity escalation) is appended to a JSONL sink for CI artifacts.
``repro monitor --check`` turns the critical count into an exit code.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import time
import typing

from repro.obs.reconstruct import reconstruct

if typing.TYPE_CHECKING:  # pragma: no cover
    # Runtime import would be circular (cluster imports repro.obs);
    # the watchdog only needs the client/spec duck types anyway.
    from repro.cluster.client import ClusterClient
    from repro.cluster.spec import ClusterSpec

#: Severity order, mildest first.
SEVERITIES = ("warning", "critical")


@dataclasses.dataclass
class MonitorConfig:
    """Thresholds of the live rules (the alert rule catalogue's knobs —
    see ``docs/OBSERVABILITY.md`` for what each alert means)."""

    #: Poll period, seconds.
    interval: float = 0.5
    #: Replica version lag that degrades recency (warning).
    lag_warn: int = 4
    #: Replica version-lag SLO; beyond it the alert is critical.
    lag_critical: int = 16
    #: Seconds a committed update may remain un-applied at an expected
    #: replica before its propagation counts as stuck.
    stuck_deadline: float = 5.0
    #: Run the sampled convergence check every N polls (0 disables).
    convergence_every: int = 5
    #: Consecutive unreachable polls before ``site-down`` fires.
    down_polls: int = 2
    #: Per-site span-fetch cap for stuck-propagation localisation
    #: (0 disables the trace fetch and the rule with it).
    trace_limit: int = 20000
    #: Only judge propagation of updates committed after the watchdog
    #: started.  Span rings are volatile: a replica that applied an
    #: old update and then crashed (or restarted) can never re-show
    #: the evidence, so pre-watch history would read as stuck forever.
    stuck_ignore_history: bool = True
    #: Most items/traces quoted in one alert's evidence.
    max_evidence: int = 5


@dataclasses.dataclass
class Alert:
    """One deduplicated finding of the watchdog."""

    rule: str
    severity: str
    site: typing.Optional[int]
    message: str
    evidence: typing.Dict[str, typing.Any]
    first_seen: float
    last_seen: float
    count: int = 1

    def to_json(self) -> typing.Dict[str, typing.Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "site": self.site,
            "message": self.message,
            "evidence": self.evidence,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "count": self.count,
        }

    def format(self) -> str:
        where = "s{}".format(self.site) if self.site is not None \
            else "cluster"
        return "[{}] {} {}: {}".format(self.severity.upper(),
                                       self.rule, where, self.message)


class AlertSink:
    """Append-only JSONL alert log (the CI artifact).

    With ``max_bytes`` set the log rotates: an emit that would push the
    file past the cap first shifts ``path`` to ``path.1`` (and older
    generations to ``.2`` … up to ``backups``, the oldest dropped), so
    an unbounded ``repro monitor`` run keeps the newest ~``max_bytes *
    (backups + 1)`` bytes of alerts instead of growing without bound.
    ``max_bytes=None`` (the default) keeps the original append-only
    behaviour."""

    def __init__(self, path: typing.Optional[str],
                 max_bytes: typing.Optional[int] = None,
                 backups: int = 3):
        self.path = path
        self.max_bytes = int(max_bytes) if max_bytes else None
        self.backups = max(0, int(backups))
        self._handle: typing.Optional[typing.TextIO] = None
        self._size = 0

    def emit(self, alert: Alert) -> None:
        if self.path is None:
            return
        record = dict(alert.to_json(), t=time.time())
        line = json.dumps(record, sort_keys=True) + "\n"
        if self._handle is None:
            self._open()
        if self.max_bytes is not None and self._size > 0 and \
                self._size + len(line) > self.max_bytes:
            self._rotate()
        self._handle.write(line)
        self._handle.flush()
        self._size += len(line)

    def _open(self) -> None:
        self._handle = open(self.path, "a", encoding="utf-8")
        try:
            self._size = os.path.getsize(self.path)
        except OSError:
            self._size = 0

    def _rotate(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        try:
            if self.backups > 0:
                for index in range(self.backups - 1, 0, -1):
                    src = "{}.{}".format(self.path, index)
                    if os.path.exists(src):
                        os.replace(src,
                                   "{}.{}".format(self.path, index + 1))
                os.replace(self.path, self.path + ".1")
            else:
                os.remove(self.path)
        except OSError:
            pass  # rotation is best-effort; keep appending regardless
        self._open()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class Watchdog:
    """Polls one live cluster and evaluates the online invariants.

    Built on the client's failure-tolerant ``try_each`` fan-out: a
    dead member is an *observation* (and usually the alert), never a
    reason to lose the poll.
    """

    def __init__(self, spec: "ClusterSpec", client: "ClusterClient",
                 config: typing.Optional[MonitorConfig] = None,
                 sink_path: typing.Optional[str] = None,
                 on_alert: typing.Optional[
                     typing.Callable[[Alert], None]] = None,
                 sink_max_bytes: typing.Optional[int] = None):
        self.spec = spec
        self.client = client
        self.config = config or MonitorConfig()
        self.sink = AlertSink(sink_path, max_bytes=sink_max_bytes)
        self.on_alert = on_alert
        self.polls = 0
        #: Deduplicated alerts, insertion-ordered.
        self.alerts: typing.Dict[typing.Tuple[str, typing.Optional[int]],
                                 Alert] = {}
        #: Membership and (item, primary, replica) pairs of the *current
        #: epoch*, not the boot-time spec: an epoch transition
        #: (repro.reconfig) re-fetches the placement from the cluster,
        #: so lag is judged against live replica sets and a removed
        #: member stops paging site-down.
        self._epoch = spec.epoch
        self._pairs: typing.List[typing.Tuple[int, int, int]] = []
        self._members: typing.Set[int] = set()
        self._rebuild_pairs(spec.build_placement())
        #: Each site's parent in the propagation tree of the current
        #: epoch (``None``: updates go straight to replicas); fetched
        #: from the cluster the first time an update is stuck.
        self._tree: typing.Optional[typing.List[typing.Optional[int]]] = \
            None
        self._tree_known = False
        #: Last known committed versions per site (kept across polls so
        #: a dead replica is judged against what it had).
        self._versions: typing.Dict[int, typing.Dict[str, int]] = {}
        self._down_streak: typing.Dict[int, int] = {}
        #: The latest poll's replica lags in committed versions, over
        #: the current epoch's pairs: one entry per judged pair, and the
        #: worst per replica site.
        self.lags: typing.List[int] = []
        self.lag_by_site: typing.Dict[int, int] = {}
        self._started = time.time()
        self._stopping = asyncio.Event()

    # ------------------------------------------------------------------
    # Alert bookkeeping
    # ------------------------------------------------------------------

    def _fire(self, fired: typing.List[Alert], rule: str, severity: str,
              site: typing.Optional[int], message: str,
              evidence: typing.Dict[str, typing.Any]) -> None:
        now = time.time()
        key = (rule, site)
        existing = self.alerts.get(key)
        if existing is None:
            alert = Alert(rule=rule, severity=severity, site=site,
                          message=message, evidence=evidence,
                          first_seen=now, last_seen=now)
            self.alerts[key] = alert
            self.sink.emit(alert)
            if self.on_alert is not None:
                self.on_alert(alert)
            fired.append(alert)
            return
        existing.last_seen = now
        existing.count += 1
        existing.message = message
        existing.evidence = evidence
        if SEVERITIES.index(severity) > \
                SEVERITIES.index(existing.severity):
            existing.severity = severity
            self.sink.emit(existing)  # escalation is worth a record
            if self.on_alert is not None:
                self.on_alert(existing)
            fired.append(existing)

    @property
    def critical_count(self) -> int:
        return sum(1 for alert in self.alerts.values()
                   if alert.severity == "critical")

    @property
    def warning_count(self) -> int:
        return sum(1 for alert in self.alerts.values()
                   if alert.severity == "warning")

    def active_alerts(self, within_s: typing.Optional[float] = None
                      ) -> typing.List[Alert]:
        """Alerts still firing (seen within ``within_s``; defaults to
        three poll intervals)."""
        if within_s is None:
            within_s = 3 * self.config.interval
        horizon = time.time() - within_s
        return [alert for alert in self.alerts.values()
                if alert.last_seen >= horizon]

    def summary(self) -> typing.Dict[str, typing.Any]:
        by_rule: typing.Dict[str, int] = {}
        for alert in self.alerts.values():
            by_rule[alert.rule] = by_rule.get(alert.rule, 0) + 1
        return {
            "polls": self.polls,
            "epoch": self._epoch,
            "critical": self.critical_count,
            "warning": self.warning_count,
            "by_rule": dict(sorted(by_rule.items())),
            "alerts": [alert.to_json()
                       for alert in self.alerts.values()],
        }

    def close(self) -> None:
        self.sink.close()

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------

    async def poll_once(self) -> typing.List[Alert]:
        """One evaluation round; returns alerts fired or escalated."""
        from repro.cluster.codec import decode_value

        config = self.config
        fired: typing.List[Alert] = []
        self.polls += 1

        responses, unreachable = await self.client.try_each("versions")
        top_epoch = self._epoch
        for site, response in responses.items():
            self._versions[site] = decode_value(response["versions"])
            self._down_streak[site] = 0
            top_epoch = max(top_epoch, int(response.get("epoch", 0)))
        if top_epoch != self._epoch:
            await self._refresh_placement()
        for site in unreachable:
            streak = self._down_streak.get(site, 0) + 1
            self._down_streak[site] = streak
            if site not in self._members:
                # Removed from the replication plane in the current
                # epoch: its absence is expected, not an incident.
                continue
            if streak >= config.down_polls:
                self._fire(
                    fired, "site-down", "critical", site,
                    "site s{} unreachable for {} consecutive "
                    "polls".format(site, streak),
                    {"streak": streak, "epoch": self._epoch})
        self._check_lag(fired, set(unreachable))

        if config.trace_limit > 0:
            await self._check_stuck(fired)
        if config.convergence_every > 0 and \
                self.polls % config.convergence_every == 0:
            await self._check_convergence(fired)
        return fired

    async def run(self, duration: typing.Optional[float] = None
                  ) -> None:
        """Poll on the configured interval until ``duration`` elapses
        (``None``: until :meth:`request_stop`)."""
        deadline = (time.monotonic() + duration
                    if duration is not None else None)
        while not self._stopping.is_set():
            await self.poll_once()
            if deadline is not None and time.monotonic() >= deadline:
                return
            try:
                await asyncio.wait_for(self._stopping.wait(),
                                       self.config.interval)
            except asyncio.TimeoutError:
                pass

    def request_stop(self) -> None:
        self._stopping.set()

    # ------------------------------------------------------------------
    # Epoch-aware membership
    # ------------------------------------------------------------------

    def _rebuild_pairs(self, placement) -> None:
        """Derive the judged (item, primary, replica) pairs and the
        member set from a placement.  A member is any site holding at
        least one copy — a fully drained site (``remove-site``) is no
        longer part of the replication plane."""
        self._pairs = []
        for item in placement.items:
            primary = placement.primary_site(item)
            for replica in placement.replica_sites(item):
                self._pairs.append((item, primary, replica))
        self._members = {site for site in range(placement.n_sites)
                         if placement.items_at(site)}

    async def _refresh_placement(self) -> None:
        """A member reported a newer epoch: adopt the maximal-epoch
        placement the cluster serves and re-derive pairs/membership."""
        from repro.graph.placement import DataPlacement

        responses, _ = await self.client.try_each("placement")
        if not responses:
            return
        best = max(responses.values(),
                   key=lambda response: int(response.get("epoch", 0)))
        epoch = int(best.get("epoch", 0))
        if epoch <= self._epoch:
            return
        self._epoch = epoch
        self._rebuild_pairs(DataPlacement.from_json(best["placement"]))
        self._tree, self._tree_known = best.get("tree"), True

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    def _check_lag(self, fired: typing.List[Alert],
                   unreachable: typing.Set[int]) -> None:
        """Replica version-lag SLO over the latest known versions."""
        config = self.config
        worst: typing.Dict[int, typing.List[typing.Tuple[int, str, int]]] \
            = {}
        self.lags = []
        self.lag_by_site = {}
        for item, primary, replica in self._pairs:
            primary_version = self._versions.get(primary, {}).get(item)
            replica_version = self._versions.get(replica, {}).get(item)
            if primary_version is None or replica_version is None:
                continue
            if primary in unreachable:
                # A dead primary's last-known version cannot grow, so
                # judging live replicas against it would only shrink
                # lag — skip rather than understate.
                continue
            lag = max(0, primary_version - replica_version)
            self.lags.append(lag)
            self.lag_by_site[replica] = max(
                self.lag_by_site.get(replica, 0), lag)
            if lag >= config.lag_warn:
                worst.setdefault(replica, []).append(
                    (lag, item, primary))
        for replica, entries in sorted(worst.items()):
            entries.sort(reverse=True)
            max_lag = entries[0][0]
            severity = ("critical" if max_lag >= config.lag_critical
                        else "warning")
            evidence = {
                "max_lag": max_lag,
                "slo": config.lag_critical,
                "pairs": [{"item": item, "primary": primary,
                           "lag": lag}
                          for lag, item, primary
                          in entries[:config.max_evidence]],
                "unreachable": replica in unreachable,
            }
            self._fire(
                fired, "lag-slo", severity, replica,
                "replica s{} trails by up to {} committed versions "
                "(SLO {}{})".format(
                    replica, max_lag, config.lag_critical,
                    "; site unreachable, judged from last known "
                    "versions" if replica in unreachable else ""),
                evidence)

    async def _check_stuck(self, fired: typing.List[Alert]) -> None:
        """Committed updates past the propagation deadline, localised
        to the first site on their path that lacks them."""
        from repro.cluster.client import ClusterError

        config = self.config
        try:
            spans = await self._fetch_spans()
        except (ClusterError, OSError, asyncio.TimeoutError):
            return
        if not spans:
            return
        now = time.time()
        late = []
        for tid, tree in reconstruct(spans).items():
            if tree.committed_t is None or not tree.expected or \
                    tree.complete:
                continue
            if config.stuck_ignore_history and \
                    tree.committed_t < self._started:
                continue
            if now - tree.committed_t > config.stuck_deadline:
                late.append((tid, tree))
        if not late:
            return
        if not self._tree_known:
            await self._fetch_tree()
        stuck: typing.Dict[int, typing.Dict[
            str, typing.Tuple[float, str, int]]] = {}
        for tid, tree in late:
            # When each site had the update: the origin at its commit, a
            # relay at its first apply or forward (a relay that forwarded
            # has it, applied or not).
            since = {tree.origin: tree.committed_t}
            for span in tree.events:
                if span.get("event") == "forwarded":
                    since.setdefault(span.get("site"), span.get("t"))
            for site in tree.applied_sites:
                since[site] = min(since.get(site, float("inf")),
                                  tree.applied_at(site))
            for replica in tree.expected:
                if replica in since:
                    continue
                site, upstream = self._first_lacking(
                    tree.origin, replica, since)
                # Late at this hop: its upstream has had the update for
                # longer than the deadline.
                age = now - since[upstream]
                if age > config.stuck_deadline:
                    stuck.setdefault(site, {})[tid] = (age, tid,
                                                       tree.origin)
        for site, by_trace in sorted(stuck.items()):
            entries = sorted(by_trace.values(), reverse=True)
            oldest, _tid, _origin = entries[0]
            hops = sorted({(origin, site) for _age, _t, origin in entries})
            self._fire(
                fired, "stuck-propagation", "critical", site,
                "{} committed update(s) not applied at s{} within "
                "{:.1f} s (oldest {:.1f} s; hop{} {})".format(
                    len(entries), site, config.stuck_deadline,
                    oldest, "s" if len(hops) != 1 else "",
                    ", ".join("s{}->s{}".format(origin, dst)
                              for origin, dst in hops) or "unknown"),
                {"stuck": len(entries),
                 "oldest_age_s": oldest,
                 "deadline_s": config.stuck_deadline,
                 "hops": [[origin, dst] for origin, dst in hops],
                 "traces": [tid for _age, tid, _origin
                            in entries[:config.max_evidence]]})

    def _first_lacking(self, origin: int, replica: int,
                       reached: typing.Container[int]
                       ) -> typing.Tuple[int, int]:
        """The first site below ``origin`` on its tree path to
        ``replica`` that the update has not reached, and the site before
        it; ``(replica, origin)`` when updates do not relay or ``origin``
        is not above ``replica``."""
        tree = self._tree
        if tree is None:
            return replica, origin
        path = [replica]
        node = tree[replica]
        while node is not None and node != origin:
            path.append(node)
            node = tree[node]
        if node is None:
            return replica, origin
        upstream = origin
        for site in reversed(path):  # ends at ``replica``, not reached
            if site not in reached:
                break
            upstream = site
        return site, upstream

    async def _fetch_tree(self) -> None:
        """The current epoch's propagation tree, from any member that
        answers; stays unknown (direct hops) until one does."""
        responses, _ = await self.client.try_each("placement")
        for response in responses.values():
            if int(response.get("epoch", 0)) == self._epoch:
                self._tree, self._tree_known = response.get("tree"), True
                return

    async def _fetch_spans(self) -> typing.List[typing.Dict]:
        responses, _ = await self.client.try_each(
            "trace", limit=self.config.trace_limit)
        spans: typing.List[typing.Dict] = []
        for response in responses.values():
            spans.extend(response.get("spans", ()))
        return spans

    async def _check_convergence(self, fired: typing.List[Alert]
                                 ) -> None:
        """Sampled convergence: same committed version must mean the
        same value (writer lineage makes version numbers comparable)."""
        from repro.cluster.codec import decode_value

        responses, _ = await self.client.try_each("status")
        state: typing.Dict[int, typing.Dict] = {}
        for site, response in responses.items():
            state[site] = decode_value(response["items"])
        divergent: typing.Dict[int, typing.List[typing.Dict]] = {}
        for item, primary, replica in self._pairs:
            primary_item = state.get(primary, {}).get(item)
            replica_item = state.get(replica, {}).get(item)
            if not primary_item or not replica_item:
                continue
            if primary_item["version"] == replica_item["version"] and \
                    primary_item["value"] != replica_item["value"]:
                divergent.setdefault(replica, []).append({
                    "item": item, "primary": primary,
                    "version": primary_item["version"],
                    "primary_value": primary_item["value"],
                    "replica_value": replica_item["value"]})
        for replica, entries in sorted(divergent.items()):
            self._fire(
                fired, "divergence", "critical", replica,
                "{} item(s) at s{} hold a different value than their "
                "primary at the same committed version".format(
                    len(entries), replica),
                {"items": entries[:self.config.max_evidence],
                 "divergent": len(entries)})

