"""The chaos controller: boot + drive + faults + verdict.

One :func:`run_chaos` call is a live run of :mod:`repro.cluster.loadgen`
with faults on it: :func:`~repro.cluster.loadgen.start_cluster` boots
the scenario's cluster in-process with a shared
:class:`~repro.chaos.plan.LinkFaultInjector` on every transport,
:func:`~repro.cluster.loadgen.drive` runs the spec's matched workload
while the controller's watchdog rides along and, beside the workers,
one task per ``kill`` event drives the crash / corrupt / restart
lifecycle and the reconfiguration driver runs its timed epoch
transitions.  :func:`~repro.cluster.loadgen.judge` then quiesces the
cluster and checks the contract, and a fresh post-run watchdog's polls
must be critical-free.  What is chaos's own is the fault plan, that
lifecycle, the regressions, the reconfiguration driver, the tolerance
rule below, the post-run polls and the flight bundles.

Tolerance policy: faults within the paper's model (delays, jitter,
drops repaired by resend — everything the reliable-FIFO assumption of
Sec. 1.1 absorbs) must leave the run clean *including* zero during-run
monitor criticals.  Kill/corrupt events and injected regressions are
out-of-model: their during-run alerts (site-down while a site is down)
are reported, not charged, and the verdict rests on the oracles and
the post-run polls.

Protocol regressions (``REGRESSIONS``) are injected from the outside —
the controller neuters one durability barrier on the target site, the
server code itself stays honest:

``forward-before-wal``
    The target's WAL appender never reaches stable storage, so commit
    responses and forwarded updates leave ahead of their commit
    records — the exact promise :meth:`SiteServer._sync_wal` exists to
    keep.  A kill then drops everything the site ever promised; its
    replicas keep the forwarded updates, recovery cannot restore the
    primaries, and the convergence oracle flags the divergence.
``ack-before-journal``
    The target's inbox journal never reaches stable storage, so
    inbound batches are acked — and retired by their senders — while
    the journal holds the only durable copy.  The loss window is
    updates acked but not yet applied+WAL-synced at the kill; nothing
    re-sends them, so the verdict sees the gap (divergent copies, or
    the post-quiesce watchdog's version-lag critical).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import time
import typing

from repro.chaos.plan import FaultPlan, KillFault, LinkFaultInjector
from repro.cluster.client import ClusterError
from repro.cluster.loadgen import drive, judge, start_cluster, start_site
from repro.cluster.server import SiteServer
from repro.cluster.spec import ClusterSpec
from repro.cluster.wal import CorruptLogError
from repro.graph.placement import DataPlacement
from repro.obs.monitor import MonitorConfig, Watchdog
from repro.reconfig import (PlacementChange, ReconfigCoordinator,
                            ReconfigError)

#: Protocol regressions the controller can inject (see module docs).
REGRESSIONS = ("forward-before-wal", "ack-before-journal")

#: Client request timeout, quiescence deadline and reconfiguration
#: deadline of a run, seconds.
TIMEOUT_S = 30.0


@dataclasses.dataclass
class ChaosScenario:
    """Everything one chaos run needs: cluster + script + switches."""

    spec: ClusterSpec
    plan: FaultPlan = dataclasses.field(default_factory=FaultPlan)
    #: Injected protocol regression (``None`` = honest servers).
    regression: typing.Optional[str] = None
    #: Which site the regression neuters (default: the first kill's
    #: victim, else site 0).
    regression_site: typing.Optional[int] = None
    #: Timed epoch transitions driven during the run: each entry is
    #: ``{"at": seconds, "change": PlacementChange JSON}``.  A kill
    #: scheduled inside a transition window is the reconfiguration
    #: crash test — the driver retries until the change lands, and the
    #: verdict checks the epoch-recovery invariant (every member in
    #: the same final epoch) plus the oracles on the *final* placement.
    reconfig: typing.Tuple[typing.Dict[str, typing.Any], ...] = ()
    name: str = ""

    def validate(self) -> "ChaosScenario":
        self.spec.validate()
        self.plan.validate(self.spec.params.n_sites)
        if self.regression is not None and \
                self.regression not in REGRESSIONS:
            raise ValueError(
                "unknown regression {!r} (known: {})".format(
                    self.regression, ", ".join(REGRESSIONS)))
        for entry in self.reconfig:
            if float(entry.get("at", -1)) < 0:
                raise ValueError("reconfig entry needs 'at' >= 0")
            PlacementChange.from_json(entry["change"])
        return self

    @property
    def target_site(self) -> int:
        """The regression's victim site."""
        if self.regression_site is not None:
            return self.regression_site
        kills = self.plan.kill_events()
        return kills[0].site if kills else 0

    @property
    def out_of_model(self) -> bool:
        """True when the scenario exceeds the paper's fault tolerance
        (crashes, corruption or an injected regression) — during-run
        monitor criticals are then expected, not charged."""
        return bool(self.plan.kill_events() or
                    self.plan.corrupt_events() or
                    self.regression is not None)

    def replaced(self, **changes) -> "ChaosScenario":
        return dataclasses.replace(self, **changes)

    def to_json(self) -> typing.Dict[str, typing.Any]:
        return {
            "version": 1,
            "name": self.name,
            "spec": self.spec.to_json(),
            "plan": self.plan.to_json(),
            "regression": self.regression,
            "regression_site": self.regression_site,
            "reconfig": list(self.reconfig),
        }

    @classmethod
    def from_json(cls, obj: typing.Mapping[str, typing.Any]
                  ) -> "ChaosScenario":
        return cls(
            spec=ClusterSpec.from_json(obj["spec"]),
            plan=FaultPlan.from_json(obj.get("plan", {})),
            regression=obj.get("regression"),
            regression_site=obj.get("regression_site"),
            reconfig=tuple(obj.get("reconfig", ())),
            name=obj.get("name", ""),
        ).validate()

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "ChaosScenario":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(json.load(handle))


@dataclasses.dataclass
class ChaosRunReport:
    """Verdict of one chaos run."""

    scenario: typing.Dict[str, typing.Any]
    ok: bool = True
    #: Human-readable oracle/verdict violations (empty on a clean run).
    violations: typing.List[str] = dataclasses.field(
        default_factory=list)
    duration: float = 0.0
    committed: int = 0
    aborted: int = 0
    unknown: int = 0
    convergent: bool = True
    divergent: int = 0
    serializable: bool = True
    dsg_nodes: int = 0
    #: Site kills executed: ``{"site", "at", "down_for"}`` each.
    kills: typing.List[typing.Dict[str, typing.Any]] = \
        dataclasses.field(default_factory=list)
    #: Corruption events applied and how each was caught
    #: (``via`` = ``"error"`` | ``"torn-repair"`` | ``"silent"``).
    corruption: typing.List[typing.Dict[str, typing.Any]] = \
        dataclasses.field(default_factory=list)
    #: During-run watchdog summary (kills make these expected).
    alerts_during: typing.Dict[str, typing.Any] = dataclasses.field(
        default_factory=dict)
    #: Post-quiesce watchdog summary (criticals here always fail).
    alerts_post: typing.Dict[str, typing.Any] = dataclasses.field(
        default_factory=dict)
    #: Epoch transitions completed: ``{"change", "epoch", "attempts"}``.
    reconfigs: typing.List[typing.Dict[str, typing.Any]] = \
        dataclasses.field(default_factory=list)
    #: Final configuration epoch (0 when the run never reconfigured).
    final_epoch: int = 0
    #: The injector's canonical (sorted) injection log.
    injections: typing.List[typing.Dict[str, typing.Any]] = \
        dataclasses.field(default_factory=list)
    #: Flight-recorder bundles dumped on a failing verdict (paths).
    bundles: typing.List[str] = dataclasses.field(default_factory=list)

    def to_json(self) -> typing.Dict[str, typing.Any]:
        return dataclasses.asdict(self)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def format(self) -> str:
        lines = [
            "chaos run: {} ({:.2f} s) — {}".format(
                self.scenario.get("name") or "unnamed", self.duration,
                "OK" if self.ok else "FAIL"),
            "workload: {} committed, {} aborted, {} unknown".format(
                self.committed, self.aborted, self.unknown),
            "oracles: convergent={} serializable={} ({} DSG "
            "nodes)".format(
                "yes" if self.convergent else
                "NO ({} divergent)".format(self.divergent),
                "yes" if self.serializable else "NO", self.dsg_nodes),
            "faults: {} injection decision(s), {} kill(s), {} "
            "corruption(s)".format(
                len(self.injections), len(self.kills),
                len(self.corruption)),
        ]
        if self.reconfigs or self.final_epoch:
            lines.append(
                "reconfig: {} transition(s), final epoch {}".format(
                    len(self.reconfigs), self.final_epoch))
        if self.alerts_during:
            lines.append("monitor during run: {} critical, {} warning "
                         "over {} poll(s)".format(
                             self.alerts_during.get("critical", 0),
                             self.alerts_during.get("warning", 0),
                             self.alerts_during.get("polls", 0)))
        if self.alerts_post:
            lines.append("monitor post-quiesce: {} critical, {} "
                         "warning over {} poll(s)".format(
                             self.alerts_post.get("critical", 0),
                             self.alerts_post.get("warning", 0),
                             self.alerts_post.get("polls", 0)))
        if self.bundles:
            lines.append(
                "flight bundles: {} dumped under {}".format(
                    len(self.bundles),
                    os.path.dirname(self.bundles[0]) or "."))
        for violation in self.violations:
            lines.append("VIOLATION: " + violation)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Corruption plumbing
# ----------------------------------------------------------------------

def _corrupt_path(server: SiteServer, target: str) -> str:
    """The file a ``target`` corruption damages: the WAL the boot gave
    ``server``, or its inbox journal beside it."""
    return server.wal_path if target == "wal" else \
        server.wal_path + ".inbox"


def _apply_corruption(event, path: str,
                      pristine: typing.Dict[str, bytes]) -> bool:
    """Damage ``path`` per ``event``; returns False when the file is
    missing/empty (nothing to damage).  The pristine bytes are kept so
    a detected bit flip can be healed and the run completed."""
    if not os.path.exists(path):
        return False
    with open(path, "rb") as handle:
        data = handle.read()
    if not data:
        return False
    pristine[path] = data
    if event.mode == "bitflip":
        offset = event.offset if event.offset >= 0 \
            else len(data) + event.offset
        offset = max(0, min(len(data) - 1, offset))
        damaged = bytearray(data)
        damaged[offset] ^= (1 << event.bit)
        with open(path, "wb") as handle:
            handle.write(bytes(damaged))
        return True
    # Torn tail: cut strictly inside the final record, simulating an
    # OS crash that tore the last page mid-line.  Reload must repair
    # to the last complete record boundary, never error.
    boundary = data.rfind(b"\n", 0, len(data) - 1) + 1
    cut = len(data) + event.offset if event.offset < 0 else event.offset
    cut = max(boundary + 1, min(len(data) - 1, cut))
    if cut >= len(data):
        return False
    os.truncate(path, cut)
    return True


def _lying_sync(appender) -> typing.Callable[[], int]:
    """A lying fsync for ``appender``: drops the pending records and
    advances the durability watermark as if they reached disk.  The
    lie must cover the watermark too — the server's group-commit
    barrier re-checks ``synced_records`` before releasing responses
    and acks, so a sync that merely does nothing turns the regression
    into (honest) unavailability instead of the silent loss under
    test."""
    def sync() -> int:
        with appender._io_lock:
            with appender._buf_lock:
                count = len(appender._pending)
                appender._pending = []
                appender.synced_records = appender.appended
        return count
    return sync


def _inject_regression(server: SiteServer,
                       regression: typing.Optional[str]) -> None:
    """Neuter one durability barrier on ``server`` (the server code
    itself stays honest — the regression lives in the harness)."""
    if regression == "forward-before-wal":
        server.wal.sync = _lying_sync(server.wal)
    elif regression == "ack-before-journal":
        server.journal.sync = _lying_sync(server.journal)


def _change_applied(change: PlacementChange,
                    placement: DataPlacement) -> bool:
    """Whether ``placement`` already reflects ``change`` — a retried
    transition may find its work done (committed just before a crash,
    then healed by gossip)."""
    try:
        if change.kind == "add-replica":
            return change.site in placement.sites_of(change.item)
        if change.kind == "drop-replica":
            return change.site not in placement.sites_of(change.item)
        if change.kind == "migrate-primary":
            return placement.primary_site(change.item) == change.site
        return not placement.items_at(change.site)  # remove-site
    except Exception:  # noqa: BLE001 - unknown item etc.
        return False


async def _drive_reconfigs(scenario: ChaosScenario, client,
                           report: ChaosRunReport,
                           deadline_s: float) -> None:
    """Run the scenario's timed epoch transitions, retrying each across
    member crashes until it lands (or the deadline charges a
    violation)."""
    coordinator = ReconfigCoordinator(client, timeout=10.0)
    started = time.monotonic()
    for entry in scenario.reconfig:
        delay = float(entry["at"]) - (time.monotonic() - started)
        if delay > 0:
            await asyncio.sleep(delay)
        change = PlacementChange.from_json(entry["change"])
        attempts = 0
        while True:
            attempts += 1
            try:
                done = await coordinator.execute(change)
                report.reconfigs.append({
                    "change": change.to_json(), "epoch": done.epoch,
                    "attempts": attempts})
                break
            except (ReconfigError, ClusterError, OSError) as exc:
                # A member died mid-transition (the scenario's kill):
                # the transition aborted cleanly.  Wait for the
                # restart, then retry — unless a prior attempt's
                # commit actually landed and was healed outward.
                if time.monotonic() - started > deadline_s:
                    report.violations.append(
                        "reconfig: {} never committed: {}".format(
                            change.describe(), exc))
                    return
                await asyncio.sleep(0.5)
                try:
                    epoch, placement = \
                        await coordinator.current_placement()
                except (ReconfigError, ClusterError, OSError):
                    continue
                if _change_applied(change, placement):
                    report.reconfigs.append({
                        "change": change.to_json(), "epoch": epoch,
                        "attempts": attempts})
                    break


# ----------------------------------------------------------------------
# The controller
# ----------------------------------------------------------------------

def _broadcast_event(servers: typing.Dict[int, SiteServer],
                     kind: str, **fields) -> None:
    """Stamp a wall-clock event into every site's flight recorder —
    faults and alerts are cluster-level facts, and carrying them in
    each bundle is what lets the postmortem align them against the
    per-site spans.  Recording into a killed server's recorder is
    harmless (pure memory on a dead object)."""
    for server in servers.values():
        server.flight.record_event(kind, **fields)


async def _site_schedule(scenario: ChaosScenario, wal_dir: str,
                         kill: KillFault,
                         servers: typing.Dict[int, SiteServer],
                         injector: LinkFaultInjector,
                         report: ChaosRunReport) -> None:
    """One kill event's lifecycle: crash, corrupt, restart, verify the
    corruption was not silently accepted."""
    await asyncio.sleep(kill.at)
    servers[kill.site].kill()
    report.kills.append({"site": kill.site, "at": kill.at,
                         "down_for": kill.down_for})
    _broadcast_event(servers, "fault", fault="kill", victim=kill.site,
                     down_for=kill.down_for)
    pristine: typing.Dict[str, bytes] = {}
    applied = []
    for event in scenario.plan.corrupt_events(kill.site):
        path = _corrupt_path(servers[kill.site], event.target)
        if _apply_corruption(event, path, pristine):
            applied.append((event, path))
            _broadcast_event(servers, "fault", fault="corrupt",
                             victim=kill.site, target=event.target,
                             mode=event.mode)
    await asyncio.sleep(kill.down_for)

    detected_error: typing.Optional[str] = None
    try:
        replacement = await start_site(scenario.spec, wal_dir, kill.site,
                                       injector)
    except CorruptLogError as exc:
        detected_error = str(exc)
        # Heal the damage and restart for real so the run completes
        # (the detection itself is the result being tested).
        for path, data in pristine.items():
            with open(path, "wb") as handle:
                handle.write(data)
        replacement = await start_site(scenario.spec, wal_dir, kill.site,
                                       injector)
    servers[kill.site] = replacement

    for event, path in applied:
        record = dict(event.to_json(), via="silent")
        if event.mode == "bitflip":
            if detected_error is not None:
                record["via"] = "error"
                record["detail"] = detected_error
            else:
                torn = (replacement.wal.torn_tail
                        if event.target == "wal"
                        else replacement.journal.torn_tail)
                if torn:
                    record["via"] = "torn-repair"
                else:
                    report.violations.append(
                        "silent-corruption: s{} restarted over a "
                        "flipped bit in its {} without error or "
                        "repair".format(kill.site, event.target))
        else:  # torn
            if detected_error is not None:
                report.violations.append(
                    "unrepaired-torn-tail: s{} raised on a torn {} "
                    "tail instead of repairing it: {}".format(
                        kill.site, event.target, detected_error))
                record["via"] = "error"
            else:
                record["via"] = "torn-repair"
        report.corruption.append(record)


async def _run_chaos(scenario: ChaosScenario, wal_dir: str,
                     monitor: bool,
                     monitor_config: typing.Optional[MonitorConfig],
                     bundle_dir: typing.Optional[str] = None
                     ) -> ChaosRunReport:
    spec = scenario.spec
    injector = LinkFaultInjector(scenario.plan)
    report = ChaosRunReport(scenario=scenario.to_json())
    started = time.monotonic()
    async with start_cluster(spec, wal_dir, faults=injector,
                             timeout=TIMEOUT_S) as (servers, client):
        if scenario.regression is not None:
            _inject_regression(servers[scenario.target_site],
                               scenario.regression)
        faults = [_site_schedule(scenario, wal_dir, kill, servers,
                                 injector, report)
                  for kill in scenario.plan.kill_events()]
        if scenario.reconfig:
            faults.append(_drive_reconfigs(scenario, client, report,
                                           deadline_s=TIMEOUT_S))
        config = None
        if monitor:
            config = monitor_config if monitor_config is not None \
                else MonitorConfig(interval=0.25, convergence_every=0,
                                   trace_limit=0)
        run = await drive(
            spec, client, monitor=config, alongside=faults,
            on_alert=lambda alert: _broadcast_event(
                servers, "alert", rule=alert.rule,
                severity=alert.severity, alert_site=alert.site,
                message=alert.message))
        report.committed = run.metrics.total_committed
        report.aborted = run.metrics.total_aborted
        report.unknown = run.unknown
        report.alerts_during = run.alerts
        if run.alerts.get("critical") and not scenario.out_of_model:
            report.violations.append(
                "monitor-critical: {} critical alert(s) in a "
                "within-tolerance run ({})".format(
                    run.alerts["critical"],
                    ", ".join(sorted(run.alerts["by_rule"]))))

        try:
            verdict = await judge(client, timeout=TIMEOUT_S)
        except ReconfigError as exc:
            verdict = None
            report.violations.append(
                "reconfig: cannot read the final placement: {}".format(exc))
        except (TimeoutError, ClusterError, OSError) as exc:
            verdict = None
            report.violations.append(
                "quiesce: cluster did not settle: {}".format(exc))
        if verdict is not None:
            report.final_epoch = verdict.epoch
            report.convergent = not verdict.divergent
            report.divergent = len(verdict.divergent)
            report.serializable = verdict.cycle is None
            report.dsg_nodes = verdict.dsg_nodes
            report.violations.extend(verdict.violations)

        # Post-quiesce polls from a fresh watchdog: every site must be
        # up and answering, replicas current, no divergence — even for
        # crash scenarios, this is the "recovered" assertion.
        if monitor and verdict is not None:
            post = Watchdog(spec, client, config=MonitorConfig(
                interval=0.1, convergence_every=1, trace_limit=0,
                down_polls=1))
            for _ in range(2):
                await post.poll_once()
            post.close()
            report.alerts_post = post.summary()
            if report.alerts_post["critical"]:
                report.violations.append(
                    "post-monitor-critical: {} critical alert(s) "
                    "after quiesce ({})".format(
                        report.alerts_post["critical"],
                        ", ".join(sorted(
                            report.alerts_post["by_rule"]))))

        # Failing verdict: dump every member's flight recorder before
        # teardown so the postmortem has a bundle per surviving site.
        # A crashed-and-restarted member's recorder only spans its
        # current incarnation — the previous life's black box is its
        # WAL and trace file on disk.
        if bundle_dir is not None and report.violations:
            os.makedirs(bundle_dir, exist_ok=True)
            for site in sorted(servers):
                try:
                    report.bundles.append(
                        await servers[site].flight.dump_async(
                            "chaos-verdict", out_dir=bundle_dir))
                except OSError:
                    pass

    report.duration = time.monotonic() - started
    report.injections = injector.sorted_log()
    report.ok = not report.violations
    return report


def run_chaos(scenario: ChaosScenario, wal_dir: str,
              monitor: bool = True,
              monitor_config: typing.Optional[MonitorConfig] = None,
              bundle_dir: typing.Optional[str] = None
              ) -> ChaosRunReport:
    """Execute one chaos scenario end to end (synchronous entry point).

    ``wal_dir`` must be a fresh directory per run — the WALs are both
    the crash-recovery substrate and the corruption target.
    ``monitor_config`` overrides the during-run watchdog config (e.g.
    to turn on stuck-propagation localisation via ``trace_limit``).
    ``bundle_dir`` arms the chaos-verdict flight-recorder trigger: a
    run with violations dumps one incident bundle per member there,
    plus the injection log as ``injections.json`` for
    ``repro postmortem --injections``.
    """
    scenario.validate()
    os.makedirs(wal_dir, exist_ok=True)
    report = asyncio.run(_run_chaos(scenario, wal_dir,
                                    monitor=monitor,
                                    monitor_config=monitor_config,
                                    bundle_dir=bundle_dir))
    if bundle_dir is not None and report.bundles:
        path = os.path.join(bundle_dir, "injections.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report.injections, handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
    return report
