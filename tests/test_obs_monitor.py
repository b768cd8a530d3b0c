"""Online invariant watchdog: rule units over a stub wire, live
alerting on a real degraded cluster.

The rule tests drive :class:`~repro.obs.monitor.Watchdog` through a
stub client returning fabricated ``versions``/``trace``/``status``
responses, so each alert rule (lag SLO, divergence, site-down,
dedup/escalation) is checked deterministically.  The live tests boot a real 3-site cluster, verify
a healthy run stays alert-free, then kill one site and assert the
watchdog both notices the death and **localises the stuck propagation
to the dead replica** via the trace trees — the acceptance criterion
of the monitoring plane.
"""

import asyncio
import json
import time

from repro.cluster.codec import encode_value
from repro.cluster.loadgen import generate_load, start_cluster
from repro.cluster.spec import ClusterSpec
from repro.obs.monitor import Alert, AlertSink, MonitorConfig, Watchdog
from repro.types import GlobalTransactionId, Operation, OpType, \
    TransactionSpec
from repro.workload.params import WorkloadParams
from tests.helpers import free_base_port

PARAMS = WorkloadParams(n_sites=3, n_items=12,
                        replication_probability=0.8,
                        threads_per_site=2, transactions_per_thread=6,
                        read_txn_probability=0.3,
                        deadlock_timeout=0.05)


def make_spec():
    return ClusterSpec(params=PARAMS, protocol="dag_wt", seed=3,
                       base_port=free_base_port(PARAMS.n_sites))


class StubClient:
    """Canned ``try_each`` responses, keyed by op; every call is
    recorded as ``(op, fields)`` so tests can assert fan-outs."""

    def __init__(self):
        self.responses = {}
        self.unreachable = {}
        self.calls = []

    def set(self, op, by_site, unreachable=()):
        self.responses[op] = dict(by_site)
        self.unreachable[op] = list(unreachable)

    async def try_each(self, op, **fields):
        self.calls.append((op, dict(fields)))
        return (dict(self.responses.get(op, {})),
                list(self.unreachable.get(op, [])))


def stub_watchdog(config=None):
    spec = make_spec()
    client = StubClient()
    watchdog = Watchdog(spec, client, config=config)
    return spec, client, watchdog


def versions_frame(site, versions):
    return {"ok": True, "site": site,
            "versions": encode_value(versions)}


def uniform_versions(spec, version):
    """Every site reports ``version`` for every item it holds."""
    placement = spec.build_placement()
    frames = {}
    for site in range(spec.params.n_sites):
        held = {item: version for item in placement.items
                if site in placement.sites_of(item)}
        frames[site] = versions_frame(site, held)
    return frames


def lagged_pair(spec, lag):
    """Versions where one replica trails its primary by ``lag``."""
    placement = spec.build_placement()
    item = next(it for it in placement.items
                if placement.replica_sites(it))
    primary = placement.primary_site(item)
    replica = min(placement.replica_sites(item))
    frames = uniform_versions(spec, 10 + lag)
    held = {it: 10 + lag for it in placement.items
            if replica in placement.sites_of(it)}
    held[item] = 10
    frames[replica] = versions_frame(replica, held)
    return frames, primary, replica, item


# ----------------------------------------------------------------------
# Rule units over the stub wire
# ----------------------------------------------------------------------

def test_healthy_poll_fires_nothing():
    spec, client, watchdog = stub_watchdog(MonitorConfig(
        trace_limit=0, convergence_every=0))
    client.set("versions", uniform_versions(spec, 5))
    fired = asyncio.run(watchdog.poll_once())
    assert fired == []
    assert watchdog.critical_count == 0
    # With trace and convergence sampling off, a poll is exactly one
    # ``versions`` fan-out, and its lag sample is readable afterwards.
    assert [op for op, _fields in client.calls] == ["versions"]
    assert watchdog.lags and set(watchdog.lags) == {0}
    assert set(watchdog.lag_by_site.values()) == {0}


def test_lag_slo_warns_then_escalates():
    config = MonitorConfig(lag_warn=4, lag_critical=16,
                           trace_limit=0, convergence_every=0)
    spec, client, watchdog = stub_watchdog(config)
    frames, primary, replica, item = lagged_pair(spec, lag=6)
    client.set("versions", frames)
    fired = asyncio.run(watchdog.poll_once())
    assert [alert.rule for alert in fired] == ["lag-slo"]
    alert = fired[0]
    assert alert.severity == "warning"
    assert alert.site == replica
    assert alert.evidence["max_lag"] == 6
    assert any(pair["item"] == item and pair["primary"] == primary
               for pair in alert.evidence["pairs"])

    # Same condition again: deduplicated, not re-fired.
    assert asyncio.run(watchdog.poll_once()) == []
    assert len(watchdog.alerts) == 1
    assert watchdog.alerts[("lag-slo", replica)].count == 2

    # Past the SLO: the SAME alert escalates to critical (and is
    # re-surfaced once).
    frames, _, _, _ = lagged_pair(spec, lag=20)
    client.set("versions", frames)
    fired = asyncio.run(watchdog.poll_once())
    assert [alert.severity for alert in fired] == ["critical"]
    assert len(watchdog.alerts) == 1
    assert watchdog.critical_count == 1


def test_lag_judged_from_last_known_versions_of_dead_replica():
    """A replica that stops answering is still judged — from the last
    versions it reported — and the alert says so."""
    config = MonitorConfig(lag_warn=4, lag_critical=16, down_polls=99,
                           trace_limit=0, convergence_every=0)
    spec, client, watchdog = stub_watchdog(config)
    frames, _primary, replica, _item = lagged_pair(spec, lag=0)
    client.set("versions", frames)
    assert asyncio.run(watchdog.poll_once()) == []

    # The replica dies; primaries advance 20 versions past its last
    # known state.
    advanced = uniform_versions(spec, 30)
    del advanced[replica]
    client.set("versions", advanced, unreachable=[replica])
    fired = asyncio.run(watchdog.poll_once())
    lag_alerts = [a for a in fired if a.rule == "lag-slo"
                  and a.site == replica]
    assert lag_alerts and lag_alerts[0].severity == "critical"
    assert lag_alerts[0].evidence["unreachable"] is True


def test_site_down_needs_consecutive_misses():
    config = MonitorConfig(down_polls=2, trace_limit=0,
                           convergence_every=0)
    spec, client, watchdog = stub_watchdog(config)
    healthy = uniform_versions(spec, 5)
    degraded = {site: frame for site, frame in healthy.items()
                if site != 2}
    client.set("versions", degraded, unreachable=[2])
    assert asyncio.run(watchdog.poll_once()) == []  # one miss: not yet
    fired = asyncio.run(watchdog.poll_once())
    assert [(alert.rule, alert.site) for alert in fired] == \
        [("site-down", 2)]
    assert fired[0].severity == "critical"

    # Recovery resets the streak: no re-fire after a single new miss.
    client.set("versions", healthy)
    asyncio.run(watchdog.poll_once())
    client.set("versions", degraded, unreachable=[2])
    before = watchdog.alerts[("site-down", 2)].count
    asyncio.run(watchdog.poll_once())
    assert watchdog.alerts[("site-down", 2)].count == before


def status_frame(site, items):
    return {"ok": True, "site": site, "items": encode_value(items)}


def test_divergence_same_version_different_value_is_critical():
    config = MonitorConfig(trace_limit=0, convergence_every=1)
    spec, client, watchdog = stub_watchdog(config)
    placement = spec.build_placement()
    item = next(it for it in placement.items
                if placement.replica_sites(it))
    primary = placement.primary_site(item)
    replica = min(placement.replica_sites(item))
    client.set("versions", uniform_versions(spec, 5))
    statuses = {}
    for site in range(spec.params.n_sites):
        held = {it: {"version": 5, "value": "v5"}
                for it in placement.items
                if site in placement.sites_of(it)}
        if site == replica:
            held[item] = {"version": 5, "value": "DIVERGED"}
        statuses[site] = status_frame(site, held)
    client.set("status", statuses)
    fired = asyncio.run(watchdog.poll_once())
    divergence = [alert for alert in fired
                  if alert.rule == "divergence"]
    assert len(divergence) == 1
    assert divergence[0].severity == "critical"
    assert divergence[0].site == replica
    assert divergence[0].evidence["items"][0]["item"] == item
    assert divergence[0].evidence["items"][0]["primary"] == primary


def test_alert_sink_writes_first_fire_and_escalation_only(tmp_path):
    sink_path = tmp_path / "alerts.jsonl"
    config = MonitorConfig(lag_warn=4, lag_critical=16,
                           trace_limit=0, convergence_every=0)
    spec = make_spec()
    client = StubClient()
    watchdog = Watchdog(spec, client, config=config,
                        sink_path=str(sink_path))
    frames, _primary, replica, _item = lagged_pair(spec, lag=6)
    client.set("versions", frames)
    asyncio.run(watchdog.poll_once())   # fires (warning)
    asyncio.run(watchdog.poll_once())   # dedup: no record
    frames, _, _, _ = lagged_pair(spec, lag=20)
    client.set("versions", frames)
    asyncio.run(watchdog.poll_once())   # escalation: record
    asyncio.run(watchdog.poll_once())   # dedup again
    watchdog.close()
    records = [json.loads(line)
               for line in sink_path.read_text().splitlines()]
    assert [record["severity"] for record in records] == \
        ["warning", "critical"]
    assert all(record["rule"] == "lag-slo" and
               record["site"] == replica for record in records)
    assert all("t" in record and "evidence" in record
               for record in records)


def make_alert(index, severity="warning"):
    return Alert(rule="lag-slo", severity=severity, site=index % 3,
                 message="replica trails by {} versions".format(index),
                 evidence={"i": index, "pad": "x" * 40},
                 first_seen=float(index), last_seen=float(index))


def test_alert_sink_rotates_at_size_cap(tmp_path):
    """A size-capped sink keeps the newest generations under
    ``max_bytes * (backups + 1)`` bytes instead of growing without
    bound — the unbounded-`repro monitor` regression."""
    path = tmp_path / "alerts.jsonl"
    sink = AlertSink(str(path), max_bytes=2048, backups=2)
    for index in range(200):
        sink.emit(make_alert(index))
    sink.close()
    assert path.stat().st_size <= 2048
    assert (tmp_path / "alerts.jsonl.1").exists()
    assert (tmp_path / "alerts.jsonl.2").exists()
    assert not (tmp_path / "alerts.jsonl.3").exists()
    # Every surviving line is parseable, and the newest record is in
    # the live file while rotated generations hold strictly older ones.
    records = [json.loads(line)
               for line in path.read_text().splitlines()]
    assert records and records[-1]["evidence"]["i"] == 199
    rotated = [json.loads(line) for line in
               (tmp_path / "alerts.jsonl.1").read_text().splitlines()]
    assert rotated
    assert rotated[-1]["evidence"]["i"] < records[0]["evidence"]["i"]


def test_alert_sink_resumes_size_accounting_on_reopen(tmp_path):
    """A fresh sink over an existing file counts its bytes, so a
    restarted monitor still rotates at the cap."""
    path = tmp_path / "alerts.jsonl"
    first = AlertSink(str(path), max_bytes=600, backups=1)
    first.emit(make_alert(0))
    first.close()
    existing = path.stat().st_size
    second = AlertSink(str(path), max_bytes=600, backups=1)
    index = 1
    while not (tmp_path / "alerts.jsonl.1").exists() and index < 50:
        second.emit(make_alert(index))
        index += 1
    second.close()
    assert existing > 0
    assert (tmp_path / "alerts.jsonl.1").exists()
    # The pre-existing bytes counted toward the cap: the rotated
    # generation still opens with the record of the first sink.
    rotated = [json.loads(line) for line in
               (tmp_path / "alerts.jsonl.1").read_text().splitlines()]
    assert rotated[0]["evidence"]["i"] == 0
    assert path.stat().st_size <= 600


def test_alert_sink_uncapped_keeps_appending(tmp_path):
    path = tmp_path / "alerts.jsonl"
    sink = AlertSink(str(path))
    for index in range(50):
        sink.emit(make_alert(index))
    sink.close()
    assert len(path.read_text().splitlines()) == 50
    assert not (tmp_path / "alerts.jsonl.1").exists()


def test_alert_json_round_trip():
    alert = Alert(rule="lag-slo", severity="critical", site=1,
                  message="m", evidence={"max_lag": 20},
                  first_seen=1.0, last_seen=2.0, count=3)
    encoded = json.loads(json.dumps(alert.to_json()))
    assert encoded["rule"] == "lag-slo"
    assert encoded["count"] == 3
    assert alert.format().startswith("[CRITICAL] lag-slo s1:")
    assert AlertSink(None).emit(alert) is None  # no-op without a path


# ----------------------------------------------------------------------
# Epoch transitions: dedup keys and membership must survive the
# placement swap of _rebuild_pairs mid-stream
# ----------------------------------------------------------------------

def placement_frame(site, epoch, placement):
    return {"ok": True, "site": site, "epoch": epoch,
            "placement": placement.to_json()}


def test_alert_dedup_and_escalation_survive_epoch_change():
    """An epoch bump swaps the judged pairs via ``_rebuild_pairs``; a
    condition persisting across the swap must keep deduplicating on the
    same ``(rule, site)`` key — no double-fire — and still escalate."""
    config = MonitorConfig(lag_warn=4, lag_critical=16,
                           trace_limit=0, convergence_every=0)
    spec, client, watchdog = stub_watchdog(config)
    frames, _primary, replica, _item = lagged_pair(spec, lag=6)
    client.set("versions", frames)
    fired = asyncio.run(watchdog.poll_once())
    assert [(a.rule, a.site, a.severity) for a in fired] == \
        [("lag-slo", replica, "warning")]

    # Epoch 1 commits mid-stream (same placement, new epoch).  The
    # watchdog refreshes from the cluster; the unchanged lag must
    # dedup into the existing alert, not fire a second one.
    placement = spec.build_placement()
    client.set("versions", {site: dict(frame, epoch=1)
                            for site, frame in frames.items()})
    client.set("placement",
               {site: placement_frame(site, 1, placement)
                for site in range(spec.params.n_sites)})
    assert asyncio.run(watchdog.poll_once()) == []
    assert [op for op, _fields in client.calls].count("placement") == 1
    assert watchdog.summary()["epoch"] == 1
    assert len(watchdog.alerts) == 1
    assert watchdog.alerts[("lag-slo", replica)].count == 2

    # Escalation across the epoch boundary still lands on the same key.
    worse, _, _, _ = lagged_pair(spec, lag=20)
    client.set("versions", {site: dict(frame, epoch=1)
                            for site, frame in worse.items()})
    fired = asyncio.run(watchdog.poll_once())
    assert [(a.rule, a.severity) for a in fired] == \
        [("lag-slo", "critical")]
    assert len(watchdog.alerts) == 1
    assert watchdog.critical_count == 1


def test_epoch_change_retires_dropped_pairs_and_members():
    """A placement that drains a site mid-stream must stop judging its
    pairs (no spurious lag re-fires) and stop paging site-down for the
    now-removed member."""
    from repro.graph.placement import DataPlacement

    config = MonitorConfig(lag_warn=4, lag_critical=16, down_polls=2,
                           trace_limit=0, convergence_every=0)
    spec, client, watchdog = stub_watchdog(config)
    frames, _primary, replica, _item = lagged_pair(spec, lag=6)
    client.set("versions", frames)
    fired = asyncio.run(watchdog.poll_once())
    assert [(a.rule, a.site) for a in fired] == [("lag-slo", replica)]
    count_before = watchdog.alerts[("lag-slo", replica)].count

    # Epoch 1: every copy moves off the lagging replica — it is no
    # longer part of the replication plane, and then stops answering.
    survivors = [site for site in range(spec.params.n_sites)
                 if site != replica]
    drained = DataPlacement(spec.params.n_sites)
    old = spec.build_placement()
    for item in old.items:
        drained.add_item(item, survivors[0], [survivors[1]])
    versions = {}
    for site in survivors:
        held = {item: 30 for item in old.items}
        versions[site] = dict(versions_frame(site, held), epoch=1)
    client.set("versions", versions, unreachable=[replica])
    client.set("placement",
               {site: placement_frame(site, 1, drained)
                for site in survivors})
    assert asyncio.run(watchdog.poll_once()) == []  # miss 1, suppressed
    assert asyncio.run(watchdog.poll_once()) == []  # miss 2, suppressed
    assert watchdog.summary()["epoch"] == 1
    assert ("site-down", replica) not in watchdog.alerts
    # The stale lag alert neither re-fired nor escalated once its pair
    # left the placement.
    assert watchdog.alerts[("lag-slo", replica)].count == count_before
    assert watchdog.critical_count == 0


def test_dashboard_lag_follows_the_placement_across_an_epoch_change():
    """``repro top`` reads the watchdog's lag sample instead of judging
    the boot-time replica sets itself: a copy gained by a
    reconfiguration that trails its primary shows in that site's LAG
    column."""
    from repro.obs.dashboard import Dashboard
    from repro.reconfig.change import PlacementChange

    spec = make_spec()
    client = StubClient()
    dashboard = Dashboard(spec, client, trace_limit=0)
    genesis = spec.build_placement()
    item = next(it for it in genesis.items
                if not genesis.replica_sites(it))
    primary = genesis.primary_site(item)
    gainer = next(site for site in range(spec.params.n_sites)
                  if site != primary
                  and not genesis.replica_items_at(site))
    client.set("versions", uniform_versions(spec, 10))
    model = asyncio.run(dashboard.sample())
    assert [row["lag"] for row in model["rows"]] == [0, 0, 0]

    # Epoch 1 (``repro reconfig add-replica``): the gainer holds a copy
    # of ``item`` now, seven versions behind its primary.
    grown = PlacementChange("add-replica", site=gainer,
                            item=item).apply(genesis)
    frames = {}
    for site in range(spec.params.n_sites):
        held = {it: 10 for it in grown.items
                if site in grown.sites_of(it)}
        if site == gainer:
            held[item] = 3
        frames[site] = dict(versions_frame(site, held), epoch=1)
    client.set("versions", frames)
    client.set("placement", {site: placement_frame(site, 1, grown)
                             for site in range(spec.params.n_sites)})
    model = asyncio.run(dashboard.sample())
    assert {row["site"]: row["lag"] for row in model["rows"]} == \
        {site: 7 if site == gainer else 0
         for site in range(spec.params.n_sites)}
    assert dashboard.watchdog.summary()["epoch"] == 1


# ----------------------------------------------------------------------
# Live cluster: healthy run clean, killed site localised
# ----------------------------------------------------------------------

def test_stuck_update_is_blamed_on_the_first_site_of_its_path_lacking_it():
    """Seed 3 relays along the chain 0 -> 1 -> 2.  An update of s0's
    that never reached s1 is stuck at s1 only (hop s0->s1), not also at
    the s2 behind it; one s1 applied long ago is stuck at s2 (hop
    s0->s2); one s1 forwarded just now is in flight, not stuck."""
    spec, client, watchdog = stub_watchdog(MonitorConfig(
        stuck_deadline=1.0, stuck_ignore_history=False,
        convergence_every=0))
    client.set("versions", uniform_versions(spec, 5))
    client.set("placement", {
        site: {"ok": True, "site": site, "epoch": 0, "tree": [None, 0, 1]}
        for site in range(3)})
    old, recent = time.time() - 5.0, time.time() - 0.1

    def span(trace, site, event, t, **fields):
        return dict(trace=trace, site=site, event=event, t=t, **fields)

    spans = [
        span("t0.1", 0, "committed", old, expected=[1, 2]),
        span("t0.1", 0, "forwarded", old, peer=1),
        span("t0.2", 0, "committed", old, expected=[1, 2]),
        span("t0.2", 1, "applied", old),
        span("t0.2", 1, "forwarded", old, peer=2),
        span("t0.3", 0, "committed", old, expected=[1, 2]),
        span("t0.3", 1, "replayed", recent),
        span("t0.3", 1, "forwarded", recent, peer=2),
    ]
    client.set("trace", {0: {"ok": True, "spans": spans}})
    asyncio.run(watchdog.poll_once())
    stuck = {site: alert.evidence for (rule, site), alert
             in watchdog.alerts.items() if rule == "stuck-propagation"}
    assert sorted(stuck) == [1, 2]
    assert stuck[1]["hops"] == [[0, 1]] and stuck[1]["traces"] == ["t0.1"]
    assert stuck[2]["hops"] == [[0, 2]] and stuck[2]["traces"] == ["t0.2"]
    # The tree is fetched once, on the first late update.
    assert [op for op, _ in client.calls].count("placement") == 1


def test_live_healthy_run_is_alert_free(tmp_path):
    spec = make_spec()

    async def scenario():
        async with start_cluster(spec, str(tmp_path), timeout=2.0,
                                 retries=1) as (_, client):
            watchdog = Watchdog(spec, client, config=MonitorConfig(
                interval=0.1, stuck_deadline=3.0))
            try:
                task = asyncio.get_running_loop().create_task(
                    watchdog.run())
                report = await generate_load(spec, client, verify=True)
                await asyncio.sleep(0.3)
                watchdog.request_stop()
                await task
                return report, watchdog.summary()
            finally:
                watchdog.close()

    report, summary = asyncio.run(scenario())
    assert report.convergent and report.serializable
    assert summary["polls"] > 0
    assert summary["critical"] == 0, summary["by_rule"]


def test_live_killed_site_localised_by_stuck_propagation(tmp_path):
    """The acceptance scenario: one member dies, new updates commit at
    the survivors, and the watchdog names the dead replica — both as
    unreachable and as the missing hop of the stuck trace trees."""
    spec = make_spec()
    placement = spec.build_placement()
    victim = 2
    item = next(it for it in placement.items
                if placement.primary_site(it) == 0
                and victim in placement.replica_sites(it))

    async def scenario():
        async with start_cluster(spec, str(tmp_path), timeout=2.0,
                                 retries=1) as (servers, client):
            servers[victim].kill()
            watchdog = Watchdog(spec, client, config=MonitorConfig(
                interval=0.1, stuck_deadline=0.8, down_polls=2))
            # Commit a replicated write at a survivor AFTER the kill:
            # its propagation to the victim can never complete.
            outcome = await client.run_transaction(TransactionSpec(
                gid=GlobalTransactionId(0, 9001), origin=0,
                operations=(Operation(OpType.WRITE, item),)))
            assert outcome["status"] == "committed"
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                await watchdog.poll_once()
                if ("stuck-propagation", victim) in watchdog.alerts:
                    break
                await asyncio.sleep(0.1)
            return watchdog

    watchdog = asyncio.run(scenario())
    assert ("site-down", victim) in watchdog.alerts
    stuck = watchdog.alerts.get(("stuck-propagation", victim))
    assert stuck is not None, watchdog.summary()["by_rule"]
    assert stuck.severity == "critical"
    assert "s{}".format(victim) in stuck.message
    assert [0, victim] in stuck.evidence["hops"]
    assert stuck.evidence["traces"]
    assert stuck.evidence["oldest_age_s"] > 0.8
    assert watchdog.critical_count >= 2
