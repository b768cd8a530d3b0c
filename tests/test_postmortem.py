"""Cross-site postmortem forensics over the sites' span files: fault
localization over synthetic files, a killed in-process site, and the
end-to-end chaos → ``--wal-dir`` → ``repro postmortem`` loop.

The synthetic tests write span files with controlled timestamps and
lifecycle records, and assert the analyzer merges them on the recorded
clock, judges each site by its last life, names the dark site, and
localizes the stalled hop.  The live tests leave the files the way a
real incident does: a killed site's file simply stops.
"""

import asyncio
import json

from repro.cluster.loadgen import start_cluster
from repro.cluster.spec import ClusterSpec
from repro.obs.postmortem import analyze, collect_traces, format_report
from repro.types import GlobalTransactionId, Operation, OpType, \
    TransactionSpec
from repro.workload.params import WorkloadParams
from tests.helpers import free_base_port


def span(site, t, event, trace, **fields):
    record = {"site": site, "t": t, "event": event, "trace": trace}
    record.update(fields)
    return record


def record(site, t, event, **fields):
    return dict(fields, site=site, t=t, event=event)


def make_trace(directory, site, records):
    path = directory / "site{}.wal.trace".format(site)
    with open(path, "a", encoding="utf-8") as handle:
        for entry in records:
            handle.write(json.dumps(entry) + "\n")
    return str(path)


def life(site, start, stop, spans=(), extra=(), n_sites=3):
    """One life's records: ``server-start`` at ``start``, the spans and
    extra records, and a ``server-stop`` at ``stop`` unless it is
    ``None`` (killed)."""
    records = [record(site, start, "server-start", epoch=0,
                      n_sites=n_sites)]
    records += list(spans) + list(extra)
    if stop is not None:
        records.append(record(site, stop, "server-stop", epoch=0))
    return records


# ----------------------------------------------------------------------
# Collection and analysis over synthetic span files
# ----------------------------------------------------------------------

def test_collect_bundles_reports_damage_without_raising(tmp_path):
    make_trace(tmp_path, 0, life(0, 1000.0, 1001.0))
    bad = tmp_path / "site1.wal.trace"
    bad.write_text("not json\n")
    traces, problems = collect_traces(
        [str(tmp_path), str(tmp_path / "missing.trace")])
    assert sorted(traces) == [0]
    assert len(problems) == 2
    assert "no trace records" in problems[0]


def test_latest_bundle_per_site_wins(tmp_path):
    """A restarted site's file holds both lives: the earlier crash is a
    timeline entry, and the last life is judged on its own."""
    make_trace(tmp_path, 0, life(0, 1000.0, None, n_sites=1)
               + life(0, 1010.0, 1020.0, n_sites=1))
    traces, _ = collect_traces([str(tmp_path)])
    analysis = analyze(traces)
    assert analysis["dark_sites"] == []
    assert analysis["traces"][0]["lives"] == 2
    assert analysis["traces"][0]["ended"] == "server-stop"
    crash = [entry for entry in analysis["timeline"]
             if entry["kind"] == "crash"]
    assert [entry["t"] for entry in crash] == [1000.0]
    assert analysis["findings"] == []

    # The other way round: a clean first life, a killed second one.
    make_trace(tmp_path, 0, life(0, 1030.0, None, n_sites=1))
    traces, _ = collect_traces([str(tmp_path)])
    analysis = analyze(traces)
    assert analysis["dark_sites"] == [0]
    assert analysis["findings"][0]["window"] == [1030.0, 1030.0]


def incident_traces(tmp_path, s2_stopped=False):
    """A 3-site incident: site 2 was killed.  Trace t0.5 committed at
    s0 expecting {1, 2} but only s1 applied; s0 saw the watchdog's
    site-down alert."""
    base = 2000.0
    spans0 = [
        span(0, base + 0.000, "committed", "t0.5", expected=[1, 2]),
        span(0, base + 0.001, "forwarded", "t0.5", peer=1),
        span(0, base + 0.001, "forwarded", "t0.5", peer=2),
    ]
    alert = record(0, base + 1.0, "alert", rule="site-down",
                   severity="critical", alert_site=2,
                   message="site s2 unreachable for 2 consecutive polls")
    spans1 = [
        span(1, base + 0.010, "received", "t0.5"),
        span(1, base + 0.015, "journaled", "t0.5"),
        span(1, base + 0.020, "applied", "t0.5"),
    ]
    make_trace(tmp_path, 0, life(0, base - 1.0, base + 2.0, spans0,
                                 [alert]))
    make_trace(tmp_path, 1, life(1, base - 1.0, base + 2.0, spans1))
    make_trace(tmp_path, 2, life(2, base - 1.0,
                                 base + 2.0 if s2_stopped else None))
    return base


def test_analyze_localizes_dark_site_and_stalled_hop(tmp_path):
    base = incident_traces(tmp_path)
    traces, problems = collect_traces([str(tmp_path)])
    assert problems == []
    analysis = analyze(traces)

    assert analysis["sites"] == [0, 1, 2]
    assert analysis["dark_sites"] == [2]  # its own file just stops

    kinds = [finding["kind"] for finding in analysis["findings"]]
    assert "site-down" in kinds and "stall" in kinds
    assert kinds.index("site-down") < kinds.index("stall")
    down = next(finding for finding in analysis["findings"]
                if finding["kind"] == "site-down")
    assert down["site"] == 2
    assert "s2 dark: killed" in down["summary"]
    assert "site-down critical fired 1 time(s)" in down["summary"]
    assert down["window"] == [base - 1.0, base + 1.0]
    stall = next(finding for finding in analysis["findings"]
                 if finding["kind"] == "stall")
    assert stall["site"] == 2
    assert "s0→s2" in stall["summary"]

    # One tree (s0 → s1 applied, s0 → s2 never).
    assert analysis["propagation"]["count"] == 1
    assert analysis["propagation"]["complete"] == 0

    # The merged timeline carries the lifecycle records, the alert and
    # the stall, causally ordered.
    kinds = [entry["kind"] for entry in analysis["timeline"]]
    assert kinds.index("stall") < kinds.index("alert")
    assert kinds.count("server-start") == 3
    assert kinds.count("server-stop") == 2


def test_report_renders_localization(tmp_path):
    incident_traces(tmp_path, s2_stopped=True)
    traces, _ = collect_traces([str(tmp_path)])
    analysis = analyze(
        traces,
        injections=[{"t": 0.4, "kind": "kill", "site": 2}])
    report = format_report(analysis)
    assert "postmortem: span files from s0, s1, s2" in report
    assert "last life ended: server-stop" in report
    assert "fault localization:" in report
    assert "s2 dark" in report
    assert "fault script (1 injection decision(s)" in report
    assert '"kind": "kill"' in report
    assert "timeline" in report

    # With s2's last life stopped cleanly the dark finding keeps only
    # the alert evidence.
    assert analysis["dark_sites"] == []
    down = next(finding for finding in analysis["findings"]
                if finding["kind"] == "site-down")
    assert "killed" not in down["summary"]

    json.dumps(analysis)  # the analysis is its machine-readable view


def test_fatal_ending_is_reported_with_its_error(tmp_path):
    make_trace(tmp_path, 0, life(0, 10.0, 12.0, n_sites=2))
    make_trace(tmp_path, 1, life(1, 10.0, None, n_sites=2, extra=[
        record(1, 11.0, "fatal", error="CodecError('s0: bad frame')")]))
    traces, _ = collect_traces([str(tmp_path)])
    analysis = analyze(traces)
    assert analysis["dark_sites"] == []
    assert analysis["findings"][0]["kind"] == "fatal"
    assert analysis["findings"][0]["site"] == 1
    assert "s0: bad frame" in analysis["findings"][0]["summary"]
    assert "last life ended: fatal (CodecError" in format_report(analysis)


def test_bundles_merge_on_their_recorded_clock(tmp_path):
    """Every site stamps the one host clock, so spans from different
    files merge on their recorded ``t`` unshifted: the s0→s1 hop delay
    is the raw difference, and the analysis has no clock section."""
    base = 3000.0
    make_trace(tmp_path, 0, life(0, base, base + 1.0, n_sites=2, spans=[
        span(0, base + 0.000, "committed", "t0.7", expected=[1]),
        span(0, base + 0.001, "forwarded", "t0.7", peer=1)]))
    make_trace(tmp_path, 1, life(1, base, base + 1.0, n_sites=2, spans=[
        span(1, base + 0.004, "received", "t0.7"),
        span(1, base + 0.010, "applied", "t0.7")]))
    traces, _ = collect_traces([str(tmp_path)])
    analysis = analyze(traces)
    assert analysis["propagation"]["complete"] == 1
    assert analysis["propagation"]["max"] == (base + 0.010) - base
    assert analysis["window"] == [base, base + 1.0]
    assert "clock" not in analysis


def test_bundle_accessors(tmp_path):
    """The per-site inventory of one span file: its records, spans,
    lives, last epoch and how the last life ended."""
    make_trace(tmp_path, 2, life(2, 5.0, None, n_sites=3, spans=[
        span(2, 6.0, "applied", "t0.1")], extra=[
        record(2, 7.0, "epoch-commit", epoch=1, change={})]))
    traces, _ = collect_traces([str(tmp_path)])
    analysis = analyze(traces)
    assert analysis["traces"] == [{
        "site": 2, "records": 3, "spans": 1, "lives": 1, "epoch": 1,
        "ended": None, "error": None}]
    assert analysis["dark_sites"] == [0, 1, 2]


def test_analyze_of_no_bundles_is_empty_but_renders():
    analysis = analyze({})
    assert analysis["sites"] == []
    assert analysis["findings"] == []
    report = format_report(analysis)
    assert "no site" in report
    assert "no anomaly localized" in report


# ----------------------------------------------------------------------
# Live: a killed site and a failing chaos verdict, read from disk
# ----------------------------------------------------------------------

def test_killed_site_is_the_one_dark_site_and_its_hop_stalls(tmp_path):
    """Load on 3 in-process sites, ``kill()`` s2, keep writing, then
    ``stop()`` the other two: over the WAL directory s2 is the one dark
    site, and the stall is on a hop into s2."""
    params = WorkloadParams(n_sites=3, n_items=12,
                            replication_probability=0.8,
                            deadlock_timeout=0.05)
    spec = ClusterSpec(params=params, protocol="dag_wt", seed=3,
                       base_port=free_base_port(3))
    placement = spec.build_placement()
    replicated_to_s2 = [item for item in sorted(placement.items)
                        if placement.primary_site(item) != 2
                        and 2 in placement.replica_sites(item)]
    assert replicated_to_s2

    async def write_all(client, seq):
        for item in replicated_to_s2:
            seq += 1
            origin = placement.primary_site(item)
            await client.run_transaction(TransactionSpec(
                GlobalTransactionId(origin, seq), origin,
                (Operation(OpType.WRITE, item),)))
        return seq

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (servers, client):
            seq = await write_all(client, 0)
            servers[2].kill()
            await write_all(client, seq)

    asyncio.run(scenario())
    traces, problems = collect_traces([str(tmp_path)])
    assert problems == []
    analysis = analyze(traces)
    assert analysis["sites"] == [0, 1, 2]
    assert analysis["dark_sites"] == [2]
    assert [summary["ended"] for summary in analysis["traces"]] == \
        ["server-stop", "server-stop", None]
    stalls = [finding for finding in analysis["findings"]
              if finding["kind"] == "stall"]
    assert stalls and {finding["site"] for finding in stalls} == {2}
    assert "→s2" in stalls[0]["summary"]
    assert "s2 dark: killed" in format_report(analysis)


def test_chaos_verdict_failure_leaves_forensic_bundles(tmp_path):
    """The committed known-bad scenario (forward-before-wal + crash)
    must fail its oracles, and the postmortem over its ``wal_dir`` must
    show the kill, the victim's cut-short first life, and localize the
    incident."""
    from repro.chaos.controller import ChaosScenario, run_chaos

    scenario = ChaosScenario.load("tests/data/chaos_known_bad.json")
    wal_dir = tmp_path / "wal"
    report = run_chaos(scenario, wal_dir=str(wal_dir))
    assert not report.ok
    assert report.violations
    victim = report.kills[0]["site"]

    traces, problems = collect_traces([str(wal_dir)])
    assert problems == []
    assert sorted(traces) == list(range(scenario.spec.params.n_sites))
    analysis = analyze(traces, injections=report.injections)
    # The restarted victim's last life ended cleanly at teardown.
    assert analysis["dark_sites"] == []
    # The injected faults were written into every running site's file,
    # so the merged timeline shows the kill the moment it happened.
    faults = [entry for entry in analysis["timeline"]
              if entry["kind"] == "fault"]
    assert any(entry.get("fault") == "kill" for entry in faults)
    crashes = [entry for entry in analysis["timeline"]
               if entry["kind"] == "crash"]
    assert [entry["site"] for entry in crashes] == [victim]
    assert "fault localization:" in format_report(analysis)
