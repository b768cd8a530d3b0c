"""Cross-site postmortem forensics: fault localization over synthetic
incident bundles, and the end-to-end chaos → bundles → ``repro
postmortem`` loop.

The synthetic tests write bundles with controlled span timestamps and
assert the analyzer merges them on the recorded clock, names the dark
site, and localizes the stalled hop.  The e2e test runs the committed
known-bad chaos fixture with ``bundle_dir`` armed and proves a failing
verdict leaves one bundle per member plus the injection log, and that
the analysis localizes the regression site.
"""

import json

from repro.obs.flight import BUNDLE_NAME, write_bundle
from repro.obs.postmortem import (
    Bundle,
    analyze,
    collect_bundles,
    format_report,
)


def span(site, t, event, trace, **fields):
    record = {"site": site, "t": t, "event": event, "trace": trace}
    record.update(fields)
    return record


def make_bundle(directory, site, wall_t, spans=(), events=(),
                n_sites=3, trigger="test", sequence=1, epoch=0):
    records = [dict(record, type="span") for record in spans]
    records += [dict(record, type="event") for record in events]
    counts = {}
    for record in records:
        counts[record["type"]] = counts.get(record["type"], 0) + 1
    manifest = {"type": "manifest", "version": 1, "site": site,
                "epoch": epoch, "git_sha": "cafecafecafe",
                "trigger": trigger, "wall_t": wall_t, "mono_t": 0.0,
                "cluster": {"n_sites": n_sites},
                "sequence": sequence, "dropped_spans": 0,
                "counts": counts}
    path = str(directory / BUNDLE_NAME.format(site, sequence))
    write_bundle(path, manifest, records)
    return path


# ----------------------------------------------------------------------
# Collection and analysis over synthetic bundles
# ----------------------------------------------------------------------

def test_collect_bundles_reports_damage_without_raising(tmp_path):
    good = make_bundle(tmp_path, 0, 1000.0)
    bad = tmp_path / "flight-s1-001.jsonl"
    bad.write_text('{"type": "span", "t": 1.0}\n')
    bundles, problems = collect_bundles([str(tmp_path)])
    assert [bundle.path for bundle in bundles] == [good]
    assert len(problems) == 1
    assert "manifest" in problems[0]


def test_latest_bundle_per_site_wins(tmp_path):
    make_bundle(tmp_path, 0, 1000.0, sequence=1)
    newer = make_bundle(tmp_path, 0, 1050.0, sequence=2,
                        trigger="manual")
    bundles, _ = collect_bundles([str(tmp_path)])
    analysis = analyze(bundles)
    assert len(analysis["bundles"]) == 1
    assert analysis["bundles"][0]["path"] == newer
    assert analysis["bundles"][0]["trigger"] == "manual"


def incident_bundles(tmp_path):
    """A 3-site incident: site 2 went dark.  Sites 0 and 1 dumped;
    trace t0.5 committed at s0 expecting {1, 2} but only s1 applied."""
    base = 2000.0
    spans0 = [
        span(0, base + 0.000, "committed", "t0.5", expected=[1, 2]),
        span(0, base + 0.001, "forwarded", "t0.5", peer=1),
        span(0, base + 0.001, "forwarded", "t0.5", peer=2),
    ]
    events0 = [
        {"t": base + 1.0, "mono": 1.0, "kind": "alert",
         "rule": "site-down", "severity": "critical", "alert_site": 2,
         "message": "site s2 unreachable for 2 consecutive polls"},
    ]
    spans1 = [
        span(1, base + 0.010, "received", "t0.5"),
        span(1, base + 0.015, "journaled", "t0.5"),
        span(1, base + 0.020, "applied", "t0.5"),
    ]
    make_bundle(tmp_path, 0, base + 2.0, spans=spans0, events=events0,
                trigger="watchdog:site-down")
    make_bundle(tmp_path, 1, base + 2.0, spans=spans1,
                trigger="watchdog:site-down")
    return base


def test_analyze_localizes_dark_site_and_stalled_hop(tmp_path):
    incident_bundles(tmp_path)
    bundles, problems = collect_bundles([str(tmp_path)])
    assert problems == []
    analysis = analyze(bundles)

    assert analysis["sites"] == [0, 1]
    assert analysis["missing_sites"] == [2]  # from the manifest facts

    kinds = [finding["kind"] for finding in analysis["findings"]]
    assert "site-down" in kinds and "stall" in kinds
    assert kinds.index("site-down") < kinds.index("stall")
    down = next(finding for finding in analysis["findings"]
                if finding["kind"] == "site-down")
    assert down["site"] == 2
    assert "no bundle recovered" in down["summary"]
    assert "site-down critical fired 1 time(s)" in down["summary"]
    stall = next(finding for finding in analysis["findings"]
                 if finding["kind"] == "stall")
    assert stall["site"] == 2
    assert "s0→s2" in stall["summary"]

    # One complete tree (s0 → s1), one permanently incomplete hop.
    assert analysis["propagation"]["count"] == 1
    assert analysis["propagation"]["complete"] == 0

    # The merged timeline carries the dump markers, the alert, and
    # the stall, causally ordered.
    kinds = [entry["kind"] for entry in analysis["timeline"]]
    assert kinds.index("stall") < kinds.index("alert")
    assert kinds.count("dump") == 2


def test_report_renders_localization(tmp_path):
    base = incident_bundles(tmp_path)
    make_bundle(tmp_path, 2, base + 1.5, trigger="sigterm", sequence=1)
    bundles, _ = collect_bundles([str(tmp_path)])
    analysis = analyze(
        bundles,
        injections=[{"t": 0.4, "kind": "kill", "site": 2}])
    report = format_report(analysis)
    assert "postmortem: 3 bundle(s) from s0, s1, s2" in report
    assert "fault localization:" in report
    assert "s2 dark" in report
    assert "fault script (1 injection decision(s)" in report
    assert '"kind": "kill"' in report
    assert "timeline" in report

    # With a bundle recovered from s2 the dark finding keeps only the
    # alert evidence.
    down = next(finding for finding in analysis["findings"]
                if finding["kind"] == "site-down")
    assert "no bundle recovered" not in down["summary"]

    json.dumps(analysis)  # the analysis is its machine-readable view


def test_bundles_merge_on_their_recorded_clock(tmp_path):
    """Every site stamps the one host clock, so spans from different
    bundles merge on their recorded ``t`` unshifted: the s0→s1 hop
    delay is the raw difference, and the analysis has no clock
    section."""
    base = 3000.0
    make_bundle(tmp_path, 0, base + 1.0, spans=[
        span(0, base + 0.000, "committed", "t0.7", expected=[1]),
        span(0, base + 0.001, "forwarded", "t0.7", peer=1)])
    make_bundle(tmp_path, 1, base + 1.0, spans=[
        span(1, base + 0.004, "received", "t0.7"),
        span(1, base + 0.010, "applied", "t0.7")])
    bundles, _ = collect_bundles([str(tmp_path)])
    analysis = analyze(bundles)
    assert analysis["propagation"]["complete"] == 1
    assert analysis["propagation"]["max"] == (base + 0.010) - base
    assert analysis["window"] == [base, base + 1.0]
    assert "clock" not in analysis


# ----------------------------------------------------------------------
# End to end: chaos verdict failure → bundles → localization
# ----------------------------------------------------------------------

def test_chaos_verdict_failure_leaves_forensic_bundles(tmp_path):
    """The committed known-bad scenario (forward-before-wal + crash)
    must fail its oracles, dump one bundle per member into
    ``bundle_dir`` with the injection log, and the postmortem analysis
    over those bundles must localize the incident."""
    from repro.chaos.controller import ChaosScenario, run_chaos

    scenario = ChaosScenario.load("tests/data/chaos_known_bad.json")
    bundle_dir = tmp_path / "bundles"
    report = run_chaos(scenario, wal_dir=str(tmp_path / "wal"),
                       bundle_dir=str(bundle_dir))
    assert not report.ok
    assert report.violations
    n_sites = scenario.spec.params.n_sites
    assert len(report.bundles) == n_sites
    assert (bundle_dir / "injections.json").exists()
    assert "flight bundles: {} dumped".format(n_sites) in \
        report.format()

    bundles, problems = collect_bundles([str(bundle_dir)])
    assert problems == []
    assert len(bundles) == n_sites
    for bundle in bundles:
        assert bundle.manifest["trigger"] == "chaos-verdict"
    injections = json.loads(
        (bundle_dir / "injections.json").read_text())
    analysis = analyze(bundles, injections=injections)
    assert analysis["missing_sites"] == []
    # The injected faults were broadcast into every recorder, so the
    # merged timeline shows the kill the moment it happened.
    faults = [entry for entry in analysis["timeline"]
              if entry["kind"] == "fault"]
    assert any(entry.get("fault") == "kill" for entry in faults)
    report_text = format_report(analysis)
    assert "fault localization:" in report_text
    assert "bundle dumped (trigger chaos-verdict)" in report_text


def test_analyze_of_no_bundles_is_empty_but_renders():
    analysis = analyze([])
    assert analysis["sites"] == []
    assert analysis["findings"] == []
    report = format_report(analysis)
    assert "no site" in report
    assert "no anomaly localized" in report


def test_bundle_accessors():
    bundle = Bundle("x.jsonl",
                    {"site": 2, "wall_t": 5.0},
                    [{"type": "span", "t": 1.0, "site": 2,
                      "event": "applied"},
                     {"type": "event", "t": 2.0, "kind": "alert"},
                     {"type": "state", "name": "wal",
                      "state": {"synced": 3}}])
    assert bundle.site == 2
    assert bundle.wall_t == 5.0
    assert len(bundle.spans()) == 1
    assert len(bundle.events()) == 1
    assert bundle.states() == {"wal": {"synced": 3}}
