"""End-to-end tests for the chaos harness against live clusters.

Each test boots a real cluster (asyncio servers on localhost TCP),
runs a seeded fault script through :func:`repro.chaos.run_chaos` and
checks the verdict machinery: healthy perturbations stay green, the
injection log replays bit-for-bit, injected regressions are caught and
shrink to a tiny script, log corruption is never silent, and a killed
mid-tree site is localised to its copy-graph hop.

Every cluster listens on a free port range drawn per test
(``tests.helpers.free_base_port``), so runs never collide.
"""

from __future__ import annotations

import dataclasses

from repro.chaos.controller import ChaosScenario, run_chaos
from repro.chaos.plan import FaultPlan, KillFault, LinkFault, \
    profile_plan
from repro.chaos.shrinker import shrink_scenario
from repro.cluster.spec import ClusterSpec
from repro.obs.monitor import MonitorConfig
from repro.workload.params import WorkloadParams
from tests.helpers import free_base_port


def make_spec(protocol="dag_wt", seed=3, **overrides):
    params = dict(n_sites=3, n_items=12,
                  replication_probability=0.8,
                  threads_per_site=2, transactions_per_thread=6,
                  read_txn_probability=0.3, deadlock_timeout=0.05)
    params.update(overrides)
    return ClusterSpec(params=WorkloadParams(**params),
                       protocol=protocol, seed=seed,
                       base_port=free_base_port(params["n_sites"]))


def assert_green(report):
    assert report.ok, report.violations
    assert report.committed > 0
    assert report.convergent and report.serializable
    assert report.alerts_post.get("critical", 0) == 0


def test_healthy_jitter_run_is_green_on_dag_wt(tmp_path):
    scenario = ChaosScenario(
        spec=make_spec(), plan=profile_plan("jitter", seed=1,
                                                n_sites=3),
        name="jitter/dag_wt")
    report = run_chaos(scenario, str(tmp_path / "wal"))
    assert_green(report)
    assert report.alerts_during.get("critical", 0) == 0
    assert report.injections  # jitter really was on the wire


def test_healthy_jitter_run_is_green_on_backedge(tmp_path):
    scenario = ChaosScenario(
        spec=make_spec(protocol="backedge", seed=5),
        plan=profile_plan("jitter", seed=1, n_sites=3),
        name="jitter/backedge")
    report = run_chaos(scenario, str(tmp_path / "wal"))
    assert_green(report)
    assert report.alerts_during.get("critical", 0) == 0


def test_injection_log_is_exactly_replayable(tmp_path):
    """Same scenario, two fresh clusters: every frame attempt both runs
    made must have drawn the identical verdict — the artifact a failing
    run saves really is a replay script.

    A verdict is a pure function of ``(seed, src, dst, seq, attempt)``;
    *which* attempts a run makes is not (a timing-dependent control
    frame shifts one run's tail by an entry about one run in six), so
    the logs are compared on the attempts they share.  Frame cap 1
    makes every message its own frame attempt: at a larger cap, how
    many messages share a frame depends on the backlog the sender
    finds, which is timing, not the plan."""
    spec = dataclasses.replace(
        make_spec(n_sites=2, n_items=6,
                  replication_probability=1.0,
                  threads_per_site=1, transactions_per_thread=8,
                  read_txn_probability=0.0),
        batch=1)
    plan = FaultPlan(seed=21, events=(
        LinkFault(delay=0.001, jitter=0.004),))
    scenario = ChaosScenario(spec=spec, plan=plan,
                             name="replay-equality")
    first = run_chaos(scenario, str(tmp_path / "wal1"), monitor=False)
    second = run_chaos(scenario, str(tmp_path / "wal2"), monitor=False)
    assert first.ok, first.violations
    assert second.ok, second.violations

    def verdicts(report):
        return {
            (e["src"], e["dst"], e["seq"], e["attempt"]):
            (e["delay"], e["drop"], e["ack_loss"], e["reorder"])
            for e in report.injections}

    one, two = verdicts(first), verdicts(second)
    shared = one.keys() & two.keys()
    assert {key: one[key] for key in shared} == \
        {key: two[key] for key in shared}
    # Non-trivial comparison: the runs overlap on nearly everything
    # (8 or 9 attempts each, differing by at most the one tail entry).
    assert shared and len(shared) >= 0.8 * max(len(one), len(two))
    assert first.committed == second.committed


def test_regression_is_caught_and_shrinks_to_tiny_script(tmp_path):
    """The known-bad fixture (forward-before-WAL with a kill under
    jitter noise) must fail its oracles, and ddmin must strip the
    noise down to at most 3 events."""
    scenario = ChaosScenario.load("tests/data/chaos_known_bad.json")
    scenario = scenario.replaced(spec=dataclasses.replace(
        scenario.spec,
        base_port=free_base_port(scenario.spec.params.n_sites)))
    probes = []
    minimal, report = shrink_scenario(
        scenario, str(tmp_path / "shrink"),
        log=lambda line: probes.append(line))
    assert not report.ok
    assert any("convergence" in v or "serializability" in v or
               "post-monitor" in v for v in report.violations), \
        report.violations
    assert len(minimal.plan.events) <= 3
    # The kill is the load-bearing event: without it the neutered
    # durability barrier never becomes observable divergence.
    assert minimal.plan.kill_events()
    # The shrunk scenario is a self-contained replayable artifact.
    path = tmp_path / "minimal.json"
    minimal.save(str(path))
    assert ChaosScenario.load(str(path)).plan == minimal.plan


def test_torn_journal_profile_repairs_silently(tmp_path):
    scenario = ChaosScenario(
        spec=make_spec(),
        plan=profile_plan("torn-journal", seed=4, n_sites=3),
        name="torn-journal")
    report = run_chaos(scenario, str(tmp_path / "wal"))
    assert_green(report)
    assert report.corruption, "the torn tail was never applied"
    assert all(record["via"] == "torn-repair"
               for record in report.corruption), report.corruption
    assert not any("torn" in v for v in report.violations)


def test_bitflip_profile_is_detected_never_silent(tmp_path):
    scenario = ChaosScenario(
        spec=make_spec(),
        plan=profile_plan("bitflip-wal", seed=4, n_sites=3),
        name="bitflip-wal")
    report = run_chaos(scenario, str(tmp_path / "wal"))
    assert_green(report)
    assert report.corruption, "the bit flip was never applied"
    # Every flip must be caught by the record checksums ("error") or
    # land in a region the torn-tail repair legitimately discards
    # ("torn-repair") — never load as clean data.
    assert all(record["via"] in ("error", "torn-repair")
               for record in report.corruption), report.corruption
    assert not any("silent-corruption" in v
                   for v in report.violations)


def test_killed_mid_tree_site_is_localised_to_its_hop(tmp_path):
    """DAG(WT) on seed 3 is the chain 0 -> 1 -> 2.  Chaos-killing
    site 1 mid-workload must raise a stuck-propagation alert whose
    evidence names the copy-graph hop into the dead site."""
    spec = make_spec(transactions_per_thread=20)
    scenario = ChaosScenario(
        spec=spec,
        plan=FaultPlan(seed=0, events=(
            KillFault(site=1, at=0.3, down_for=2.0),)),
        name="kill-mid-tree")
    report = run_chaos(
        scenario, str(tmp_path / "wal"),
        monitor_config=MonitorConfig(
            interval=0.15, convergence_every=0, trace_limit=256,
            stuck_deadline=0.6, down_polls=2))
    # Kills are out-of-model noise for the during-run monitor, so the
    # run itself must still settle green after the restart.
    assert report.ok, report.violations
    assert report.kills and report.kills[0]["site"] == 1
    stuck = [alert for alert
             in report.alerts_during.get("alerts", [])
             if alert["rule"] == "stuck-propagation"]
    assert stuck, report.alerts_during.get("by_rule")
    hops = [tuple(hop) for alert in stuck
            for hop in alert["evidence"]["hops"]]
    assert hops and all(dst == 1 for _origin, dst in hops), hops
