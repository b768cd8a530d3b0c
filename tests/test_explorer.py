"""The schedule explorer: decisions, generation, running, shrinking,
traces, and the end-to-end indiscriminate reproduction."""

from __future__ import annotations

import json

import pytest

from repro.explorer import (
    ExplorationConfig,
    PerturbationPlan,
    ScenarioSpec,
    build_scenario,
    ddmin,
    explore,
    generate_scenario,
    load_trace,
    replay_trace,
    run_schedule,
    save_trace,
    shrink_failure,
)
from repro.explorer.decisions import stable_u64
from repro.explorer.trace import reproduces, trace_dict


# ---------------------------------------------------------------------
# Addressable decisions
# ---------------------------------------------------------------------

def test_stable_u64_is_deterministic_and_key_sensitive():
    assert stable_u64(1, "net:0:1:0") == stable_u64(1, "net:0:1:0")
    assert stable_u64(1, "net:0:1:0") != stable_u64(2, "net:0:1:0")
    assert stable_u64(1, "net:0:1:0") != stable_u64(1, "net:0:1:1")


def test_plan_roundtrip_preserves_every_decision():
    plan = PerturbationPlan(seed=7, latency_scale=50.0,
                            schedule_noise=True,
                            disabled={"net:0:1:2", "sched:3"})
    clone = PerturbationPlan.from_dict(plan.to_dict())
    assert clone.seed == plan.seed
    assert clone.latency_scale == plan.latency_scale
    assert clone.schedule_noise == plan.schedule_noise
    assert clone.disabled == plan.disabled


def test_disabled_decisions_revert_to_defaults():
    plan = PerturbationPlan(seed=3, latency_scale=100.0)
    perturb = plan.latency_perturb(0.001)
    extra = perturb(0, 1, 0)
    assert extra > 0
    disabled = plan.replaced(disabled={"net:0:1:0"})
    assert disabled.latency_perturb(0.001)(0, 1, 0) == 0.0

    policy = plan.schedule_policy()
    key = policy.tie_break(0.0, 1, 5)
    assert key == stable_u64(3, "sched:5", 5) & 0xFFFF
    quiet = plan.replaced(disabled={"sched:5"}).schedule_policy()
    assert quiet.tie_break(0.0, 1, 5) == 0


def test_plan_records_queried_decision_keys():
    plan = PerturbationPlan(seed=1, latency_scale=10.0)
    plan.latency_perturb(0.001)(0, 2, 1)
    plan.schedule_policy().tie_break(0.0, 1, 4)
    assert "net:0:2:1" in plan.queried
    assert "sched:4" in plan.queried


# ---------------------------------------------------------------------
# Scenario generation
# ---------------------------------------------------------------------

def test_generated_scenarios_are_valid_and_deterministic():
    for seed in range(10):
        spec = generate_scenario(seed, "dag_wt", min_sites=2,
                                 max_sites=6)
        assert spec == generate_scenario(seed, "dag_wt", min_sites=2,
                                         max_sites=6)
        assert 2 <= spec.n_sites <= 6
        assert spec.items and spec.transactions
        for _item, primary, replicas in spec.items:
            # Replicas strictly downstream: the copy graph stays a DAG.
            assert all(replica > primary for replica in replicas)
        # Every generated scenario must actually run under a protocol
        # that requires a DAG copy graph.
        build_scenario(spec).build()


def test_scenario_spec_roundtrip_and_subset():
    spec = generate_scenario(3, "eager")
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    reduced = spec.subset([0])
    assert reduced.transactions == spec.transactions[:1]
    assert reduced.items == spec.items
    assert spec.with_protocol("dag_t").protocol == "dag_t"


# ---------------------------------------------------------------------
# Deterministic execution
# ---------------------------------------------------------------------

def test_run_schedule_is_deterministic():
    spec = generate_scenario(5, "dag_wt")
    plan = PerturbationPlan(seed=11, latency_scale=200.0)
    first = run_schedule(spec, plan)
    second = run_schedule(spec, PerturbationPlan.from_dict(
        plan.to_dict()))
    assert first.outcomes == second.outcomes
    assert first.events_processed == second.events_processed
    assert [f.to_dict() for f in first.failures] == \
        [f.to_dict() for f in second.failures]


def test_perturbation_changes_delivery_times():
    spec = generate_scenario(5, "dag_wt")

    def deliveries(plan):
        builder = build_scenario(
            spec, schedule_policy=plan.schedule_policy())
        _env, system, _protocol = builder.build()
        system.network.set_perturbation(
            plan.latency_perturb(spec.latency))
        system.network.record_deliveries = True
        builder.run(until=spec.until, drain=spec.drain)
        return [(message.src, message.dst, message.deliver_time)
                for message in system.network.delivery_log]

    calm = deliveries(PerturbationPlan(
        seed=0, latency_scale=0.0, schedule_noise=False))
    stormy = deliveries(PerturbationPlan(seed=99, latency_scale=500.0))
    # The perturbation genuinely moves deliveries ...
    assert calm != stormy
    # ... while correctness is untouched (both runs stay clean).
    assert not run_schedule(spec, PerturbationPlan(
        seed=99, latency_scale=500.0)).failed


# ---------------------------------------------------------------------
# ddmin
# ---------------------------------------------------------------------

def test_ddmin_finds_the_minimal_subset():
    target = {3, 7}
    probes = []

    def test_fn(subset):
        probes.append(list(subset))
        return target <= set(subset)

    result = ddmin(list(range(10)), test_fn)
    assert set(result) == target
    assert len(probes) < 60


def test_ddmin_keeps_singleton():
    assert ddmin([4], lambda subset: 4 in subset) == [4]


# ---------------------------------------------------------------------
# End-to-end: the indiscriminate baseline must be caught and shrunk
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def indiscriminate_report():
    return explore(ExplorationConfig(protocol="indiscriminate",
                                     budget=200, seed=0))


def test_explorer_flags_indiscriminate(indiscriminate_report):
    report = indiscriminate_report
    assert report.failures_found >= 1
    assert report.failure is not None
    # The baseline loses updates and orders them inconsistently; which
    # oracle sees it first depends on the schedule.
    assert any(failure.oracle in ("acyclicity", "convergence")
               for failure in report.failure.failures)


def test_shrunk_reproducer_is_minimal(indiscriminate_report):
    failure = indiscriminate_report.failure
    oracles = {f.oracle for f in failure.failures}
    # The acceptance bound: a handful of transactions, not the full
    # generated workload.
    assert len(failure.spec.transactions) <= 4
    # Every remaining transaction is necessary: removing any one makes
    # the failure disappear.
    for index in range(len(failure.spec.transactions)):
        keep = [i for i in range(len(failure.spec.transactions))
                if i != index]
        probe = run_schedule(failure.spec.subset(keep), failure.plan)
        assert not any(f.oracle in oracles for f in probe.failures)


def test_serializable_protocols_survive_the_same_schedules():
    # The exact scenario that breaks indiscriminate must be handled by
    # the serializable protocols (differential oracle check).
    report = explore(ExplorationConfig(protocol="indiscriminate",
                                       budget=200, seed=0))
    spec, plan = report.failure.spec, report.failure.plan
    for protocol in ("dag_wt", "backedge", "eager"):
        outcome = run_schedule(spec.with_protocol(protocol), plan)
        assert not outcome.failed, protocol


def test_explore_is_clean_for_dag_wt():
    report = explore(ExplorationConfig(protocol="dag_wt", budget=30,
                                       seed=1))
    assert report.clean
    assert report.schedules_run == 30
    assert report.committed_total > 0


# ---------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------

def test_trace_roundtrip_and_replay(tmp_path, indiscriminate_report):
    report = indiscriminate_report
    failure = report.failure
    path = str(tmp_path / "trace.json")
    document = save_trace(path, failure.spec, failure.plan, failure,
                          meta={"protocol": "indiscriminate"})
    assert document == json.loads(
        json.dumps(report.trace | {"meta": document["meta"]}))

    spec, plan, loaded = load_trace(path)
    assert spec == failure.spec
    assert plan.to_dict() == failure.plan.to_dict()

    outcome, original = replay_trace(path)
    assert reproduces(outcome, original)
    # The replayed cycle is identical node for node.
    assert outcome.cycle() == failure.cycle()


def test_reproduces_rejects_a_diverged_outcome(indiscriminate_report):
    failure = indiscriminate_report.failure
    document = trace_dict(failure.spec, failure.plan, failure)
    clean = run_schedule(failure.spec.with_protocol("dag_wt"),
                         failure.plan)
    assert not reproduces(clean, document)


def test_load_trace_rejects_unknown_version():
    with pytest.raises(ValueError):
        load_trace({"version": 999})


# ---------------------------------------------------------------------
# Shrinking edge cases
# ---------------------------------------------------------------------

def test_shrink_failure_requires_a_failing_input():
    spec = generate_scenario(5, "dag_wt")
    with pytest.raises(ValueError):
        shrink_failure(spec, PerturbationPlan(seed=0))


def test_shrink_respects_its_run_budget(indiscriminate_report):
    failure = indiscriminate_report.failure
    stats: dict = {}
    shrink_failure(failure.spec, failure.plan, max_runs=5, stats=stats)
    assert stats["runs"] <= 5
