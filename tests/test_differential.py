"""Differential testing across protocols.

All serializable propagation protocols must drive the replicas to the
*same* final values on the same committed workload — they differ in
freshness and messaging, not in outcome.  The indiscriminate baseline is
the differential's control: the explorer must flag it within a bounded
number of schedules.
"""

from __future__ import annotations

import pytest

from repro.explorer import (
    ExplorationConfig,
    PerturbationPlan,
    ScenarioSpec,
    build_scenario,
    explore,
    run_schedule,
)

#: The serializable propagation protocols under comparison (PSL is
#: excluded: it refreshes on access, so replicas lag by design).
PROTOCOLS = ("dag_wt", "dag_t", "backedge", "eager")

#: Fixed low-contention workload: writes spaced well apart so every
#: protocol commits everything (eager included).
WORKLOAD = ScenarioSpec(
    protocol="dag_wt",
    n_sites=3,
    items=((0, 0, (1, 2)), (1, 1, (2,))),
    transactions=(
        (0, 1, 0.0, (("w", 0),)),
        (1, 1, 0.2, (("r", 0), ("w", 1))),
        (2, 1, 0.5, (("r", 0), ("r", 1))),
        (0, 2, 0.8, (("w", 0),)),
        (1, 2, 1.1, (("w", 1),)),
    ))


def _final_values(protocol: str, plan: PerturbationPlan):
    spec = WORKLOAD.with_protocol(protocol)
    builder = build_scenario(spec,
                             schedule_policy=plan.schedule_policy())
    _env, system, _protocol = builder.build()
    system.network.set_perturbation(plan.latency_perturb(spec.latency))
    result = builder.run(until=spec.until, drain=spec.drain)
    assert result.all_committed, protocol
    result.check()
    return {(site.site_id, item_id):
            (site.engine.item(item_id).value,
             site.engine.item(item_id).committed_version)
            for site in system.sites
            for item_id in site.engine.item_ids()}


def test_protocols_converge_to_identical_values_unperturbed():
    plan = PerturbationPlan(seed=0, latency_scale=0.0,
                            schedule_noise=False)
    baseline = _final_values(PROTOCOLS[0], plan)
    for protocol in PROTOCOLS[1:]:
        assert _final_values(protocol, plan) == baseline, protocol


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_protocols_converge_under_perturbation(seed):
    # Scale 50 keeps the worst extra delay (50 x 1ms) below the lock
    # timeout, so even eager's 2PC lock holds cannot force aborts on
    # this low-contention workload.
    plan = PerturbationPlan(seed=seed, latency_scale=50.0)
    baseline = _final_values(PROTOCOLS[0], plan)
    for protocol in PROTOCOLS[1:]:
        assert _final_values(protocol, plan) == baseline, protocol


def test_serializable_protocols_pass_oracles_on_the_workload():
    plan = PerturbationPlan(seed=5, latency_scale=200.0)
    for protocol in PROTOCOLS:
        outcome = run_schedule(WORKLOAD.with_protocol(protocol), plan)
        assert not outcome.failed, (protocol, outcome.failures)


def test_explorer_flags_indiscriminate_within_bounded_schedules():
    report = explore(ExplorationConfig(protocol="indiscriminate",
                                       budget=200, seed=0))
    assert report.failures_found >= 1
    assert report.schedules_run <= 200
    assert any(failure.oracle in ("acyclicity", "convergence")
               for failure in report.failure.failures)
