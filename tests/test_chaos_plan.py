"""Unit tests for the chaos fault-plan layer.

The plan is the replayable artifact of the whole harness: everything a
chaos run injects must be a pure function of the plan's seed and
script, and the script must survive a JSON round trip unchanged.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos.plan import (
    PROFILES,
    CorruptFault,
    FaultPlan,
    KillFault,
    LinkFault,
    LinkFaultInjector,
    profile_plan,
)


def full_plan() -> FaultPlan:
    return FaultPlan(seed=7, events=(
        LinkFault(delay=0.001, jitter=0.004, reorder=0.1),
        LinkFault(src=0, dst=2, drop=0.2, ack_loss=0.1),
        KillFault(site=1, at=0.4, down_for=0.3),
        CorruptFault(site=1, target="journal", mode="torn", offset=-5),
        CorruptFault(site=1, target="wal", mode="bitflip",
                     offset=12, bit=6),
    ))


def test_plan_json_round_trip_is_lossless():
    plan = full_plan()
    assert FaultPlan.from_json(plan.to_json()) == plan
    # And through an actual string, as the CLI artifacts do it.
    assert FaultPlan.from_json(
        json.loads(json.dumps(plan.to_json()))) == plan


def test_plan_event_views_partition_and_sort():
    plan = full_plan()
    assert len(plan.link_events()) == 2
    assert [e.site for e in plan.kill_events()] == [1]
    assert len(plan.corrupt_events()) == 2
    assert plan.corrupt_events(site=0) == []
    # Kill events come back sorted by schedule time.
    multi = FaultPlan(events=(KillFault(site=2, at=0.9),
                              KillFault(site=0, at=0.1)))
    assert [e.site for e in multi.kill_events()] == [0, 2]


@pytest.mark.parametrize("bad, message", [
    (LinkFault(drop=1.5), "probability"),
    (LinkFault(ack_loss=-0.1), "probability"),
    (LinkFault(delay=-1.0), "negative"),
    (KillFault(site=0, at=-0.5), "negative"),
    (CorruptFault(site=0, target="inbox"), "target"),
    (CorruptFault(site=0, mode="scribble"), "mode"),
    (CorruptFault(site=0, bit=8), "bit"),
])
def test_validate_rejects_malformed_events(bad, message):
    with pytest.raises(ValueError, match=message):
        FaultPlan(events=(bad,)).validate()


def test_validate_rejects_kill_outside_cluster():
    plan = FaultPlan(events=(KillFault(site=5, at=0.1),))
    plan.validate()  # fine without a cluster size
    with pytest.raises(ValueError, match="outside the cluster"):
        plan.validate(n_sites=3)


def test_every_profile_yields_a_valid_plan():
    for name in sorted(PROFILES):
        for n_sites in (2, 3, 5):
            plan = profile_plan(name, seed=3, n_sites=n_sites)
            plan.validate(n_sites=n_sites)
            # Profiles are replayable artifacts too.
            assert FaultPlan.from_json(plan.to_json()) == plan


def test_unknown_profile_raises():
    with pytest.raises((KeyError, ValueError)):
        profile_plan("does-not-exist", seed=0, n_sites=3)


def test_injector_decisions_are_deterministic_per_seed():
    plan = FaultPlan(seed=13, events=(
        LinkFault(delay=0.001, jitter=0.01, drop=0.3, ack_loss=0.2,
                  reorder=0.2),))
    frames = [(src, dst, seq, 1)
              for src in range(3) for dst in range(3) if src != dst
              for seq in range(1, 20)]
    first = LinkFaultInjector(plan)
    second = LinkFaultInjector(plan)
    for frame in frames:
        assert first.on_frame(*frame) == second.on_frame(*frame)
    assert first.sorted_log() == second.sorted_log()
    # Arrival order must not matter either.
    shuffled = LinkFaultInjector(plan)
    for frame in reversed(frames):
        shuffled.on_frame(*frame)
    assert shuffled.sorted_log() == first.sorted_log()


def test_injector_reseeds_change_decisions():
    events = (LinkFault(jitter=0.01, drop=0.3),)
    frames = [(0, 1, seq, 1) for seq in range(1, 40)]
    a = LinkFaultInjector(FaultPlan(seed=1, events=events))
    b = LinkFaultInjector(FaultPlan(seed=2, events=events))
    verdicts_a = [a.on_frame(*f) for f in frames]
    verdicts_b = [b.on_frame(*f) for f in frames]
    assert verdicts_a != verdicts_b


def test_injector_resend_attempt_rerolls():
    # A deterministic drop must not repeat forever: the resend is a new
    # attempt and re-rolls the drop decision.
    plan = FaultPlan(seed=0, events=(LinkFault(drop=0.5),))
    injector = LinkFaultInjector(plan)
    verdicts = [injector.on_frame(0, 1, 1, 1) for _ in range(64)]
    assert any(v.drop for v in verdicts)
    assert any(not v.drop for v in verdicts)
    attempts = [entry["attempt"] for entry in injector.log]
    assert attempts == list(range(64))


def test_injector_log_entries_are_replay_shaped():
    plan = FaultPlan(seed=5, events=(
        LinkFault(delay=0.002, jitter=0.003),))
    injector = LinkFaultInjector(plan)
    injector.on_frame(0, 1, 1, 1)
    injector.on_frame(1, 2, 4, 1)
    for entry in injector.sorted_log():
        assert set(entry) >= {"src", "dst", "seq", "attempt", "delay",
                              "drop", "ack_loss", "reorder"}
        assert 0.002 <= entry["delay"] < 0.005


def test_injector_ignores_unmatched_channels():
    plan = FaultPlan(seed=0, events=(
        LinkFault(src=0, dst=1, delay=0.01),))
    injector = LinkFaultInjector(plan)
    assert injector.on_frame(1, 0, 1, 1) is None
    assert injector.on_frame(2, 1, 1, 1) is None
    assert injector.on_frame(0, 1, 1, 1) is not None
    # Unmatched frames leave no trace in the injection log.
    assert len(injector.log) == 1


def test_empty_plan_never_injects():
    injector = LinkFaultInjector(FaultPlan(seed=9))
    for seq in range(1, 50):
        assert injector.on_frame(0, 1, seq, 1) is None
    assert injector.log == []
