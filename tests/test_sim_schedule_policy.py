"""Environment edge cases around the schedule-policy tie-break hook."""

from __future__ import annotations

import pytest

from repro.sim.environment import (
    INSERTION_ORDER,
    EmptySchedule,
    Environment,
    SchedulePolicy,
)
from repro.sim.events import NORMAL, URGENT


def test_peek_on_empty_schedule_is_infinite():
    env = Environment()
    assert env.peek() == float("inf")


def test_step_on_empty_schedule_raises():
    with pytest.raises(EmptySchedule):
        Environment().step()


def test_events_processed_counts_every_step():
    env = Environment()
    for _ in range(5):
        env.timeout(1.0)
    assert env.events_processed == 0
    env.run()
    assert env.events_processed == 5


def _trace_order(policy=None, n=6):
    """Schedule ``n`` same-time same-priority events; return fire order."""
    env = Environment(schedule_policy=policy)
    fired = []
    for index in range(n):
        timer = env.timeout(1.0)
        timer.callbacks.append(
            lambda _event, index=index: fired.append(index))
    env.run()
    return fired


def test_default_policy_keeps_insertion_order():
    assert _trace_order() == list(range(6))
    assert _trace_order(SchedulePolicy()) == list(range(6))


def test_policy_hook_reorders_same_time_events():
    class Reverse(SchedulePolicy):
        def tie_break(self, time, priority, eid):
            return -eid

    assert _trace_order(Reverse()) == list(reversed(range(6)))


def test_equal_keys_fall_back_to_insertion_order():
    class Constant(SchedulePolicy):
        def tie_break(self, time, priority, eid):
            return 42

    assert _trace_order(Constant()) == list(range(6))


def test_priority_dominates_any_tie_break_key():
    # A policy key can never push an urgent event behind a normal one —
    # wound messages must stay ahead of same-time normal events.
    class Hostile(SchedulePolicy):
        def tie_break(self, time, priority, eid):
            return -1 if priority == NORMAL else 10 ** 9

    env = Environment(schedule_policy=Hostile())
    fired = []
    normal = env.event()
    urgent = env.event()
    for event in (normal, urgent):
        event._ok = True
        event._value = None
    normal.callbacks.append(lambda _e: fired.append("normal"))
    urgent.callbacks.append(lambda _e: fired.append("urgent"))
    env.schedule(normal, priority=NORMAL, delay=1.0)
    env.schedule(urgent, priority=URGENT, delay=1.0)
    env.run()
    assert fired == ["urgent", "normal"]


def test_time_dominates_the_policy_key():
    class Hostile(SchedulePolicy):
        def tie_break(self, time, priority, eid):
            return -eid

    env = Environment(schedule_policy=Hostile())
    fired = []
    early = env.timeout(1.0)
    late = env.timeout(2.0)
    late.callbacks.append(lambda _e: fired.append("late"))
    early.callbacks.append(lambda _e: fired.append("early"))
    env.run()
    assert fired == ["early", "late"]


def test_policy_is_consulted_with_absolute_time_and_eid():
    seen = []

    class Spy(SchedulePolicy):
        def tie_break(self, time, priority, eid):
            seen.append((time, priority, eid))
            return 0

    env = Environment(initial_time=10.0, schedule_policy=Spy())
    env.timeout(2.5)
    assert seen == [(12.5, NORMAL, 1)]


def test_default_policy_is_never_called(monkeypatch):
    # Its key is the constant 0, so the kernel skips the call.
    def refuse(self, time, priority, eid):
        raise AssertionError("tie_break called under the default policy")

    monkeypatch.setattr(SchedulePolicy, "tie_break", refuse)
    env = Environment()
    assert env.schedule_policy is INSERTION_ORDER
    for delay in (1.0, 1.0, 0.0):
        env.timeout(delay)
    env.run()
    assert env.events_processed == 3


def test_policy_assigned_after_construction_is_consulted():
    seen = []

    class Spy(SchedulePolicy):
        def tie_break(self, time, priority, eid):
            seen.append((time, priority, eid))
            return 0

    env = Environment(initial_time=10.0)
    env.timeout(1.0)
    env.schedule_policy = Spy()
    env.timeout(2.5)
    assert seen == [(12.5, NORMAL, 2)]
