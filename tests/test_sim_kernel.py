"""Tests for the discrete-event simulation kernel (events, environment,
processes)."""

import random

import pytest

from repro.errors import ReproError
from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SchedulePolicy,
)
from repro.sim.environment import EmptySchedule
from repro.sim.events import URGENT
from repro.storage.transaction import Transaction
from repro.types import GlobalTransactionId, SubtransactionKind


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(2.5)
        return env.now

    process = env.process(proc(env))
    env.run()
    assert process.value == 2.5
    assert env.now == 2.5


def test_timeout_rejects_negative_delay():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_event_succeed_once_only():
    env = Environment()
    event = env.event()
    event.succeed(42)
    with pytest.raises(RuntimeError):
        event.succeed(43)
    with pytest.raises(RuntimeError):
        event.fail(ValueError("nope"))


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(RuntimeError):
        _ = event.value
    with pytest.raises(RuntimeError):
        _ = event.ok


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_events_processed_in_time_then_fifo_order():
    env = Environment()
    order = []

    def waiter(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(waiter(env, 1.0, "b1"))
    env.process(waiter(env, 0.5, "a"))
    env.process(waiter(env, 1.0, "b2"))
    env.run()
    assert order == ["a", "b1", "b2"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run(until=3.5)
    assert env.now == 3.5


def test_run_until_event_returns_value():
    env = Environment()

    def producer(env, event):
        yield env.timeout(1.0)
        event.succeed("payload")

    event = env.event()
    env.process(producer(env, event))
    assert env.run(until=event) == "payload"
    assert env.now == 1.0


def test_run_until_failed_event_raises():
    env = Environment()

    def producer(env, event):
        yield env.timeout(1.0)
        event.fail(ReproError("boom"))

    event = env.event()
    env.process(producer(env, event))
    with pytest.raises(ReproError):
        env.run(until=event)


def test_run_until_earlier_than_now_raises():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_process_receives_event_value():
    env = Environment()

    def proc(env, event):
        value = yield event
        return value * 2

    event = env.event()
    process = env.process(proc(env, event))
    event.succeed(21)
    env.run()
    assert process.value == 42


def test_process_waits_on_already_processed_event():
    env = Environment()
    event = env.event()
    event.succeed("early")
    env.run()  # Process the event with no listeners.

    def late(env, ev):
        value = yield ev
        return value

    process = env.process(late(env, event))
    env.run()
    assert process.value == "early"


def test_failed_event_thrown_into_process():
    env = Environment()

    def proc(env, event):
        try:
            yield event
        except ReproError:
            return "handled"

    event = env.event()
    process = env.process(proc(env, event))
    event.fail(ReproError("kaput"))
    env.run()
    assert process.value == "handled"


def test_unhandled_process_failure_propagates_from_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("exploded")

    env.process(bad(env))
    with pytest.raises(ValueError):
        env.run()


def test_unhandled_failed_event_raises_in_run():
    env = Environment()
    event = env.event()
    event.fail(ReproError("lost failure"))
    with pytest.raises(ReproError):
        env.run()


def test_defused_failed_event_is_silent():
    env = Environment()
    event = env.event()
    event.fail(ReproError("quiet"))
    event.defuse()
    env.run()  # No exception.


def test_yielding_non_event_raises_in_process():
    env = Environment()

    def bad(env):
        yield 42

    process = env.process(bad(env))
    process.defuse()
    env.run()
    assert not process.ok
    assert isinstance(process.value, RuntimeError)


def test_process_is_event_waitable_by_other_process():
    env = Environment()

    def child(env):
        yield env.timeout(3.0)
        return "done"

    def parent(env):
        result = yield env.process(child(env))
        return (env.now, result)

    parent_proc = env.process(parent(env))
    env.run()
    assert parent_proc.value == (3.0, "done")


def test_interrupt_wakes_waiting_process():
    env = Environment()

    def sleeper(env):
        try:
            yield env.timeout(100.0)
            return "overslept"
        except Interrupt as interrupt:
            return ("interrupted", interrupt.cause, env.now)

    def interrupter(env, victim):
        yield env.timeout(1.0)
        victim.interrupt("wakeup")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert victim.value == ("interrupted", "wakeup", 1.0)


def test_interrupt_finished_process_is_error():
    env = Environment()

    def quick(env):
        yield env.timeout(0)

    process = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        process.interrupt()


def test_interrupted_wait_leaves_event_usable_by_others():
    env = Environment()
    event = env.event()

    def waiter(env, ev):
        value = yield ev
        return value

    def doomed(env, ev):
        try:
            yield ev
        except Interrupt:
            return "gone"

    survivor = env.process(waiter(env, event))
    victim = env.process(doomed(env, event))

    def driver(env, victim, event):
        yield env.timeout(1.0)
        victim.interrupt()
        yield env.timeout(1.0)
        event.succeed("payload")

    env.process(driver(env, victim, event))
    env.run()
    assert victim.value == "gone"
    assert survivor.value == "payload"


def test_interrupt_preempts_a_failure_the_process_has_not_seen_yet():
    """A wait that fails and an interrupt that lands in the same
    instant, before the failure is processed (a lock timeout racing a
    wound): the process gets the interrupt, and the failure it was the
    only listener of is dropped instead of surfacing from ``step`` as
    unhandled.  With another listener left, the failure still reaches
    it."""
    env = Environment()
    lonely, shared = env.event(), env.event()

    def doomed(env, ev):
        try:
            yield ev
        except Interrupt:
            return "interrupted"

    def listener(env, ev):
        try:
            yield ev
        except KeyError:
            return "saw the failure"

    first = env.process(doomed(env, lonely))
    second = env.process(doomed(env, shared))
    other = env.process(listener(env, shared))

    def driver(env):
        yield env.timeout(1.0)
        for event, victim in ((lonely, first), (shared, second)):
            event.fail(KeyError("timed out"))
            victim.interrupt()

    env.process(driver(env))
    env.run()
    assert first.value == second.value == "interrupted"
    assert other.value == "saw the failure"


def test_allof_collects_all_values():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(2.0, value="b")
        results = yield AllOf(env, [t1, t2])
        return (env.now, sorted(results.values()))

    process = env.process(proc(env))
    env.run()
    assert process.value == (2.0, ["a", "b"])


def test_allof_empty_succeeds_immediately():
    env = Environment()
    condition = AllOf(env, [])
    assert condition.triggered
    assert condition.value == {}


def test_allof_fails_if_any_child_fails():
    env = Environment()

    def proc(env, event):
        try:
            yield AllOf(env, [env.timeout(5.0), event])
        except ReproError:
            return env.now

    event = env.event()
    process = env.process(proc(env, event))
    event.fail(ReproError("child failed"))
    env.run()
    assert process.value == 0.0


def test_anyof_fires_on_first_event():
    env = Environment()

    def proc(env):
        fast = env.timeout(1.0, value="fast")
        slow = env.timeout(9.0, value="slow")
        results = yield AnyOf(env, [fast, slow])
        return (env.now, list(results.values()))

    process = env.process(proc(env))
    env.run(until=20)
    assert process.value == (1.0, ["fast"])


def test_condition_rejects_foreign_events():
    env_a = Environment()
    env_b = Environment()
    with pytest.raises(ValueError):
        AllOf(env_a, [env_b.event()])


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(4.0)
    assert env.peek() == 4.0


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_step_on_empty_schedule_raises():
    from repro.sim.environment import EmptySchedule
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_run_with_empty_schedule_returns_immediately():
    env = Environment()
    assert env.run() is None
    assert env.now == 0.0
    assert env.run(until=5.0) is None
    assert env.now == 5.0


def test_events_processed_counter():
    env = Environment()
    env.timeout(1.0)
    env.timeout(2.0)
    env.run()
    assert env.events_processed == 2


def test_run_until_untriggered_event_returns_none_when_quiescent():
    env = Environment()
    pending = env.event()
    env.timeout(1.0)
    assert env.run(until=pending) is None  # Queue drained, never fired.
    assert env.now == 1.0


def test_urgent_interrupt_processed_before_same_time_events():
    env = Environment()
    order = []

    def sleeper():
        try:
            yield env.timeout(1.0)
            order.append("timeout")
        except Interrupt:
            order.append("interrupt")

    def interrupter(victim):
        yield env.timeout(1.0)
        order.append("interrupter-awake")
        if victim.is_alive:
            victim.interrupt()

    victim = env.process(sleeper())
    env.process(interrupter(victim))
    env.run()
    # Whichever same-time ordering occurs, the result is deterministic
    # and the interrupt (urgent) cannot be starved by normal events.
    assert order in (["timeout", "interrupter-awake"],
                     ["interrupter-awake", "interrupt"])


# ----------------------------------------------------------------------
# run() is step() inlined: both drive the identical schedule
# ----------------------------------------------------------------------

class _Scrambled(SchedulePolicy):
    """A seeded tie-break that logs every schedule call it answers."""

    def __init__(self, seed, trace):
        self.seed = seed
        self.trace = trace

    def tie_break(self, time, priority, eid):
        self.trace.append(("schedule", time, priority, eid))
        return random.Random(self.seed * 1000003 + eid).randrange(3)


def _scripted_trace(drive):
    """Same-time NORMAL and URGENT events, an interrupt, a defused
    failure and a handled one under a seeded tie-break; returns every
    schedule call and every callback with ``(now, events_processed)``
    in the order they happened."""
    trace = []
    env = Environment(schedule_policy=_Scrambled(11, trace))

    def note(label):
        return lambda _event: trace.append(
            ("fire", label, env.now, env.events_processed))

    for index in range(4):
        env.timeout(1.0).callbacks.append(note("tick{}".format(index)))
    urgent = env.event()
    urgent._ok, urgent._value = True, "urgent"
    urgent.callbacks.append(note("urgent"))
    env.schedule(urgent, priority=URGENT, delay=1.0)
    defused = env.event()
    defused.callbacks.append(note("defused"))
    defused.fail(ValueError("nobody minds")).defuse()

    def sleeper():
        try:
            yield env.timeout(5.0)
        except Interrupt as interrupt:
            trace.append(("interrupted", interrupt.cause, env.now))
        failing = env.event()
        env.timeout(0.5).callbacks.append(
            lambda _event: failing.fail(KeyError("handled")))
        try:
            yield failing
        except KeyError:
            trace.append(("caught", env.now))
        yield AllOf(env, [env.timeout(0.25), env.timeout(0.25)])
        return "done"

    def interrupter(victim):
        yield env.timeout(1.0)
        victim.interrupt("wake")

    victim = env.process(sleeper())
    victim.callbacks.append(note("sleeper-exit"))
    env.process(interrupter(victim))
    drive(env)
    trace.append(("end", env.now, env.events_processed, victim.value))
    return trace


def _drive_by_step(env):
    while True:
        try:
            env.step()
        except EmptySchedule:
            return


def test_run_and_repeated_step_give_the_same_trace():
    stepped = _scripted_trace(_drive_by_step)
    ran = _scripted_trace(lambda env: env.run())
    assert ran == stepped
    fired = [entry[1] for entry in ran if entry[0] == "fire"]
    # The urgent event beats every same-time normal one, whatever keys
    # the policy hands out.
    assert fired.index("urgent") < min(
        fired.index("tick{}".format(index)) for index in range(4))
    assert ("interrupted", "wake", 1.0) in ran
    assert ("caught", 1.5) in ran
    # The abandoned 5.0 timeout still fires: the clock ends there.
    assert ran[-1] == ("end", 5.0, ran[-1][2], "done")


def test_unhandled_failure_raises_from_step_and_from_run():
    def failing_env():
        env = Environment()
        env.timeout(1.0)
        env.event().fail(ReproError("unhandled"))
        return env

    with pytest.raises(ReproError):
        _drive_by_step(failing_env())
    env = failing_env()
    with pytest.raises(ReproError):
        env.run()
    # Raised as the failed event is processed, before the timeout.
    assert env.events_processed == 1 and env.now == 0.0


def test_kernel_objects_have_no_instance_dict():
    env = Environment()

    def proc():
        yield env.timeout(1.0)

    objects = [
        env.event(), env.timeout(1.0), env.process(proc()),
        AllOf(env, [env.timeout(1.0)]),
        Transaction(GlobalTransactionId(0, 1), 0,
                    SubtransactionKind.PRIMARY, 0.0),
    ]
    for obj in objects:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
