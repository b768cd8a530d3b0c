"""Tests for the FIFO resource and mailbox primitives."""

import json

import pytest

from repro.explorer import load_trace, run_schedule
from repro.explorer.trace import trace_dict
from repro.harness import runner
from repro.sim import (Environment, Event, Interrupt, Mailbox, Process,
                       Resource, Timeout)
from repro.workload.params import WorkloadParams


def _workers(env, cpu, jobs, log):
    """Start one process per ``(name, arrival, duration)`` job, each
    logging ``(name, finish time)`` when its ``use()`` returns."""
    def worker(name, arrival, duration):
        if arrival:
            yield env.timeout(arrival)
        yield from cpu.use(duration)
        log.append((name, env.now))
    return [env.process(worker(*job)) for job in jobs]


def test_resource_grants_up_to_capacity_immediately():
    env = Environment()
    cpu = Resource(env, capacity=2)
    log = []
    _workers(env, cpu, [("a", 0, 1.0), ("b", 0, 1.0), ("c", 0, 1.0)], log)
    env.run(until=0.5)
    assert cpu.count == 2
    assert cpu.queue_length == 1
    env.run()
    assert log == [("a", 1.0), ("b", 1.0), ("c", 2.0)]


def test_resource_release_grants_fifo():
    env = Environment()
    cpu = Resource(env, capacity=1)
    log = []
    _workers(env, cpu, [("a", 0, 1.0), ("b", 0, 1.0), ("c", 0, 1.0)], log)
    env.run(until=1.5)
    assert log == [("a", 1.0)]
    assert cpu.count == 1 and cpu.queue_length == 1
    env.run()
    assert log == [("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_stale_slice_end_of_an_interrupted_job_frees_nothing():
    """An interrupted job's last slice is still on the schedule; when it
    comes due it must not free the slot its successor now holds."""
    env = Environment()
    cpu = Resource(env, capacity=1)
    log = []

    def victim():
        try:
            yield from cpu.use(2.0)
        except Interrupt:
            log.append(("victim", env.now))

    def killer(process):
        yield env.timeout(1.0)
        process.interrupt()

    env.process(killer(env.process(victim())))
    _workers(env, cpu, [("next", 0.5, 5.0), ("late", 1.5, 1.0)], log)
    env.run(until=2.5)      # past the victim's stale slice end at 2.0
    assert cpu.count == 1 and cpu.queue_length == 1
    env.run()
    assert log == [("victim", 1.0), ("next", 6.0), ("late", 7.0)]
    assert cpu.count == 0 and cpu.queue_length == 0


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_interrupt_while_queued_withdraws_the_job():
    env = Environment()
    cpu = Resource(env, capacity=1)
    log = []

    def waiter():
        try:
            yield from cpu.use(1.0)
        except Interrupt:
            log.append(("withdrawn", env.now))

    def killer(process):
        yield env.timeout(1.0)
        assert cpu.queue_length == 1
        process.interrupt()

    _workers(env, cpu, [("held", 0, 2.0)], log)
    env.process(killer(env.process(waiter())))
    env.run(until=1.5)
    assert cpu.queue_length == 0
    env.run()
    assert log == [("withdrawn", 1.0), ("held", 2.0)]  # never granted
    assert cpu.count == 0


def test_resource_use_serialises_processes():
    env = Environment()
    cpu = Resource(env, capacity=1)
    log = []

    def worker(env, cpu, name, duration):
        yield from cpu.use(duration)
        log.append((name, env.now))

    env.process(worker(env, cpu, "a", 2.0))
    env.process(worker(env, cpu, "b", 3.0))
    env.run()
    assert log == [("a", 2.0), ("b", 5.0)]


def test_resource_use_cleans_up_on_interrupt():
    env = Environment()
    cpu = Resource(env, capacity=1)

    def hog(env, cpu):
        try:
            yield from cpu.use(100.0)
        except Interrupt:
            return "stopped"

    def follower(env, cpu):
        yield from cpu.use(1.0)
        return env.now

    victim = env.process(hog(env, cpu))
    next_proc = env.process(follower(env, cpu))

    def killer(env, victim):
        yield env.timeout(5.0)
        victim.interrupt()

    env.process(killer(env, victim))
    env.run()
    assert victim.value == "stopped"
    # The follower got the CPU right after the interrupt at t=5.
    assert next_proc.value == 6.0
    assert cpu.count == 0


def test_resource_use_zero_on_idle_resource_schedules_nothing():
    """The live runtime zeroes every CPU cost: ``use(0.0)`` with a free
    slot and nobody queued must not allocate, schedule or yield."""
    env = Environment()
    cpu = Resource(env, capacity=1)
    assert list(cpu.use(0.0)) == []
    assert list(cpu.use(0.0, quantum=0.5)) == []
    assert env.peek() == float("inf")  # nothing on the event heap
    assert cpu.count == 0 and cpu.queue_length == 0

    def worker(env, cpu):
        yield from cpu.use(0.0)
        yield from cpu.use(0.0)
        return env.now

    process = env.process(worker(env, cpu))
    env.run()
    assert process.value == 0.0
    assert env.events_processed == 2  # process start + process end


def test_resource_use_zero_queues_fifo_under_contention():
    """A held slot or a queued waiter sends zero-duration work down the
    ordinary FIFO path: it may not overtake anyone."""
    env = Environment()
    cpu = Resource(env, capacity=1)
    log = []

    def worker(env, cpu, name, duration):
        yield from cpu.use(duration)
        log.append((name, env.now))

    env.process(worker(env, cpu, "holder", 2.0))
    env.process(worker(env, cpu, "waiter", 1.0))
    env.process(worker(env, cpu, "zero", 0.0))
    env.run()
    assert log == [("holder", 2.0), ("waiter", 3.0), ("zero", 3.0)]
    assert cpu.count == 0 and cpu.queue_length == 0

    # A zero job that arrives while someone is queued joins the tail.
    env = Environment()
    cpu = Resource(env, capacity=1)
    log = []
    _workers(env, cpu, [("held", 0, 1.0), ("queued", 0, 1.0),
                        ("zero", 0.5, 0.0)], log)
    env.run(until=0.5)
    assert cpu.queue_length == 2
    env.run()
    assert log == [("held", 1.0), ("queued", 2.0), ("zero", 2.0)]


def test_simulated_schedules_are_identical_to_the_pre_fast_path_kernel(
        monkeypatch):
    """Simulated runs have non-zero costs or contention wherever order
    matters, so neither the zero-work fast path, the slice scheduler nor
    the lock grants processed in place may change what a run does: the
    explorer trace recorded before the fast path existed replays to the
    same outcomes and DSG cycle, and a Table 1 BackEdge experiment keeps
    its fingerprint.  The kernel event count (in the trace and here),
    the process resumes and the ``Event``/``Timeout`` objects built are
    pinned exactly: one more event, wake-up or object per slice or per
    lone grant fails this."""
    path = "tests/data/explorer_trace_pr12.json"
    with open(path, encoding="utf-8") as handle:
        recorded = handle.read()
    spec, plan, document = load_trace(path)
    replayed = trace_dict(spec, plan, run_schedule(spec, plan),
                          meta=document["meta"])
    assert json.dumps(replayed, indent=2, sort_keys=True) + "\n" == \
        recorded

    environments = []
    counts = {"resumes": 0, "events": 0, "timeouts": 0}
    build, resume = runner.build_system, Process._resume
    event_init, timeout_init = Event.__init__, Timeout.__init__

    def recording_build(config):
        built = build(config)
        environments.append(built[0])
        return built

    def counting_resume(process, event):
        counts["resumes"] += 1
        return resume(process, event)

    def counting_event_init(event, env):
        counts["events"] += 1
        event_init(event, env)

    def counting_timeout_init(timeout, env, delay, value=None):
        counts["timeouts"] += 1
        timeout_init(timeout, env, delay, value)

    monkeypatch.setattr(runner, "build_system", recording_build)
    monkeypatch.setattr(Process, "_resume", counting_resume)
    monkeypatch.setattr(Event, "__init__", counting_event_init)
    monkeypatch.setattr(Timeout, "__init__", counting_timeout_init)
    result = runner.run_experiment(runner.ExperimentConfig(
        protocol="backedge", seed=42,
        params=WorkloadParams(transactions_per_thread=25)))
    assert (result.committed, result.aborted, result.total_messages) \
        == (644, 31, 1147)
    assert result.serializable
    assert result.duration == 3.441149999999807
    assert (environments[0].events_processed, counts["resumes"]) == \
        (37727, 12911)
    # Objects built: a Timeout per slice end or an evented lone grant
    # fails one of these pins.
    assert (counts["events"], counts["timeouts"]) == (19220, 1400)


def test_mailbox_put_then_get():
    env = Environment()
    box = Mailbox(env)
    box.put("m1")
    box.put("m2")
    assert len(box) == 2
    assert box.peek() == "m1"
    first = box.get()
    second = box.get()
    assert first.triggered and first.value == "m1"
    assert second.triggered and second.value == "m2"
    assert len(box) == 0


def test_mailbox_get_blocks_until_put():
    env = Environment()
    box = Mailbox(env)

    def consumer(env, box):
        item = yield box.get()
        return (env.now, item)

    def producer(env, box):
        yield env.timeout(3.0)
        box.put("late")

    consumer_proc = env.process(consumer(env, box))
    env.process(producer(env, box))
    env.run()
    assert consumer_proc.value == (3.0, "late")


def test_mailbox_getters_served_fifo():
    env = Environment()
    box = Mailbox(env)
    first = box.get()
    second = box.get()
    box.put("x")
    assert first.triggered and first.value == "x"
    assert not second.triggered


def test_mailbox_peek_empty_returns_none():
    env = Environment()
    box = Mailbox(env)
    assert box.peek() is None
