"""Tests for the FIFO resource and mailbox primitives."""

import json

import pytest

from repro.explorer import load_trace, run_schedule
from repro.explorer.trace import trace_dict
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.sim import Environment, Interrupt, Mailbox, Resource
from repro.workload.params import WorkloadParams


def test_resource_grants_up_to_capacity_immediately():
    env = Environment()
    cpu = Resource(env, capacity=2)
    first = cpu.request()
    second = cpu.request()
    third = cpu.request()
    assert first.triggered and second.triggered
    assert not third.triggered
    assert cpu.count == 2
    assert cpu.queue_length == 1


def test_resource_release_grants_fifo():
    env = Environment()
    cpu = Resource(env, capacity=1)
    tokens = [cpu.request() for _ in range(3)]
    assert tokens[0].triggered
    assert not tokens[1].triggered
    cpu.release(tokens[0])
    assert tokens[1].triggered
    assert not tokens[2].triggered
    cpu.release(tokens[1])
    assert tokens[2].triggered


def test_resource_release_foreign_token_raises():
    env = Environment()
    cpu = Resource(env, capacity=1)
    cpu.request()
    with pytest.raises(ValueError):
        cpu.release(env.event())


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_cancel_waiting_request():
    env = Environment()
    cpu = Resource(env, capacity=1)
    held = cpu.request()
    waiting = cpu.request()
    cpu.cancel(waiting)
    assert cpu.queue_length == 0
    cpu.release(held)
    assert not waiting.triggered  # Was withdrawn, never granted.


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

    # Slot free again but somebody still queued (granted, not yet
    # resumed, plus one behind): zero work joins the queue's tail.
    env = Environment()
    cpu = Resource(env, capacity=1)
    held = cpu.request()
    queued = cpu.request()
    zero = cpu.use(0.0)
    token = next(zero)
    assert cpu.queue_length == 2 and not token.triggered
    cpu.release(held)
    assert queued.triggered and not token.triggered
    cpu.release(queued)
    assert token.triggered


def test_simulated_schedules_are_identical_to_the_pre_fast_path_kernel():
    """Simulated runs have non-zero costs or contention wherever order
    matters, so the fast path must leave them byte-identical: the
    explorer trace recorded before it existed replays to the same
    document (outcomes, DSG cycle, kernel event count), and a Table 1
    BackEdge experiment keeps its fingerprint."""
    path = "tests/data/explorer_trace_pr12.json"
    with open(path, encoding="utf-8") as handle:
        recorded = handle.read()
    spec, plan, document = load_trace(path)
    replayed = trace_dict(spec, plan, run_schedule(spec, plan),
                          meta=document["meta"])
    assert json.dumps(replayed, indent=2, sort_keys=True) + "\n" == \
        recorded

    result = run_experiment(ExperimentConfig(
        protocol="backedge", seed=42,
        params=WorkloadParams(transactions_per_thread=25)))
    assert (result.committed, result.aborted, result.total_messages) \
        == (644, 31, 1147)
    assert result.serializable


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
