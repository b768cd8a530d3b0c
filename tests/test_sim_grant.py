"""Differential test for the lock grant rule.

A request ``LockManager.acquire`` grants on the spot comes back already
processed when the kernel would process its grant event next anyway
(``Environment.take_turn``): the running process is the last callback of
the event being processed, and nothing else is due now.  The reference
below is the always-evented ``acquire`` the rule replaced.  Seeded mixes
of same-instant acquires, processes woken together by one event,
acquires straight after CPU work, wounds, lock timeouts and a seeded
tie-break policy must run identically under both.
"""

import random

import pytest

from repro.errors import LockTimeout
from repro.sim import Environment, Event, Interrupt, Resource, SchedulePolicy
from repro.sim.environment import EmptySchedule
from repro.storage.engine import StorageEngine
from repro.storage.locks import (ABORT_WAITER, KEEP_WAITING, LockManager,
                                 LockMode, LockRequest, _LockEntry)
from repro.types import GlobalTransactionId


class _EventedLockManager(LockManager):
    """The ``acquire`` every grant went through before the rule: a grant
    on the spot is an event scheduled now, and the caller waits for the
    kernel to process it."""

    def acquire(self, txn, item, mode, timeout=None):
        entry = self._table.setdefault(item, _LockEntry())
        event = Event(self.env)
        held = entry.holders.get(txn)
        if held is LockMode.EXCLUSIVE or held is mode:
            event.succeed(item)
            return event
        is_upgrade = held is LockMode.SHARED and mode is LockMode.EXCLUSIVE
        if is_upgrade and len(entry.holders) == 1:
            entry.holders[txn] = LockMode.EXCLUSIVE
            self.stats["upgrades"] += 1
            event.succeed(item)
            return event
        if not is_upgrade and self._grantable(entry, txn, mode):
            entry.holders[txn] = mode
            self._held.setdefault(txn, set()).add(item)
            event.succeed(item)
            return event
        request = LockRequest(txn, item, mode, event, is_upgrade,
                              self.env.now)
        if is_upgrade:
            entry.queue.appendleft(request)
        else:
            entry.queue.append(request)
        self.stats["waits"] += 1
        self._arm_timer(request, timeout)
        return event


class _Hashed(SchedulePolicy):
    """A seeded tie-break keyed by the eid, like the explorer's: a grant
    processed in place that skipped its eid or its query would move the
    key of every later event."""

    def __init__(self, seed):
        self.seed = seed
        self.queries = []

    def tie_break(self, time, priority, eid):
        self.queries.append((time, priority, eid))
        return ((eid ^ self.seed) * 0x9E3779B1 >> 7) & 3


def _mix(seed):
    """Processes arriving on a coarse grid, each a transaction of 1-4
    reads and writes on 1-3 items with CPU work after every operation;
    about half first wait on one shared gate event, a quarter are wounded
    at a grid time."""
    rng = random.Random(seed)
    items = rng.randint(1, 3)
    processes = []
    for name in range(rng.randint(2, 6)):
        ops = [(rng.choice("rrw"), rng.randrange(items),
                rng.choice((0.0, 0.25, 0.5, 1.0, 1.5)))
               for _ in range(rng.randint(1, 4))]
        processes.append((
            name, rng.randint(0, 6) * 0.5, rng.random() < 0.5, ops,
            rng.randint(1, 12) * 0.5 if rng.random() < 0.25 else None))
    return {
        "items": items,
        "processes": processes,
        "policy": seed if rng.random() < 0.4 else None,
        "capacity": rng.choice((1, 1, 2)),
        "quantum": rng.choice((None, 0.5, 0.25)),
        "lock_timeout": rng.choice((None, 1.0, 2.5)),
        "wound_on_timeout": rng.random() < 0.5,
        "gate_at": rng.randint(0, 6) * 0.5,
        "drive": rng.choice(("run", "run", "until", "step")),
    }


def _run(manager_class, mix):
    """Run ``mix`` with ``manager_class`` as the site's lock manager and
    return everything the two managers must agree on."""
    policy = None if mix["policy"] is None else _Hashed(mix["policy"])
    env = Environment(schedule_policy=policy)
    engine = StorageEngine(env, 0, lock_timeout=mix["lock_timeout"])
    engine.locks = locks = manager_class(env, timeout=mix["lock_timeout"])
    for item in range(mix["items"]):
        engine.create_item(item)
    cpu = Resource(env, capacity=mix["capacity"])
    gate = env.event()
    log = []
    processes = {}
    wounded = set()

    def on_timeout(manager, request):
        """The protocols' shape: wound the youngest holder and keep
        waiting, or give up when there is nobody left to wound."""
        verdict = ABORT_WAITER
        if mix["wound_on_timeout"]:
            for holder in sorted(manager.holders(request.item),
                                 key=lambda txn: -txn.gid.seq):
                victim = holder.process
                if holder is not request.txn and victim.is_alive and \
                        holder not in wounded:
                    wounded.add(holder)
                    victim.interrupt("wound")
                    verdict = KEEP_WAITING
                    break
        log.append(("timeout", request.txn.gid.seq, request.item,
                    verdict, env.now))
        return verdict

    locks.timeout_policy = on_timeout

    def worker(name, arrival, gated, ops):
        txn = None
        try:
            yield env.timeout(arrival)
            if gated:
                yield gate
                log.append((name, "through gate", env.now))
            txn = engine.begin(GlobalTransactionId(0, name + 1),
                               process=processes[name])
            for index, (kind, item, cost) in enumerate(ops):
                if kind == "r":
                    yield from engine.read(txn, item)
                else:
                    yield from engine.write(txn, item, (name, index))
                log.append((name, index, kind, item, env.now))
                yield from cpu.use(cost, quantum=mix["quantum"])
                log.append((name, index, "worked", env.now))
            engine.commit(txn)
            log.append((name, "committed", env.now))
        except (LockTimeout, Interrupt) as exc:
            log.append((name, type(exc).__name__, env.now))
            if txn is not None:
                engine.abort(txn)

    def open_gate():
        yield env.timeout(mix["gate_at"])
        gate.succeed("open")

    def wound(name, at):
        yield env.timeout(at)
        if processes[name].is_alive:
            processes[name].interrupt("killed")

    env.process(open_gate())
    for name, arrival, gated, ops, wound_at in mix["processes"]:
        processes[name] = env.process(worker(name, arrival, gated, ops))
        if wound_at is not None:
            env.process(wound(name, wound_at))

    checkpoints = []
    if mix["drive"] == "step":
        while True:
            try:
                env.step()
            except EmptySchedule:
                break
            checkpoints.append((len(log), env.now))
    elif mix["drive"] == "until":
        assert env.run(until=gate) == "open"
        checkpoints.append((list(log), env.now))
        env.run()
    else:
        env.run()
    return {
        "log": log,
        "checkpoints": checkpoints,
        "now": env.now,
        "eids": env._eid,
        "queries": policy.queries if policy else None,
        "stats": dict(locks.stats),
        "table": {item: sorted((txn.gid.seq, mode.value)
                               for txn, mode in entry.holders.items())
                  for item, entry in locks._table.items()},
        "cpu": (cpu.count, cpu.queue_length),
        "values": [engine.item(item).value for item in range(mix["items"])],
    }, env.events_processed


@pytest.mark.parametrize("block", range(4))
def test_grants_in_place_run_exactly_like_evented_grants(block):
    """Same grant order, resume order, timeout verdicts, final times, eid
    sequence and policy queries as the evented reference, for every
    way of driving the kernel (``run``, ``run(until=event)``, repeated
    ``step``)."""
    in_place = timeouts = gated = 0
    for seed in range(block * 80, block * 80 + 80):
        mix = _mix(seed)
        expected, evented_events = _run(_EventedLockManager, mix)
        got, events = _run(LockManager, mix)
        assert got == expected, "seed {}".format(seed)
        in_place += evented_events - events
        timeouts += sum(entry[0] == "timeout" for entry in got["log"])
        gated += sum(entry[1] == "through gate" for entry in got["log"]
                     if entry[0] != "timeout")
    # The mixes reach every path: grants in place, lock timeouts and
    # processes woken together.
    assert in_place and timeouts and gated


def _two_woken_by_one_event(manager_class):
    """Two processes resumed by one event; the first acquires a free
    lock, the second only logs.  Returns the order of their steps."""
    env = Environment()
    locks = manager_class(env)
    engine = StorageEngine(env, 0)
    engine.locks = locks
    engine.create_item("a")
    shared = env.timeout(1.0)
    order = []

    def first():
        yield shared
        txn = engine.begin(GlobalTransactionId(0, 1))
        yield from engine.read(txn, "a")
        order.append("first granted")

    def second():
        yield shared
        order.append("second resumed")

    env.process(first())
    env.process(second())
    env.run()
    return order, env.events_processed


def test_a_process_that_is_not_the_last_callback_waits_its_turn():
    """The first of two processes woken by one event may not run on past
    its grant: the second's resume is still to come in this step."""
    evented = _two_woken_by_one_event(_EventedLockManager)
    assert evented[0] == ["second resumed", "first granted"]
    assert _two_woken_by_one_event(LockManager) == evented


def test_a_lone_grant_is_processed_in_place_and_skips_the_kernel():
    """A lone grant after CPU work (the resume is the last callback of
    the job's event, after the release) is not scheduled: the event is
    processed, succeeded with the item, and the kernel counts one event
    fewer.  Outside a running process nothing is processed in place."""
    env = Environment()
    engine = StorageEngine(env, 0)
    engine.create_item("a")
    cpu = Resource(env)
    grants = []

    def worker():
        yield from cpu.use(1.0)
        txn = engine.begin(GlobalTransactionId(0, 1))
        grant = engine.locks.acquire(txn, "a", LockMode.EXCLUSIVE)
        grants.append(grant)
        assert grant.callbacks is None and grant.ok and grant.value == "a"
        yield grant
        engine.commit(txn)

    env.process(worker())
    env.run()
    assert len(grants) == 1 and env.now == 1.0
    # Process start, the job's last slice, process end: no grant event.
    assert env.events_processed == 3

    txn = engine.begin(GlobalTransactionId(0, 2))
    outside = engine.locks.acquire(txn, "a", LockMode.SHARED)
    assert outside.triggered and not outside.processed
    env.run()
    assert outside.processed and env.events_processed == 4
