"""Tests for round-robin CPU slicing (``Resource.use`` with a quantum) —
the mechanism keeping lock-hold windows short under load."""

import collections
import random

import pytest

from repro.sim import Environment, Event, Interrupt, Resource


def test_sliced_use_totals_are_exact():
    env = Environment()
    cpu = Resource(env, capacity=1)
    done = []

    def worker(name, duration):
        yield from cpu.use(duration, quantum=1.0)
        done.append((name, env.now))

    env.process(worker("a", 3.5))
    env.run()
    assert done == [("a", 3.5)]


def test_short_job_not_stuck_behind_long_one():
    """With a quantum, a short job finishes far earlier than the long
    job that arrived first."""
    env = Environment()
    cpu = Resource(env, capacity=1)
    done = {}

    def worker(name, duration, start, quantum):
        yield env.timeout(start)
        yield from cpu.use(duration, quantum=quantum)
        done[name] = env.now

    env.process(worker("long", 100.0, 0.0, 1.0))
    env.process(worker("short", 1.0, 0.5, 1.0))
    env.run()
    # Interleaved: the short job needs ~2 quanta of wall time, not 100.
    assert done["short"] < 5.0
    assert done["long"] == pytest.approx(101.0)


def test_without_quantum_fifo_blocks():
    env = Environment()
    cpu = Resource(env, capacity=1)
    done = {}

    def worker(name, duration, start):
        yield env.timeout(start)
        yield from cpu.use(duration)
        done[name] = env.now

    env.process(worker("long", 100.0, 0.0))
    env.process(worker("short", 1.0, 0.5))
    env.run()
    assert done["short"] == pytest.approx(101.0)


def test_fair_sharing_between_equal_jobs():
    """Two equal sliced jobs finish at (almost) the same time, roughly
    at the sum of their demands."""
    env = Environment()
    cpu = Resource(env, capacity=1)
    done = {}

    def worker(name):
        yield from cpu.use(10.0, quantum=1.0)
        done[name] = env.now

    env.process(worker("a"))
    env.process(worker("b"))
    env.run()
    assert done["a"] == pytest.approx(19.0, abs=1.5)
    assert done["b"] == pytest.approx(20.0, abs=1.5)


def test_zero_duration_use_completes():
    env = Environment()
    cpu = Resource(env, capacity=1)

    def worker():
        yield from cpu.use(0.0, quantum=1.0)
        return env.now

    process = env.process(worker())
    env.run()
    assert process.value == 0.0
    assert cpu.count == 0


def test_interrupt_mid_slice_releases_cpu():
    env = Environment()
    cpu = Resource(env, capacity=1)

    def victim():
        try:
            yield from cpu.use(100.0, quantum=1.0)
        except Interrupt:
            return "stopped"

    def other():
        yield from cpu.use(2.0, quantum=1.0)
        return env.now

    victim_proc = env.process(victim())
    other_proc = env.process(other())

    def killer():
        yield env.timeout(4.5)
        victim_proc.interrupt()

    env.process(killer())
    env.run()
    assert victim_proc.value == "stopped"
    assert other_proc.value < 10.0
    assert cpu.count == 0 and cpu.queue_length == 0


def test_quantum_larger_than_duration_is_single_slice():
    env = Environment()
    cpu = Resource(env, capacity=1)
    timeline = []

    def worker(name, duration):
        yield from cpu.use(duration, quantum=50.0)
        timeline.append((name, env.now))

    env.process(worker("a", 2.0))
    env.process(worker("b", 3.0))
    env.run()
    assert timeline == [("a", 2.0), ("b", 5.0)]


class _PerSliceResource:
    """The per-slice ``Resource`` the scheduler replaced, kept as the
    reference its timeline must match: every slice is a request, a grant
    event that resumes the process, a timeout and a release."""

    def __init__(self, env, capacity=1):
        self.env = env
        self.capacity = capacity
        self._users = set()
        self._waiting = collections.deque()

    @property
    def count(self):
        return len(self._users)

    @property
    def queue_length(self):
        return len(self._waiting)

    def request(self):
        event = Event(self.env)
        if len(self._users) < self.capacity:
            self._users.add(event)
            event.succeed(event)
        else:
            self._waiting.append(event)
        return event

    def cancel(self, token):
        users = self._users
        if token in users:
            users.discard(token)
            if self._waiting:
                self._grant_next()
            return
        try:
            self._waiting.remove(token)
        except ValueError:
            pass

    def use(self, duration, quantum=None):
        remaining = float(duration)
        if remaining <= 0 and not self._waiting and \
                len(self._users) < self.capacity:
            return
        first = True
        while first or remaining > 1e-12:
            first = False
            token = self.request()
            try:
                yield token
                if quantum is None or remaining <= quantum:
                    slice_duration = remaining
                else:
                    slice_duration = quantum
                if slice_duration > 0:
                    yield self.env.timeout(slice_duration)
                remaining -= slice_duration
            finally:
                self.cancel(token)

    def _grant_next(self):
        while self._waiting and len(self._users) < self.capacity:
            event = self._waiting.popleft()
            self._users.add(event)
            event.succeed(event)


def _random_mix(seed):
    """A seeded job mix: arrivals and interrupts on a coarse grid (so
    slice ends, arrivals and interrupts tie), durations of 0, exact
    multiples of the quantum and arbitrary floats, 1-3 uses a job."""
    rng = random.Random(seed)
    quantum = rng.choice((None, 1.0, 0.25, 0.1))
    step = quantum or 0.5
    jobs = []
    for name in range(rng.randint(2, 10)):
        uses = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.2:
                uses.append(0.0)
            elif kind < 0.6:
                uses.append(rng.randint(1, 6) * step)
            else:
                uses.append(rng.uniform(0.0, 5.0))
        arrival = rng.randint(0, 12) * step / 2
        interrupt_at = (rng.randint(0, 24) * step / 2
                        if rng.random() < 0.3 else None)
        jobs.append((name, arrival, uses, interrupt_at))
    return rng.choice((1, 2)), quantum, jobs


def _timeline(resource_class, capacity, quantum, jobs):
    env = Environment()
    cpu = resource_class(env, capacity=capacity)
    log = []

    def job(name, arrival, uses):
        try:
            yield env.timeout(arrival)
            for index, duration in enumerate(uses):
                yield from cpu.use(duration, quantum=quantum)
                log.append((name, index, env.now, cpu.count,
                            cpu.queue_length))
        except Interrupt:
            log.append((name, "interrupted", env.now, cpu.count,
                        cpu.queue_length))

    def killer(process, at):
        yield env.timeout(at)
        if process.is_alive:
            process.interrupt()

    for name, arrival, uses, interrupt_at in jobs:
        process = env.process(job(name, arrival, uses))
        if interrupt_at is not None:
            env.process(killer(process, interrupt_at))
    env.run()
    return log, env.now, cpu.count, cpu.queue_length


@pytest.mark.parametrize("block", range(4))
def test_scheduler_matches_the_per_slice_loop_exactly(block):
    """Seeded random mixes give the scheduler and the per-slice loop the
    same completion times (to the float), the same completion order and
    the same slot and queue counts at every completion and at the end."""
    interrupted = zero_slices = 0
    for seed in range(block * 100, block * 100 + 100):
        capacity, quantum, jobs = _random_mix(seed)
        expected = _timeline(_PerSliceResource, capacity, quantum, jobs)
        assert _timeline(Resource, capacity, quantum, jobs) == expected, \
            "seed {}".format(seed)
        interrupted += sum(entry[1] == "interrupted"
                           for entry in expected[0])
        zero_slices += sum(0.0 in uses for _, _, uses, _ in jobs)
    assert interrupted and zero_slices  # the mixes reach both paths
