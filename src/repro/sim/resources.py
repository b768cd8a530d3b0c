"""Shared resources for simulation processes.

- :class:`Resource` — a counted FIFO resource with round-robin slicing
  (used to model per-site CPUs).
- :class:`Mailbox` — an unbounded FIFO message queue with blocking ``get``.
"""

from __future__ import annotations

import collections
import typing

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment


class _Job(Event):
    """One :meth:`Resource.use` call, and the event its process awaits."""

    __slots__ = ("remaining", "quantum")

    def __init__(self, env: "Environment", remaining: float,
                 quantum: typing.Optional[float]):
        super().__init__(env)
        self.remaining = remaining
        self.quantum = quantum


class _SliceEnd:
    """The end of a slice that is not its job's last: a slot-only tick
    the kernel processes like an event.  Its ``callbacks`` is the
    resource's shared one-tuple, and a fired tick is reused for the next
    such slice, so a slice end allocates nothing."""

    __slots__ = ("callbacks", "job")
    _ok = True
    _defused = False


class Resource:
    """A counted resource with FIFO granting and round-robin slicing.

    Each :meth:`use` call is a job that queues FIFO for a slot.  A job
    holding a slot runs one slice as one scheduled event; at its end the
    resource rotates the job itself, without waking the process: the
    slot goes to the head waiter, which starts its own slice at once,
    and the job re-queues at the tail (or runs on if nobody waits).  The
    process waits only for its job's last slice.
    """

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._users: set = set()
        self._waiting: collections.deque = collections.deque()
        self._on_slice_end = (self._rotate,)
        #: A fired slice-end tick, free for the next slice.
        self._spare: typing.Optional[_SliceEnd] = None

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of jobs waiting for a slot."""
        return len(self._waiting)

    def use(self, duration: float,
            quantum: typing.Optional[float] = None):
        """Process helper: consume ``duration`` of this resource.

        Usage: ``yield from resource.use(1.5)``.  With ``quantum`` set,
        the work is consumed in quantum-sized slices, releasing the slot
        between slices — approximating a preemptive round-robin scheduler
        so short requests are not stuck behind long ones.  If the caller
        is interrupted while holding or waiting, it leaves the queue or
        hands its slot straight to the next waiter.

        Zero work on an idle resource (a free slot, nobody queued) is a
        no-op that schedules nothing: the live runtime zeroes every CPU
        cost, and a grant event per ``work(0.0)`` was half its kernel
        events.  Any contention takes the queued path, so FIFO order
        among real waiters is untouched.
        """
        remaining = float(duration)
        if remaining <= 0 and not self._waiting and \
                len(self._users) < self.capacity:
            return
        job = _Job(self.env, remaining, quantum)
        # Ahead of the process's resume: code after use() sees the slot free.
        job.callbacks.append(self._release)
        if len(self._users) < self.capacity:
            self._start(job)
        else:
            self._waiting.append(job)
        try:
            yield job
        except BaseException:
            if job in self._users:
                self._release(job)
            else:
                self._waiting.remove(job)
            raise

    def _start(self, job: _Job) -> None:
        """Give ``job`` a slot and start its next slice."""
        self._users.add(job)
        self._slice(job)

    def _slice(self, job: _Job) -> None:
        """Schedule the end of ``job``'s next slice: a rotation tick, or
        ``job`` itself when that slice is its last."""
        remaining, quantum = job.remaining, job.quantum
        if quantum is None or remaining <= quantum:
            slice_duration = remaining
        else:
            slice_duration = quantum
        job.remaining = remaining = remaining - slice_duration
        if remaining > 1e-12:
            tick = self._spare
            if tick is None:
                tick = _SliceEnd()
            else:
                self._spare = None
            tick.job = job
            tick.callbacks = self._on_slice_end
            self.env.schedule(tick, delay=slice_duration)
            return
        job._ok = True
        job._value = None
        self.env.schedule(job, delay=max(slice_duration, 0.0))

    def _rotate(self, tick: _SliceEnd) -> None:
        """A slice that is not its job's last has ended: the slot goes to
        the head waiter and the job to the tail, or the job runs on."""
        self._spare = tick
        job = tick.job
        users = self._users
        if job not in users:
            return  # withdrawn by an interrupt mid-slice
        waiting = self._waiting
        if waiting:
            users.remove(job)
            waiting.append(job)
            job = waiting.popleft()
            users.add(job)
        self._slice(job)

    def _release(self, job: _Job) -> None:
        """Free ``job``'s slot, if it still holds one, for the head
        waiter."""
        users = self._users
        if job in users:
            users.remove(job)
            if self._waiting:
                self._start(self._waiting.popleft())


class Mailbox:
    """An unbounded FIFO queue connecting producer and consumer processes.

    ``put`` never blocks.  ``get`` returns an event that succeeds with the
    next item (immediately if one is queued).
    """

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self.name = name
        self._items: collections.deque = collections.deque()
        self._getters: collections.deque = collections.deque()

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self):
        return "<Mailbox {!r} items={} getters={}>".format(
            self.name, len(self._items), len(self._getters))

    def put(self, item) -> None:
        """Enqueue ``item``, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that succeeds with the next queued item."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def peek(self):
        """Return the head item without removing it (``None`` if empty)."""
        if self._items:
            return self._items[0]
        return None
