"""Shared resources for simulation processes.

- :class:`Resource` — a counted FIFO resource (used to model per-site CPUs).
- :class:`Mailbox` — an unbounded FIFO message queue with blocking ``get``.
"""

from __future__ import annotations

import collections
import typing

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment


class Resource:
    """A counted resource with FIFO granting.

    ``request()`` returns an event that succeeds once a slot is available;
    the returned event doubles as the grant token passed to ``release()``.
    """

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._users: set = set()
        self._waiting: collections.deque = collections.deque()

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Event:
        """Request a slot.  The event succeeds when the slot is granted."""
        event = Event(self.env)
        if len(self._users) < self.capacity:
            self._users.add(event)
            event.succeed(event)
        else:
            self._waiting.append(event)
        return event

    def release(self, token: Event) -> None:
        """Release a previously granted slot."""
        if token not in self._users:
            raise ValueError("token does not hold this resource")
        self._users.discard(token)
        self._grant_next()

    def cancel(self, token: Event) -> None:
        """Withdraw a request.

        Safe to call whether the request is still queued, already granted,
        or already released; a granted-but-unreleased token is released.
        """
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

    def use(self, duration: float,
            quantum: typing.Optional[float] = None):
        """Process helper: consume ``duration`` of this resource.

        Usage: ``yield from resource.use(1.5)``.  With ``quantum`` set,
        the work is consumed in quantum-sized slices, releasing the slot
        between slices — approximating a preemptive round-robin scheduler
        so short requests are not stuck behind long ones.  If the caller
        is interrupted while holding or waiting, the slot/request is
        cleaned up.

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

    def _grant_next(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            event = self._waiting.popleft()
            self._users.add(event)
            event.succeed(event)


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
