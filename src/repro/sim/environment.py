"""The simulation environment: clock plus event scheduler.

Events are processed in ``(time, priority, tie-break, insertion-order)``
order, which makes every simulation run fully deterministic.  The
tie-break is supplied by a :class:`SchedulePolicy`; the default policy
uses a constant, so ordering degenerates to the classical
``(time, priority, insertion-order)``.  A seeded policy (see
:mod:`repro.explorer.decisions`) perturbs the order of same-time,
same-priority events to explore alternative but equally-legal schedules.

:meth:`Environment.take_turn` lets a caller process an event in place
when the kernel would process it next anyway: nothing else is due now,
and the running process is the last callback of the event being
processed, so no other code could run between the two.
"""

from __future__ import annotations

import heapq
import typing

from repro.sim.events import NORMAL, Event, Timeout
from repro.sim.process import Process


class EmptySchedule(Exception):
    """Raised internally when the event queue runs dry."""


class SchedulePolicy:
    """Tie-break hook for events scheduled at the same ``(time,
    priority)``.

    ``tie_break`` returns a sortable key ordered *between* priority and
    insertion order: events with equal keys keep insertion order, so the
    base policy (constant key) reproduces the historical deterministic
    schedule exactly.  Priorities still dominate — a policy can never
    reorder an urgent wound behind a normal event.
    """

    def tie_break(self, time: float, priority: int, eid: int) -> int:
        """Key for the event being scheduled (default: no reordering)."""
        return 0


#: Shared default policy instance (stateless).
INSERTION_ORDER = SchedulePolicy()


class Environment:
    """A discrete-event simulation environment.

    Typical usage::

        env = Environment()

        def clock(env):
            while True:
                yield env.timeout(1.0)

        env.process(clock(env))
        env.run(until=10.0)
    """

    def __init__(self, initial_time: float = 0.0,
                 schedule_policy: typing.Optional[SchedulePolicy] = None):
        self._now = float(initial_time)
        self._queue: list = []
        self._eid = 0
        self.schedule_policy = schedule_policy or INSERTION_ORDER
        #: Number of events processed so far (useful for debugging/stats).
        self.events_processed = 0
        #: The callback ``run()`` is running as the last of its event
        #: (``None`` between events, in ``step()`` and outside the kernel).
        self._tail = None

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL,
                 delay: float = 0.0) -> None:
        """Schedule a triggered ``event`` for processing after ``delay``."""
        self._eid += 1
        when = self._now + delay
        policy = self.schedule_policy
        # The default policy's key is the constant 0: skip the call.
        key = 0 if policy is INSERTION_ORDER else \
            policy.tie_break(when, priority, self._eid)
        heapq.heappush(self._queue, (when, priority, key, self._eid,
                                     event))

    def take_turn(self) -> bool:
        """Whether an event triggered now would be the next event
        processed, and would resume the running process with nothing in
        between.  That holds when ``run()`` is running a process's
        resume as the last callback of its event (so no other callback
        follows it) and nothing else is due at ``now`` (so no other event
        precedes it, whatever its tie-break key).

        On ``True`` the caller marks its event processed and consumes it
        in place instead of scheduling it.  The event still takes the eid
        and the policy query its ``schedule()`` would have taken, so
        every later event keeps its key and the run keeps its schedule;
        only ``events_processed`` does not count it.  The caller must
        hand the event straight to the running process, which yields it
        (or skips the yield) before attaching anything to it.
        """
        tail = self._tail
        if tail is None or not isinstance(
                getattr(tail, "__self__", None), Process):
            return False
        queue = self._queue
        now = self._now
        if queue and queue[0][0] <= now:
            return False
        self._eid += 1
        policy = self.schedule_policy
        if policy is not INSERTION_ORDER:
            policy.tie_break(now, NORMAL, self._eid)
        return True

    def clear(self) -> None:
        """Drop every scheduled event (a finished run's pending timers)."""
        self._queue.clear()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value=None) -> Timeout:
        """Create a :class:`Timeout` that fires after ``delay``."""
        return Timeout(self, delay, value)

    def process(self, generator) -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Process the next scheduled event.

        The caller may act between two steps, so nothing is processed in
        place here (:meth:`take_turn` is ``False`` throughout)."""
        if not self._queue:
            raise EmptySchedule()
        when, _priority, _key, _eid, event = heapq.heappop(self._queue)
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        self.events_processed += 1
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failure nobody handled: surface it loudly.
            raise event._value

    def run(self, until: typing.Optional[float] = None):
        """Run until the schedule is empty or ``until`` is reached.

        If ``until`` is an :class:`Event`, run until that event is processed
        and return its value (re-raising its exception on failure).
        """
        if until is None:
            stop_time = float("inf")
            stop_event = None
        elif isinstance(until, Event):
            stop_time = float("inf")
            stop_event = until
        else:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(
                    "until ({}) is earlier than now ({})".format(
                        stop_time, self._now))
            stop_event = None

        # ``step()`` inlined: this loop runs once per simulated event.
        # The last callback runs as ``_tail`` (see ``take_turn``), unless
        # the event is ``until``: the loop stops after it.
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue:
                if stop_event is not None and stop_event.callbacks is None:
                    break
                if queue[0][0] > stop_time:
                    self._now = stop_time
                    break
                when, _priority, _key, _eid, event = heappop(queue)
                self._now = when
                callbacks, event.callbacks = event.callbacks, None
                self.events_processed += 1
                if callbacks:
                    if len(callbacks) > 1:
                        self._tail = None
                        for callback in callbacks[:-1]:
                            callback(event)
                    last = callbacks[-1]
                    self._tail = last if event is not stop_event else None
                    last(event)
                if not event._ok and not event._defused:
                    raise event._value
            else:
                if stop_time != float("inf"):
                    self._now = stop_time
        finally:
            self._tail = None

        if stop_event is not None:
            if not stop_event.triggered:
                return None
            if not stop_event.ok:
                stop_event.defuse()
                raise stop_event.value
            return stop_event.value
        return None
