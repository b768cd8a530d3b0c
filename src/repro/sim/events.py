"""One-shot simulation events.

An :class:`Event` is created in the *pending* state, is *triggered* exactly
once (either :meth:`Event.succeed` or :meth:`Event.fail`), and is *processed*
when the environment pops it off the schedule and runs its callbacks.

Failures propagate: a process waiting on a failed event has the exception
thrown into its generator.  A failed event that nobody waits on is re-raised
by the environment so that programming errors never pass silently (an event
may be explicitly :meth:`~Event.defuse`-d to opt out).
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment

#: Sentinel for "this event has not been triggered yet".
PENDING = object()

#: Scheduling priority for interrupts (processed before normal events at the
#: same simulated time).
URGENT = 0

#: Scheduling priority for ordinary events.
NORMAL = 1


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The interrupt ``cause`` is available as :attr:`cause` (and as
    ``exc.args[0]``).
    """

    @property
    def cause(self):
        """The cause object passed to :meth:`Process.interrupt`."""
        return self.args[0]


class Event:
    """A one-shot event that processes can wait on by yielding it.

    Parameters
    ----------
    env:
        The environment that will schedule this event once triggered.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        #: Callbacks run (in registration order) when the event is processed.
        #: Set to ``None`` once processed.
        self.callbacks: typing.Optional[list] = []
        self._value = PENDING
        self._ok: typing.Optional[bool] = None
        self._defused = False

    def __repr__(self):
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return "<{} {} at {:#x}>".format(type(self).__name__, state, id(self))

    @property
    def triggered(self) -> bool:
        """Whether :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """Whether the environment has already run the callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only valid once triggered."""
        if not self.triggered:
            raise RuntimeError("event has not been triggered")
        return bool(self._ok)

    @property
    def value(self):
        """The event's value (or failure exception).  Only valid once
        triggered."""
        if self._value is PENDING:
            raise RuntimeError("event has not been triggered")
        return self._value

    def succeed(self, value=None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError("event {!r} already triggered".format(self))
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure carrying ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self.triggered:
            raise RuntimeError("event {!r} already triggered".format(self))
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def defuse(self) -> "Event":
        """Mark a failure as handled so the environment does not re-raise."""
        self._defused = True
        return self


class Timeout(Event):
    """An event that succeeds after a fixed simulated delay."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value=None):
        if delay < 0:
            raise ValueError("negative delay {!r}".format(delay))
        # Born triggered: set the fields directly, not via Event.__init__.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._delay = delay
        env.schedule(self, delay=delay)

    @property
    def delay(self) -> float:
        return self._delay


class Condition(Event):
    """Base class for events composed of other events (all-of / any-of).

    The condition evaluates ``evaluate(events, n_triggered)`` after each
    child triggers.  On success the condition's value is a dict mapping each
    *triggered* child event to its value.  If any child fails, the condition
    fails with that child's exception (the child is defused).
    """

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: typing.Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise ValueError("events belong to different environments")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:
                # Already processed: evaluate synchronously.
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _evaluate(self, n_triggered: int) -> bool:
        raise NotImplementedError

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            if not event.ok:
                event.defuse()
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        self._count += 1
        if self._evaluate(self._count):
            # Collect only *processed* children: a Timeout is "triggered"
            # from birth but has not yet occurred until it is processed.
            self.succeed(
                {ev: ev.value for ev in self._events if ev.processed and ev.ok}
            )


class AllOf(Condition):
    """Succeeds once every child event has succeeded."""

    __slots__ = ()

    def _evaluate(self, n_triggered: int) -> bool:
        return n_triggered == len(self._events)


class AnyOf(Condition):
    """Succeeds as soon as any child event succeeds."""

    __slots__ = ()

    def _evaluate(self, n_triggered: int) -> bool:
        return n_triggered >= 1
