"""Generator-based simulation processes.

A :class:`Process` wraps a generator.  The generator ``yield``-s
:class:`~repro.sim.events.Event` instances to wait on them; when the event is
processed, the process resumes with the event's value (or has the event's
exception thrown into it if the event failed).

A process is itself an event: it succeeds with the generator's return value,
or fails with any exception that escapes the generator.
"""

from __future__ import annotations

import typing

from repro.sim.events import PENDING, URGENT, Event, Interrupt

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment


class Process(Event):
    """A running simulation process.

    Parameters
    ----------
    env:
        The owning environment.
    generator:
        A generator that yields events.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                "process requires a generator, got {!r}".format(generator))
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting on (``None`` when the
        #: process is being resumed or has finished).
        self._target: typing.Optional[Event] = None
        # Kick off the process with an immediately-successful event.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        """Whether the generator is still running."""
        return not self.triggered

    def interrupt(self, cause=None) -> None:
        """Throw :class:`Interrupt` into the process.

        The interrupt is delivered at the current simulated time with urgent
        priority.  If the process is waiting on an event, it stops waiting
        (the event remains valid for other listeners).  An event that has
        already *failed* but not yet been processed — a lock wait timing
        out in the same instant a wound arrives — is defused when this
        process was its last listener: the interrupt pre-empts it, and
        nobody is left to handle the failure.  Interrupting a finished
        process is an error.
        """
        if self.triggered:
            raise RuntimeError("cannot interrupt finished process")
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            if target._ok is False and not target.callbacks:
                target._defused = True
        self._target = None
        interrupt_event = Event(self.env)
        interrupt_event.callbacks.append(self._resume)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        self.env.schedule(interrupt_event, priority=URGENT)

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------

    def _resume(self, event: Event) -> None:
        self._target = None
        while True:
            try:
                if event._ok:
                    target = self._generator.send(event._value)
                else:
                    event._defused = True
                    target = self._generator.throw(event._value)
            except StopIteration as exc:
                self.succeed(exc.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return

            if not isinstance(target, Event):
                exc = RuntimeError(
                    "process yielded non-event {!r}".format(target))
                try:
                    self._generator.throw(exc)
                except StopIteration as stop:
                    self.succeed(stop.value)
                except BaseException as err:
                    self.fail(err)
                return

            if target.callbacks is not None:
                # Not yet processed: register and wait.
                target.callbacks.append(self._resume)
                self._target = target
                return
            if target._value is PENDING:  # pragma: no cover - defensive
                raise RuntimeError("processed event without a value")
            # Already processed: consume synchronously.
            event = target
