"""Generator-coroutine processes for the DES engine.

A *process* is a Python generator that yields :class:`~repro.sim.events.Event`
objects.  Yielding an event suspends the process until the event is
processed; the event's value is sent back into the generator::

    def producer(engine, store):
        yield engine.timeout(1.0)      # sleep 1 virtual second
        store.put("item")
        result = yield store_get_event  # wait and receive a value

A process is itself an event: it succeeds with the generator's return
value, so processes can wait for each other (fork/join).
"""

from __future__ import annotations

import typing as t

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import UNSET, Event

__all__ = ["Process", "ProcessKilled"]


class ProcessKilled(Exception):
    """Thrown into a generator when its process is killed."""


class Process(Event):
    """A running generator, resumed by the events it yields.

    Parameters
    ----------
    engine:
        The owning engine.
    generator:
        A generator object (not a function) to execute.
    name:
        Label used in tracing and deadlock reports.
    """

    __slots__ = ("generator", "_waiting_on", "_started")

    def __init__(self, engine: Engine, generator: t.Generator, name: str = "") -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process needs a generator object, got {type(generator).__name__}; "
                "did you forget to call the generator function?"
            )
        super().__init__(engine, name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._waiting_on: Event | None = None
        self._started = False
        engine._live_processes.add(self)
        # Kick off the process at the current time via the queue so that
        # construction order determines execution order deterministically.
        engine.call_soon(self._start)

    # -- lifecycle ----------------------------------------------------------
    def _start(self) -> None:
        if self.triggered:  # killed before it ever ran
            return
        self._started = True
        self._advance(None, None)

    def _resume(self, event: Event) -> None:
        # The hottest callback of the event-by-event path: reads the
        # slots directly (``event`` is being processed, so triggered).
        self._waiting_on = None
        if self._value is not UNSET or self._exception is not None:
            return  # killed while waiting
        exception = event._exception
        if exception is None:
            self._advance(event._value, None)
        else:
            self._advance(None, exception)

    def _advance(self, value: t.Any, exc: BaseException | None) -> None:
        try:
            if exc is not None:
                target = self.generator.throw(exc)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except ProcessKilled:
            self._finish(None)
            return
        except BaseException as error:
            self.engine._live_processes.discard(self)
            if isinstance(error, (KeyboardInterrupt, SystemExit)):  # pragma: no cover
                raise
            self.fail(error)
            return
        if not isinstance(target, Event):
            self.engine._live_processes.discard(self)
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes may "
                    "only yield Event objects"
                )
            )
            return
        self._waiting_on = target
        target.add_callback(self._resume)

    def _finish(self, value: t.Any) -> None:
        self.engine._live_processes.discard(self)
        self.succeed(value)

    def kill(self) -> None:
        """Terminate the process.

        If the process is currently suspended, :class:`ProcessKilled` is
        thrown into its generator so ``finally`` blocks run.
        """
        if self.triggered:
            return
        self.engine._live_processes.discard(self)
        if self._started and self._waiting_on is not None:
            waiting, self._waiting_on = self._waiting_on, None
            # Detach from the event we were waiting on.
            if waiting.callbacks is not None and self._resume in waiting.callbacks:
                waiting.callbacks.remove(self._resume)
            try:
                self.generator.throw(ProcessKilled())
            except (StopIteration, ProcessKilled):
                pass
        else:
            self.generator.close()
        self.succeed(None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def __repr__(self) -> str:
        state = "done" if self.triggered else ("blocked" if self._waiting_on else "ready")
        waiting = f" waiting_on={self._waiting_on.name}" if self._waiting_on else ""
        return f"<Process {self.name} {state}{waiting}>"
