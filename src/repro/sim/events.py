"""Event primitives for the DES engine.

An :class:`Event` moves through three states:

``pending``
    created, nobody has triggered it yet;
``triggered``
    :meth:`Event.succeed` or :meth:`Event.fail` was called — the event
    holds a value (or an exception) and is queued on the engine;
``processed``
    the engine has run its callbacks.

Processes (see :mod:`repro.sim.process`) wait on events by yielding
them; the engine resumes the process with the event's value once the
event is processed.
"""

from __future__ import annotations

import typing as t
from heapq import heappush

from repro.errors import SimulationError

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

__all__ = ["UNSET", "Event", "Timeout", "AllOf", "AnyOf"]

#: Packed heap-key layout shared with :class:`repro.sim.engine.Engine`
#: (defined here because the hot trigger paths below inline the push;
#: the engine imports them back).  ``key = (lane << 62) | (seq << 24)
#: | slot`` — see the engine module docstring.
_SLOT_BITS = 24
_SLOT_MASK = (1 << _SLOT_BITS) - 1
_LANE_FUTURE = 1 << 62


class _Unset:
    """Sentinel for "no value yet"; falsy and with a readable repr."""

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "<UNSET>"


#: Sentinel used for events that have not produced a value yet.
UNSET = _Unset()


class Event:
    """A one-shot occurrence in virtual time.

    Parameters
    ----------
    engine:
        The engine that will process this event's callbacks.
    name:
        Optional human-readable label (used in deadlock reports).
    """

    __slots__ = ("engine", "name", "callbacks", "_value", "_exception", "_processed")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        #: Callables invoked with this event when it is processed.
        self.callbacks: list[t.Callable[[Event], None]] | None = []
        self._value: t.Any = UNSET
        self._exception: BaseException | None = None
        self._processed = False

    # -- state -------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not UNSET or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once the engine has run this event's callbacks."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> t.Any:
        """The success value (raises if the event failed or is pending)."""
        if self._exception is not None:
            raise self._exception
        if self._value is UNSET:
            raise SimulationError(f"event {self!r} has no value yet")
        return self._value

    @property
    def exception(self) -> BaseException | None:
        """The failure exception, if any."""
        return self._exception

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: t.Any = None) -> "Event":
        """Mark the event successful and enqueue its callbacks."""
        if self._value is not UNSET or self._exception is not None:
            raise SimulationError(f"event {self!r} already triggered")
        self._value = value
        # Inlined Engine._push(now, lane=0, kind=0, self) — this is the
        # hottest trigger path in the simulator (every grant, delivery
        # and process completion lands here).
        engine = self.engine
        free = engine._free
        slot = free.pop() if free else engine._grow()
        engine._times[slot] = engine.now
        engine._kinds[slot] = 0
        engine._objs[slot] = self
        engine._seq += 1
        heappush(engine._heap, (engine.now, (engine._seq << _SLOT_BITS) | slot))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event failed; waiting processes will see ``exception``."""
        if self._value is not UNSET or self._exception is not None:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._exception = exception
        self.engine._enqueue_event(self)
        return self

    def add_callback(self, callback: t.Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event was already processed the callback is scheduled to
        run immediately (at the current virtual time).
        """
        if self.callbacks is None:
            # Already processed: schedule a zero-delay shim so ordering
            # stays deterministic relative to other queued events.
            self.engine.call_soon(lambda: callback(self))
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        """Run callbacks (engine internal)."""
        if self._processed:  # pragma: no cover - engine guards this
            raise SimulationError(f"event {self!r} processed twice")
        self._processed = True
        callbacks, self.callbacks = self.callbacks, None
        if self._exception is not None and not callbacks:
            # A failure nobody is waiting on would otherwise vanish
            # silently; surface it to the caller of Engine.run().
            raise self._exception
        for callback in callbacks or ():
            callback(self)

    def __repr__(self) -> str:
        state = "processed" if self._processed else ("triggered" if self.triggered else "pending")
        label = self.name or self.__class__.__name__
        return f"<{label} {state} at t={self.engine.now:.6g}>"


class Timeout(Event):
    """An event that succeeds after ``delay`` units of virtual time.

    The hot path of every simulation: holds, barrier costs, wire
    latencies and retry timers all come through here, so construction
    stays allocation-light — the descriptive ``timeout(...)`` label is
    only rendered on demand by :meth:`__repr__`, never eagerly.
    """

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: t.Any = None, name: str = "") -> None:
        if delay < 0:
            raise SimulationError(f"Timeout delay must be >= 0, got {delay!r}")
        # Inlined Event.__init__ + Engine._push: a Timeout is born
        # triggered, so both collapse to attribute stores and one push.
        # A positive delay lands in the "future" lane: at an equal fire
        # time, call_soon / trigger entries created *at* that time must
        # process first (see the engine module docstring).
        self.engine = engine
        self.name = name
        self.callbacks = []
        self._exception = None
        self._processed = False
        delay = float(delay)
        self.delay = delay
        self._value = value if value is not None else delay
        at = engine.now + delay
        free = engine._free
        slot = free.pop() if free else engine._grow()
        engine._times[slot] = at
        engine._kinds[slot] = 0
        engine._objs[slot] = self
        engine._seq += 1
        key = (engine._seq << _SLOT_BITS) | slot
        if at > engine.now:
            key |= _LANE_FUTURE
        heappush(engine._heap, (at, key))

    def __repr__(self) -> str:
        if not self.name:
            state = "processed" if self._processed else "triggered"
            return f"<timeout({self.delay:.6g}) {state} at t={self.engine.now:.6g}>"
        return super().__repr__()


class _Condition(Event):
    """Base class for events composed of other events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, engine: "Engine", events: t.Sequence[Event], name: str) -> None:
        super().__init__(engine, name)
        self.events = tuple(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(())
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Succeeds when *all* child events have succeeded.

    The value is a tuple of the children's values in construction order.
    If any child fails, this condition fails with the same exception.
    """

    __slots__ = ()

    def __init__(self, engine: "Engine", events: t.Sequence[Event], name: str = "") -> None:
        super().__init__(engine, events, name or f"all_of({len(events)})")

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.exception)  # type: ignore[arg-type]
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(tuple(child.value for child in self.events))


class AnyOf(_Condition):
    """Succeeds when the *first* child event succeeds.

    The value is a ``(index, value)`` pair identifying the winner.
    """

    __slots__ = ()

    def __init__(self, engine: "Engine", events: t.Sequence[Event], name: str = "") -> None:
        super().__init__(engine, events, name or f"any_of({len(events)})")

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.exception)  # type: ignore[arg-type]
        else:
            self.succeed((self.events.index(event), event.value))
        # A loser may never fire (a retry timer the run's end discards),
        # and it holds this condition through its callback list: let go.
        self.events = ()
