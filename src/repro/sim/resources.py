"""Contended resources and mailboxes for the DES engine.

:class:`Resource` models capacity-limited, FIFO-granted exclusive use —
we use it for CPU cores and for NIC in/out ports (the per-endpoint
serialization that produces the paper's root-drain bottleneck).

Holding a unit for a time costs **one engine event**:
:meth:`Resource.hold` takes the unit now (or queues FIFO) and schedules
a single event at the hold's end.  That event's *first* callback is the
resource's own: it releases the unit and hands it straight to the next
queued hold by scheduling *that* hold's end event.  Release therefore
still precedes the waiter's resumption, and hand-over happens at the
same ``engine.now`` as the release — the same-instant ordering of the
older grant-then-timeout sequence, without the zero-delay grant hop.
That sequence survives only as :meth:`Resource.request` /
:meth:`Resource.release`, for holders whose duration is not known up
front or must not be ``time_scale``d (the fault injector's CPU hog).

:class:`Store` models an unbounded mailbox with optional filtered
receive — the PVM layer builds typed/tagged message matching on it.
"""

from __future__ import annotations

import typing as t
from collections import deque

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import UNSET, Event

__all__ = ["Resource", "Store"]


class _Hold(Event):
    """The end-of-hold event of :meth:`Resource.hold` (pending while queued).

    Born with the resource's release as its first callback, so the unit
    is freed before whoever waits on the hold resumes.
    """

    __slots__ = ("resource", "duration")

    def __init__(self, resource: "Resource", duration: float) -> None:
        # Inlined Event.__init__ + add_callback: four holds per message.
        self.engine = resource.engine
        self.resource = resource
        self.callbacks = [resource._end_hold]
        self._value = UNSET
        self._exception = None
        self._processed = False
        self.duration = duration

    @property
    def name(self) -> str:  # rendered on demand (repr, deadlock reports)
        return self.resource.name + ".hold"


class Resource:
    """A FIFO resource with integral capacity.

    Usage from a process::

        yield resource.hold(duration)

    (``yield from resource.occupy(duration)`` is the generator
    spelling), or, when the duration is not known up front::

        yield resource.request()
        try:
            yield engine.timeout(duration)
        finally:
            resource.release()
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"Resource capacity must be >= 1, got {capacity!r}")
        self.engine = engine
        self.capacity = int(capacity)
        self.name = name or "resource"
        self._request_name = self.name + ".request"
        self._in_use = 0
        #: FIFO of queued :meth:`request` events and :meth:`hold`s.
        self._waiters: deque[Event] = deque()
        #: Cumulative busy time integral (for utilisation statistics).
        self._busy_time = 0.0
        self._last_change = 0.0
        #: Optional hold-time transform ``(start, nominal) -> actual``
        #: applied by :meth:`hold` at the instant the unit is obtained.
        #: The fault-injection layer installs piecewise slowdown
        #: timelines here so that CPU and NIC charges become
        #: time-varying; ``None`` (the default) keeps holds at their
        #: nominal duration.
        self.time_scale: t.Callable[[float, float], float] | None = None

    # -- accounting ----------------------------------------------------------
    def _note_change(self) -> None:
        now = self.engine.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

    def utilization(self) -> float:
        """Average fraction of capacity in use since the start of time."""
        self._note_change()
        if self.engine.now == 0:
            return 0.0
        return self._busy_time / (self.engine.now * self.capacity)

    # -- acquisition ----------------------------------------------------------
    @property
    def in_use(self) -> int:
        """Number of units currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests and holds waiting for a unit."""
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that succeeds when a unit is granted.

        The holder keeps the unit until it calls :meth:`release`; no
        :attr:`time_scale` applies.  Prefer :meth:`hold` when the
        duration is known.
        """
        event = Event(self.engine, self._request_name)
        if self._in_use < self.capacity and not self._waiters:
            self._note_change()
            self._in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release one held unit, handing it to the oldest waiter if any.

        A queued :meth:`request` is granted (its event succeeds now); a
        queued :meth:`hold` starts, i.e. its end event is scheduled.  A
        queued hold that nobody waits on any more — the process that
        yielded it was killed — is skipped, so a kill never leaks the
        unit to a dead waiter.
        """
        if self._in_use <= 0:
            raise SimulationError(f"release() of idle resource {self.name!r}")
        waiters = self._waiters
        while waiters:
            # Hand the unit straight to the next waiter; _in_use unchanged.
            waiter = waiters.popleft()
            if waiter.__class__ is not _Hold:
                waiter.succeed(self)
                return
            if len(waiter.callbacks) > 1:  # someone besides _end_hold waits
                self._begin(waiter)
                return
        self._note_change()
        self._in_use -= 1

    def hold(self, duration: float) -> Event:
        """Hold one unit for ``duration``; the event fires at the hold's end.

        The one way to occupy the resource for a known time, at one
        engine event per hold: the unit is taken now if one is free,
        else the hold queues FIFO behind earlier requests and holds.
        With a :attr:`time_scale` installed the duration is stretched
        by the transform, evaluated at the instant the unit is actually
        obtained (not when the hold was queued).  The unit is released,
        and handed to the next waiter, by the returned event's first
        callback — before whoever yielded the event resumes.

        Wait on the event at once (yield it or add a callback): a hold
        still *queued* when its last waiter detaches
        (:meth:`Process.kill`) is skipped at hand-over.  A hold already
        running ends at its scheduled time regardless.
        """
        if duration < 0:
            raise SimulationError(f"hold duration must be >= 0, got {duration!r}")
        hold = _Hold(self, duration)
        if self._in_use < self.capacity and not self._waiters:
            self._note_change()
            self._in_use += 1
            self._begin(hold)
        else:
            self._waiters.append(hold)
        return hold

    def _begin(self, hold: _Hold) -> None:
        """The unit is ``hold``'s from now: schedule its end event."""
        engine = self.engine
        now = engine.now
        duration = hold.duration
        if self.time_scale is not None:
            duration = self.time_scale(now, duration)
            if duration < 0:
                raise SimulationError(f"time_scale gave a negative hold ({duration!r})")
        hold._value = duration
        # Laned like a Timeout: a hold that ends at a later instant
        # yields to work created *at* that instant.
        at = now + duration
        engine._push(at, 1 if at > now else 0, 0, hold)

    def _end_hold(self, _hold: Event) -> None:
        self.release()

    def occupy(self, duration: float) -> t.Generator[Event, t.Any, None]:
        """Generator spelling of :meth:`hold`: ``yield from occupy(d)``."""
        yield self.hold(duration)

    def __repr__(self) -> str:
        return (
            f"Resource({self.name!r}, {self._in_use}/{self.capacity} in use, "
            f"{len(self._waiters)} waiting)"
        )


class Store:
    """An unbounded FIFO store with optional filtered gets.

    ``put`` never blocks.  ``get`` returns an event that succeeds with
    the oldest item accepted by the (optional) predicate.
    """

    def __init__(self, engine: Engine, name: str = "") -> None:
        self.engine = engine
        self.name = name or "store"
        self._get_name = self.name + ".get"
        self._items: deque[t.Any] = deque()
        self._getters: deque[tuple[Event, t.Callable[[t.Any], bool] | None]] = deque()
        self._closed = False
        #: Total number of items ever put (throughput statistic).
        self.total_put = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, exception: BaseException) -> None:
        """Close the store; pending and future gets fail with ``exception``."""
        self._closed = True
        self._close_exception = exception
        while self._getters:
            event, _pred = self._getters.popleft()
            event.fail(exception)

    def put(self, item: t.Any) -> None:
        """Deposit ``item``, waking the oldest matching getter if any."""
        if self._closed:
            raise SimulationError(f"put() on closed store {self.name!r}")
        self.total_put += 1
        for i, (event, predicate) in enumerate(self._getters):
            if predicate is None or predicate(item):
                del self._getters[i]
                event.succeed(item)
                return
        self._items.append(item)

    def get(self, predicate: t.Callable[[t.Any], bool] | None = None) -> Event:
        """Return an event yielding the oldest item matching ``predicate``."""
        event = Event(self.engine, self._get_name)
        if self._closed:
            event.fail(self._close_exception)
            return event
        for i, item in enumerate(self._items):
            if predicate is None or predicate(item):
                del self._items[i]
                event.succeed(item)
                return event
        self._getters.append((event, predicate))
        return event

    def try_take(self, predicate: t.Callable[[t.Any], bool] | None = None) -> t.Any | None:
        """Synchronously remove and return the oldest matching item.

        Returns ``None`` when nothing matches — the non-blocking probe
        path, without the :class:`Event` round-trip of :meth:`get`.
        """
        if self._closed:
            raise SimulationError(f"try_take() on closed store {self.name!r}")
        items = self._items
        if predicate is None:
            return items.popleft() if items else None
        for i, item in enumerate(items):
            if predicate(item):
                del items[i]
                return item
        return None

    def peek_all(self) -> tuple[t.Any, ...]:
        """Snapshot of currently stored items (oldest first)."""
        return tuple(self._items)

    def __repr__(self) -> str:
        return f"Store({self.name!r}, {len(self._items)} items, {len(self._getters)} getters)"
