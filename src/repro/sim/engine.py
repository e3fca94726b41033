"""The event loop and virtual clock of the DES engine.

Queue layout — slotted struct-of-arrays event store
---------------------------------------------------

The engine used to heap ``(time, seq, Event)`` 3-tuples and wrap every
:meth:`Engine.call_soon` function in a shim object.  It now keeps a
preallocated **event store**: a float64 ``array`` of fire times, an
int32 ``array`` of entry kinds, and a plain list of payload objects,
all indexed by *slot* and recycled through a free list.  The heap holds
only ``(time, key)`` 2-tuples where ``key`` packs everything the
tie-break needs::

    key = (lane << 62) | (seq << 24) | slot

``lane``
    0 for entries whose fire time equals ``now`` at enqueue (event
    triggers, ``call_soon``, zero-delay timeouts), 1 for entries
    scheduled into the future.  At an equal fire time, work that was
    *ready immediately* therefore always processes before a timeout
    that merely *lands* on that instant — regardless of creation
    order.  This fixes the old shim ordering edge where a ``call_soon``
    at the current timestamp could lose a heap tie to a ``Timeout``
    created earlier.
``seq``
    monotonically increasing enqueue counter (38 bits), keeping
    same-time same-lane entries FIFO and the whole simulation
    deterministic.
``kind``
    0 — the payload is an :class:`Event` (the engine calls
    ``_process()``); 1 — a bare callable (the engine calls it
    directly, which is what lets ``call_soon`` skip allocating any
    wrapper object).
"""

from __future__ import annotations

import typing as t
from array import array
from heapq import heappop, heappush

from repro.errors import DeadlockError, SimulationError
from repro.sim.events import _LANE_FUTURE, _SLOT_BITS, _SLOT_MASK, Event, Timeout
from repro.util.lifetime import gc_paused

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import Process

__all__ = ["Engine"]

#: Cached Process class (imported lazily once; process.py imports this
#: module at load time, so a top-level import would be circular).
_process_cls = None

#: Initial store capacity (slots); grows by doubling.
_INITIAL_SLOTS = 1024


class Engine:
    """A deterministic discrete-event simulation engine.

    The engine owns a priority queue of triggered events keyed by
    ``(time, lane, sequence)``; see the module docstring for the
    packed-key layout.  The sequence number makes simultaneous
    same-lane events process in trigger order, which keeps every
    simulation in this library fully deterministic.

    Typical use::

        eng = Engine()
        eng.process(my_generator_function(eng))
        eng.run()
        print(eng.now)
    """

    def __init__(self) -> None:
        #: Current virtual time (seconds).
        self.now: float = 0.0
        # The slotted event store (see module docstring): parallel
        # arrays indexed by slot, plus the free list of recyclable
        # slots and the heap of (time, packed_key) pairs.
        self._times = array("d", bytes(8 * _INITIAL_SLOTS))
        self._kinds = array("i", bytes(4 * _INITIAL_SLOTS))
        self._objs: list[t.Any] = [None] * _INITIAL_SLOTS
        self._free: list[int] = list(range(_INITIAL_SLOTS - 1, -1, -1))
        self._heap: list[tuple[float, int]] = []
        self._seq = 0
        #: Live (started, unfinished) processes, and the macro engine's
        #: unfinished parties, for deadlock reporting (by ``repr``).
        self._live_processes: set[t.Any] = set()
        self._events_processed = 0
        #: Optional observability hook (a repro.obs Tracer), set per run
        #: by the runtime when span tracing is active; each run()/
        #: run_until() call then records one "engine" span with its
        #: event-batch size.
        self.obs_tracer: t.Any | None = None
        self.obs_group = ""

    # -- event plumbing -----------------------------------------------------
    def _grow(self) -> int:
        """Double the store and return a fresh slot (free list is empty)."""
        old = len(self._objs)
        if old << 1 > _SLOT_MASK + 1:
            raise SimulationError(
                f"event store overflow: more than {_SLOT_MASK + 1} simultaneous entries"
            )
        self._times.extend(array("d", bytes(8 * old)))
        self._kinds.extend(array("i", bytes(4 * old)))
        self._objs.extend([None] * old)
        # Hand out the last new slot; queue the rest for recycling.
        self._free.extend(range(2 * old - 2, old - 1, -1))
        return 2 * old - 1

    def _push(self, at: float, lane: int, kind: int, obj: t.Any) -> None:
        """Stash ``obj`` in the store and heap its packed key."""
        free = self._free
        slot = free.pop() if free else self._grow()
        self._times[slot] = at
        self._kinds[slot] = kind
        self._objs[slot] = obj
        self._seq += 1
        key = (self._seq << _SLOT_BITS) | slot
        if lane:
            key |= _LANE_FUTURE
        heappush(self._heap, (at, key))

    def _enqueue_event(self, event: Event, delay: float = 0.0) -> None:
        """Queue a triggered event to be processed ``delay`` from now."""
        if delay:
            if delay < 0:
                raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
            self._push(self.now + delay, 1, 0, event)
        else:
            self._push(self.now, 0, 0, event)

    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event` bound to this engine."""
        return Event(self, name)

    def timeout(self, delay: float, value: t.Any = None, name: str = "") -> Event:
        """Create an event that succeeds ``delay`` units from now."""
        return Timeout(self, delay, value=value, name=name)

    def call_soon(self, func: t.Callable[[], None]) -> None:
        """Run ``func()`` at the current time, after already-queued events.

        Entries created *at* the current timestamp (this, event
        triggers, zero-delay timeouts) always run before previously
        scheduled timeouts that fire at the same instant; among
        themselves they stay FIFO.
        """
        self._push(self.now, 0, 1, func)

    def call_at(self, at: float, func: t.Callable[[], None]) -> None:
        """Run ``func()`` at absolute virtual time ``at``.

        Unlike ``timeout(at - now)``, the fire time is stored exactly —
        ``now + (at - now)`` need not equal ``at`` in floating point,
        and the macro-event path (:mod:`repro.sim.macro`) depends on
        boundary events landing on exact precomputed times.
        """
        if at < self.now:
            raise SimulationError(f"cannot schedule into the past (at={at!r}, now={self.now!r})")
        self._push(at, 1 if at > self.now else 0, 1, func)

    def process(self, generator: t.Generator, name: str = "") -> "Process":
        """Start a new process from a generator; see :class:`Process`."""
        global _process_cls
        if _process_cls is None:
            from repro.sim.process import Process

            _process_cls = Process
        return _process_cls(self, generator, name=name)

    # -- running ------------------------------------------------------------
    def step(self) -> None:
        """Process the single next event, advancing the clock."""
        if not self._heap:
            raise SimulationError("step() on an empty event queue")
        time, key = heappop(self._heap)
        if time < self.now:  # pragma: no cover - guarded by the enqueue paths
            raise SimulationError("event queue went backwards in time")
        slot = key & _SLOT_MASK
        obj = self._objs[slot]
        self._objs[slot] = None
        self._free.append(slot)
        self.now = time
        self._events_processed += 1
        if self._kinds[slot]:
            obj()
        else:
            obj._process()

    @gc_paused()
    def run(self, until: float | None = None, *, check_deadlock: bool = True) -> float:
        """Run until the queue drains (or until time ``until``).

        Returns the final virtual time.  If the queue drains while
        processes are still blocked, raises :class:`DeadlockError`
        (unless ``check_deadlock=False``).
        """
        if until is not None and until < self.now:
            raise SimulationError(f"until={until!r} is in the past (now={self.now!r})")
        heap = self._heap
        kinds = self._kinds
        objs = self._objs
        free_slot = self._free.append
        pop = heappop
        processed = 0
        batch_start = self.now
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    self.now = until
                    return self.now
                time, key = pop(heap)
                slot = key & _SLOT_MASK
                obj = objs[slot]
                objs[slot] = None
                free_slot(slot)
                self.now = time
                processed += 1
                if kinds[slot]:
                    obj()
                else:
                    obj._process()
        finally:
            self._events_processed += processed
            self._record_batch(batch_start, processed)
        if until is not None:
            self.now = until
        if check_deadlock and self._live_processes:
            blocked = tuple(sorted(repr(p) for p in self._live_processes))
            raise DeadlockError(
                f"simulation deadlocked: {len(blocked)} process(es) still blocked",
                blocked=blocked,
            )
        return self.now

    @gc_paused()
    def run_until(
        self,
        events: t.Sequence[Event],
        *,
        until: float | None = None,
        check_deadlock: bool = True,
    ) -> float:
        """Run until every event in ``events`` has triggered.

        Unlike :meth:`run`, the queue is allowed to hold untriggered
        work when this returns — the fault-injection layer uses it to
        stop the clock at program completion instead of waiting out
        background-load processes and retry timers.  If the queue
        drains first with the targets untriggered, the usual deadlock
        check applies.
        """
        targets = tuple(events)
        if until is not None and until < self.now:
            raise SimulationError(f"until={until!r} is in the past (now={self.now!r})")
        # Count completions via callbacks so the loop stays O(1) per
        # step; the counter alone decides completion (every counted
        # target gets exactly one _one_done callback, which only fires
        # after the event triggered), so no per-step re-scan of the
        # target list is needed.
        pending = sum(1 for event in targets if not event.triggered)

        def _one_done(_event: Event) -> None:
            nonlocal pending
            pending -= 1

        for event in targets:
            if not event.triggered:
                event.add_callback(_one_done)
        heap = self._heap
        kinds = self._kinds
        objs = self._objs
        free_slot = self._free.append
        pop = heappop
        processed = 0
        batch_start = self.now
        try:
            while heap:
                if pending == 0:
                    return self.now
                if until is not None and heap[0][0] > until:
                    self.now = until
                    return self.now
                time, key = pop(heap)
                slot = key & _SLOT_MASK
                obj = objs[slot]
                objs[slot] = None
                free_slot(slot)
                self.now = time
                processed += 1
                if kinds[slot]:
                    obj()
                else:
                    obj._process()
        finally:
            self._events_processed += processed
            self._record_batch(batch_start, processed)
        if pending == 0:
            return self.now
        if check_deadlock and self._live_processes:
            blocked = tuple(sorted(repr(p) for p in self._live_processes))
            raise DeadlockError(
                f"simulation deadlocked: {len(blocked)} process(es) still blocked",
                blocked=blocked,
            )
        return self.now

    def discard_pending(self) -> None:
        """Drop every queued entry unprocessed.

        For the owner of a run that :meth:`run_until` stopped for good:
        what is left are dead timers, and each holds the engine in a
        reference cycle through its queue slot.
        """
        objs = self._objs
        for _time, key in self._heap:
            objs[key & _SLOT_MASK] = None
            self._free.append(key & _SLOT_MASK)
        self._heap.clear()

    def _record_batch(self, start: float, processed: int) -> None:
        """Emit one "engine" span per run call when observation is on."""
        tracer = self.obs_tracer
        if tracer is not None and processed:
            tracer.add(
                "engine", "event batch", group=self.obs_group, actor="engine",
                start=start, end=self.now, events=processed,
            )

    @property
    def events_processed(self) -> int:
        """Total number of events processed so far (a progress metric)."""
        return self._events_processed

    def __repr__(self) -> str:
        return (
            f"Engine(now={self.now:.6g}, queued={len(self._heap)}, "
            f"live_processes={len(self._live_processes)})"
        )
