"""Cost-charging barriers.

An HBSP^k barrier over the machines of cluster ``M_{i,j}`` costs
``L_{i,j}`` (Section 3.3 of the paper).  :class:`Barrier` implements a
reusable (cyclic) barrier on the DES engine: when the last of the
``parties`` arrives, *all* waiters are released ``cost`` virtual-time
units later, charging the synchronisation overhead exactly once per
cycle, to every participant.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import Event

__all__ = ["Barrier"]


class Barrier:
    """A reusable barrier for a fixed set of parties.

    Parameters
    ----------
    engine:
        The owning engine.
    parties:
        Number of processes that must arrive to complete a cycle.
    cost:
        Virtual time charged per cycle (the model's ``L``); all waiters
        are released ``cost`` after the last arrival.
    name:
        Label for tracing.
    """

    def __init__(self, engine: Engine, parties: int, cost: float = 0.0, name: str = "") -> None:
        if parties < 1:
            raise SimulationError(f"Barrier parties must be >= 1, got {parties!r}")
        if cost < 0:
            raise SimulationError(f"Barrier cost must be >= 0, got {cost!r}")
        self.engine = engine
        self.parties = int(parties)
        self.cost = float(cost)
        self.name = name or "barrier"
        self._waiting: list[Event] = []
        #: Number of completed cycles (superstep counter for the runtime).
        self.cycles = 0

    @property
    def arrived(self) -> int:
        """How many parties have arrived in the current cycle."""
        return len(self._waiting)

    def wait(self) -> Event:
        """Arrive at the barrier; returns an event released at cycle end.

        The event's value is the index of the completed cycle.
        """
        event = Event(self.engine, f"{self.name}.wait")
        self._waiting.append(event)
        if len(self._waiting) > self.parties:  # pragma: no cover - logic guard
            raise SimulationError(f"barrier {self.name!r} overfull")
        if len(self._waiting) == self.parties:
            waiting, self._waiting = self._waiting, []
            cycle = self.cycles
            self.cycles += 1

            def release() -> None:
                for waiter in waiting:
                    waiter.succeed(cycle)

            if self.cost > 0:
                timer = self.engine.timeout(self.cost, name=f"{self.name}.L")
                timer.add_callback(lambda _ev: release())
            else:
                self.engine.call_soon(release)
        return event

    def macro_cycle(self) -> int:
        """Claim the next cycle index without the per-waiter plumbing.

        The macro-event path (:mod:`repro.sim.macro`) computes arrival
        and release times arithmetically and resumes its parties
        itself; it still reuses this barrier object for ``parties`` /
        ``cost`` validation and advances the shared cycle counter here
        so mixed introspection stays consistent.
        """
        if self._waiting:  # pragma: no cover - the paths never mix mid-cycle
            raise SimulationError(
                f"barrier {self.name!r} has object-path waiters during a macro cycle"
            )
        index = self.cycles
        self.cycles += 1
        return index

    def __repr__(self) -> str:
        return (
            f"Barrier({self.name!r}, {len(self._waiting)}/{self.parties} arrived, "
            f"cost={self.cost:.6g}, cycles={self.cycles})"
        )
