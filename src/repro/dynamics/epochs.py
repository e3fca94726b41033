"""Deterministic membership epochs from a dynamic plan.

Join/leave events partition the time axis into *epochs*: maximal
half-open intervals ``[start, end)`` over which cluster membership is
constant.  The serving layer re-plans placement at epoch boundaries
(:mod:`repro.serve.service`), and per-epoch spans make degradation
visible in the Chrome trace.

Epochs are pure arithmetic over the plan — no randomness, no
simulation — so equal plans always yield equal epoch sequences.
"""

from __future__ import annotations

import dataclasses
import math
import typing as t

from repro.dynamics.plan import DynamicPlan, MachineJoin

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import ClusterTopology

__all__ = ["Epoch", "membership_epochs"]


@dataclasses.dataclass(frozen=True)
class Epoch:
    """One constant-membership interval ``[start, end)``."""

    index: int
    start: float
    end: float  # math.inf on the final epoch
    present: frozenset[str]


def membership_epochs(
    plan: DynamicPlan, topology: "ClusterTopology"
) -> tuple[Epoch, ...]:
    """Compile ``plan``'s join/leave events into an epoch sequence.

    The first epoch starts at 0 and the last extends to ``inf``; an
    empty plan yields exactly one all-present epoch.  A machine named
    by a :class:`MachineJoin` is absent before its join time; leaves
    with finite duration rejoin at their end.  Overlapping absences on
    one machine union together.
    """
    plan.validate(topology)
    all_machines = frozenset(m.name for m in topology.machines)

    # Per machine, collect absence intervals then merge overlaps.
    absences: dict[str, list[tuple[float, float]]] = {}
    for event in plan:
        if isinstance(event, MachineJoin):
            if event.start > 0:
                absences.setdefault(event.machine, []).append((0.0, event.start))
        else:
            absences.setdefault(event.machine, []).append((event.start, event.end))

    # Delta events: +1 = machine appears, -1 = machine disappears.
    boundaries: set[float] = {0.0}
    deltas: list[tuple[float, str, bool]] = []  # (time, machine, present?)
    for machine, intervals in absences.items():
        intervals.sort()
        merged: list[list[float]] = []
        for lo, hi in intervals:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        for lo, hi in merged:
            if hi <= lo:
                continue
            deltas.append((lo, machine, False))
            boundaries.add(lo)
            if math.isfinite(hi):
                deltas.append((hi, machine, True))
                boundaries.add(hi)

    # Stable sort keeps same-time deltas in insertion order; every
    # delta time is a boundary, so one pointer pass applies them all.
    deltas.sort(key=lambda delta: delta[0])
    times = sorted(boundaries)
    epochs: list[Epoch] = []
    present = set(all_machines)
    cursor = 0
    for i, start in enumerate(times):
        while cursor < len(deltas) and deltas[cursor][0] == start:
            _, machine, appears = deltas[cursor]
            (present.add if appears else present.discard)(machine)
            cursor += 1
        end = times[i + 1] if i + 1 < len(times) else math.inf
        epochs.append(
            Epoch(index=i, start=start, end=end, present=frozenset(present))
        )
    return tuple(epochs)
