"""Declarative membership-churn plans.

A :class:`DynamicPlan` lists :class:`MachineLeave` /
:class:`MachineJoin` events.  The serving layer reads it through
deterministic membership *epochs* (:mod:`repro.dynamics.epochs`) and
re-plans placement at every epoch boundary.

Plans are plain frozen data: they JSON-round-trip exactly like fault
plans (both are a :class:`~repro.util.codec.SpecList`), validate
against a topology before a session starts, and the preset
:func:`churn_plan` draws from a named
:class:`~repro.util.rng.RngStream` — so equal arguments build equal
plans, and the empty plan is one all-present epoch.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import DynamicsError
from repro.faults.plan import Windowed, _check_window
from repro.util.codec import SpecList

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import ClusterTopology

__all__ = [
    "MachineJoin",
    "MachineLeave",
    "DynamicPlan",
    "churn_plan",
]


@dataclasses.dataclass(frozen=True)
class MachineJoin:
    """``machine`` is absent from the cluster until ``start``.

    Before the join time the machine makes no progress and the serving
    layer's membership epochs exclude it; a join at ``start == 0`` is a
    no-op (the machine was always there).
    """

    machine: str
    start: float

    kind: t.ClassVar[str] = "machine_join"

    def __post_init__(self) -> None:
        _check_window(self.start, None, error=DynamicsError)


@dataclasses.dataclass(frozen=True)
class MachineLeave(Windowed):
    """``machine`` leaves the cluster at ``start``.

    With a finite ``duration`` it rejoins afterwards (a reboot); with
    ``duration=None`` it is gone for the rest of the run.  While absent
    the machine makes no progress and membership epochs exclude it.
    """

    machine: str
    start: float
    duration: float | None = None

    kind: t.ClassVar[str] = "machine_leave"

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration, error=DynamicsError)


#: Every concrete dynamic event type.
DynamicSpec = t.Union[MachineJoin, MachineLeave]


@dataclasses.dataclass(frozen=True, init=False, repr=False)
class DynamicPlan(SpecList):
    """An ordered collection of membership events.

    Mirrors :class:`~repro.faults.FaultPlan` (both are a
    :class:`~repro.util.codec.SpecList`): build programmatically, from
    :func:`churn_plan`, or from JSON (``repro serve --dynamics
    plan.json``).  The empty plan is the one-epoch case: a single
    all-present membership epoch, which is what a session without a
    plan serves on.
    """

    events: tuple[DynamicSpec, ...] = ()

    _kinds = t.get_args(DynamicSpec)
    _field = "events"
    _what = "dynamic plan"
    _item = "event"
    _error = DynamicsError

    def validate(self, topology: "ClusterTopology") -> None:
        """Check every named machine exists in ``topology``."""
        known = {m.name for m in topology.machines}
        for event in self.events:
            if event.machine not in known:
                raise DynamicsError(
                    f"{event.kind} names unknown machine {event.machine!r}; "
                    f"known: {', '.join(sorted(known))}"
                )


# -- preset builders -----------------------------------------------------------
def churn_plan(
    machines: t.Sequence[str],
    *,
    rate: float,
    duration: float,
    seed: int = 0,
    outage_mean: float | None = None,
) -> DynamicPlan:
    """Seeded Poisson churn: machines leave and rejoin at ``rate``.

    ``rate`` is leave events per second over ``[0, duration)``; each
    event picks a machine uniformly and an exponential outage of mean
    ``outage_mean`` (default ``duration / 10``).  ``rate = 0`` returns
    the empty plan.  Equal arguments build equal plans — the events are
    drawn from ``RngStream(seed, "dynamics", "churn")``.
    """
    from repro.util.rng import RngStream

    if not machines:
        raise DynamicsError("churn_plan needs at least one machine name")
    if rate < 0:
        raise DynamicsError(f"churn rate must be >= 0, got {rate!r}")
    if duration <= 0:
        raise DynamicsError(f"duration must be > 0, got {duration!r}")
    if rate == 0:
        return DynamicPlan.empty()
    mean_outage = duration / 10.0 if outage_mean is None else outage_mean
    if mean_outage <= 0:
        raise DynamicsError(f"outage_mean must be > 0, got {mean_outage!r}")
    stream = RngStream(seed, "dynamics", "churn")
    events: list[DynamicSpec] = []
    now = 0.0
    while True:
        now += stream.exponential(1.0 / rate)
        if now >= duration:
            break
        machine = machines[int(stream.uniform() * len(machines)) % len(machines)]
        outage = stream.exponential(mean_outage)
        events.append(MachineLeave(machine=machine, start=now, duration=outage))
    return DynamicPlan(events)
