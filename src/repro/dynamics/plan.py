"""Declarative dynamic-cluster plans.

A :class:`DynamicPlan` generalises the static
:class:`~repro.faults.FaultPlan` timeline into the non-stationary
behaviour production clusters actually exhibit:

* **membership churn** — :class:`MachineLeave` / :class:`MachineJoin`
  events with deterministic membership *epochs* the serving layer
  re-plans against (:mod:`repro.dynamics.epochs`);
* **speed drift** — :class:`SpeedDrift` processes (seeded random-walk
  or piecewise-linear multipliers on a machine's effective ``r_i``);
* **diurnal background load** — :class:`DiurnalLoad` curves reusing
  the serving layer's ``1 + amplitude*sin(2*pi*t/period)`` rate shape
  (:func:`repro.serve.arrivals.diurnal_rate`).

Plans are plain frozen data: they JSON-round-trip exactly like fault
plans, validate against a topology before a run starts, and compile
(:func:`repro.dynamics.compile_plan`) onto the simulator through named
:class:`~repro.util.rng.RngStream`\\ s — so equal plans produce equal
timelines everywhere, and the empty plan compiles to the empty
:class:`~repro.faults.FaultPlan`, which is bit-identical to a
fault-free run.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.errors import DynamicsError
from repro.faults.plan import Windowed, _check_window
from repro.util.codec import SpecList
from repro.util.validation import check_known

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import ClusterTopology

__all__ = [
    "MachineJoin",
    "MachineLeave",
    "SpeedDrift",
    "DiurnalLoad",
    "DynamicPlan",
    "churn_plan",
    "drift_plan",
]

_DRIFT_PROCESSES = ("random_walk", "piecewise_linear")


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


@dataclasses.dataclass(frozen=True)
class SpeedDrift(Windowed):
    """A seeded drift process on ``machine``'s effective slowness.

    Every ``step`` seconds the machine's slowdown multiplier is
    resampled: ``random_walk`` multiplies the previous value by a
    lognormal factor of sigma ``magnitude``; ``piecewise_linear`` draws
    a new target uniformly in ``[floor, ceiling]`` and ramps to it
    (compiled as the segment's midpoint factor).  Multipliers are
    clamped to ``[floor, ceiling]``; the default floor of 1 means a
    machine can only get *slower* than its calibrated ``r_i``, never
    faster than the model's fastest.
    """

    machine: str
    process: str = "random_walk"
    magnitude: float = 0.2
    step: float = 1.0
    floor: float = 1.0
    ceiling: float = 4.0
    start: float = 0.0
    duration: float | None = None

    kind: t.ClassVar[str] = "speed_drift"

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration, error=DynamicsError)
        check_known("drift process", self.process, _DRIFT_PROCESSES, DynamicsError)
        if self.magnitude <= 0:
            raise DynamicsError(f"magnitude must be > 0, got {self.magnitude!r}")
        if self.step <= 0:
            raise DynamicsError(f"step must be > 0, got {self.step!r}")
        if self.floor < 1.0:
            raise DynamicsError(f"floor must be >= 1, got {self.floor!r}")
        if self.ceiling < self.floor:
            raise DynamicsError(
                f"ceiling must be >= floor, got {self.ceiling!r} < {self.floor!r}"
            )


@dataclasses.dataclass(frozen=True)
class DiurnalLoad(Windowed):
    """A diurnal background-load curve on ``machine``.

    The stolen-CPU fraction follows the serving layer's rate shape:
    ``intensity * (1 + amplitude * sin(2*pi*t/period))``, clamped to
    ``(0, 1)``.  Compilation slices the window into piecewise-constant
    segments and emits one :class:`~repro.faults.BackgroundLoad` per
    segment, so the existing hog machinery plays the curve.
    """

    machine: str
    intensity: float = 0.3
    period: float = 60.0
    amplitude: float = 0.5
    burst_mean: float = 0.01
    start: float = 0.0
    duration: float | None = None

    kind: t.ClassVar[str] = "diurnal_load"

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration, error=DynamicsError)
        if not 0.0 < self.intensity < 1.0:
            raise DynamicsError(
                f"intensity must be in (0, 1), got {self.intensity!r}"
            )
        if not 0.0 <= self.amplitude <= 1.0:
            raise DynamicsError(
                f"amplitude must be in [0, 1], got {self.amplitude!r}"
            )
        if self.period <= 0:
            raise DynamicsError(f"period must be > 0, got {self.period!r}")
        if self.burst_mean <= 0:
            raise DynamicsError(f"burst_mean must be > 0, got {self.burst_mean!r}")


#: Every concrete dynamic event type.
DynamicSpec = t.Union[MachineJoin, MachineLeave, SpeedDrift, DiurnalLoad]


@dataclasses.dataclass(frozen=True, init=False, repr=False)
class DynamicPlan(SpecList):
    """An ordered collection of dynamic-cluster events.

    Mirrors :class:`~repro.faults.FaultPlan` (both are a
    :class:`~repro.util.codec.SpecList`): build programmatically, from
    the preset builders (:func:`churn_plan`, :func:`drift_plan`), or
    from JSON (``repro serve --dynamics plan.json``).  The empty plan is
    a guaranteed no-op — it compiles to ``FaultPlan.empty()`` and a
    single all-present membership epoch, so runs carrying it stay
    bit-identical to runs without one.
    """

    events: tuple[DynamicSpec, ...] = ()

    _kinds = t.get_args(DynamicSpec)
    _field = "events"
    _what = "dynamic plan"
    _item = "event"
    _error = DynamicsError

    def machines(self) -> tuple[str, ...]:
        """Every machine the plan names, sorted and deduplicated."""
        return tuple(sorted({event.machine for event in self.events}))

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


def drift_plan(
    machines: t.Sequence[str],
    *,
    magnitude: float = 0.2,
    step: float = 1.0,
    ceiling: float = 4.0,
) -> DynamicPlan:
    """Every named machine random-walks its effective slowness."""
    return DynamicPlan([
        SpeedDrift(machine=name, magnitude=magnitude, step=step, ceiling=ceiling)
        for name in machines
    ])
