"""Declarative fault plans.

A :class:`FaultPlan` is a list of fault specifications — machine
slowdowns and pauses, link degradations, stochastic message faults,
and stochastic background CPU load — that the
:class:`~repro.faults.Injector` compiles against a concrete cluster.
Plans are plain data: they serialise to JSON (``repro run --faults
plan.json``) and validate against a topology before a run starts.

Durations of ``None`` mean "until the end of the run" where that is
well-defined (slowdowns, degradations, message faults); pauses and
background load must end so simulations terminate.
"""

from __future__ import annotations

import dataclasses
import math
import typing as t

from repro.errors import FaultPlanError
from repro.util.codec import SpecList

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import ClusterTopology

__all__ = [
    "MachineSlowdown",
    "MachinePause",
    "LinkDegradation",
    "MessageFaults",
    "BackgroundLoad",
    "FaultPlan",
    "straggler_plan",
    "congestion_plan",
    "flaky_network_plan",
]


def _check_window(
    start: float,
    duration: float | None,
    *,
    finite: bool = False,
    error: type[Exception] = FaultPlanError,
) -> None:
    if start < 0:
        raise error(f"start must be >= 0, got {start!r}")
    if duration is not None and duration <= 0:
        raise error(f"duration must be > 0, got {duration!r}")
    if finite and duration is None:
        raise error("this fault kind requires a finite duration")


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise FaultPlanError(f"{name} must be in [0, 1], got {value!r}")


def _end(start: float, duration: float | None) -> float:
    return math.inf if duration is None else start + duration


class Windowed:
    """A spec active over ``[start, start + duration)``."""

    start: float
    duration: float | None

    @property
    def end(self) -> float:
        """When the window closes (``inf`` for one that never does)."""
        return _end(self.start, self.duration)


@dataclasses.dataclass(frozen=True)
class MachineSlowdown(Windowed):
    """CPU contention: work on ``machine`` takes ``factor`` times longer.

    Models a non-dedicated workstation picking up interactive load —
    compute, pack, and unpack charges all stretch inside the window.
    """

    machine: str
    factor: float
    start: float = 0.0
    duration: float | None = None

    kind: t.ClassVar[str] = "machine_slowdown"

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        if self.factor <= 0:
            raise FaultPlanError(f"slowdown factor must be > 0, got {self.factor!r}")


@dataclasses.dataclass(frozen=True)
class MachinePause(Windowed):
    """A crash-restart window: ``machine`` makes no progress at all.

    CPU and NIC work freezes for the duration; in-flight messages to
    the machine wait at its NIC.  The window must end — a machine that
    never restarts would deadlock its communication partners.
    """

    machine: str
    start: float
    duration: float

    kind: t.ClassVar[str] = "machine_pause"

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration, finite=True)


@dataclasses.dataclass(frozen=True)
class LinkDegradation(Windowed):
    """Congestion on one network: less bandwidth, more latency.

    Transfers crossing ``network`` inside the window take
    ``gap_factor`` times longer and every message pays
    ``extra_latency`` additional one-way seconds.
    """

    network: str
    gap_factor: float = 1.0
    extra_latency: float = 0.0
    start: float = 0.0
    duration: float | None = None

    kind: t.ClassVar[str] = "link_degradation"

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        if self.gap_factor < 1.0:
            raise FaultPlanError(
                f"gap_factor must be >= 1, got {self.gap_factor!r}"
            )
        if self.extra_latency < 0:
            raise FaultPlanError(
                f"extra_latency must be >= 0, got {self.extra_latency!r}"
            )


@dataclasses.dataclass(frozen=True)
class MessageFaults(Windowed):
    """Stochastic per-message faults on a network (or everywhere).

    Each message crossing ``network`` (``None`` matches every network)
    inside the window is independently dropped with ``drop_prob`` or
    delayed with ``delay_prob`` by an exponential extra delay of mean
    ``delay_mean`` seconds.  Coins come from a named RNG stream of the
    injector seed, so runs are reproducible.
    """

    network: str | None = None
    drop_prob: float = 0.0
    delay_prob: float = 0.0
    delay_mean: float = 0.0
    start: float = 0.0
    duration: float | None = None

    kind: t.ClassVar[str] = "message_faults"

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        _check_prob("drop_prob", self.drop_prob)
        _check_prob("delay_prob", self.delay_prob)
        if self.delay_mean < 0:
            raise FaultPlanError(f"delay_mean must be >= 0, got {self.delay_mean!r}")
        if self.delay_prob > 0 and self.delay_mean <= 0:
            raise FaultPlanError("delay_prob > 0 requires delay_mean > 0")


@dataclasses.dataclass(frozen=True)
class BackgroundLoad(Windowed):
    """Stochastic CPU hog on ``machine``: bursts of stolen CPU time.

    An on/off process competes for the machine's CPU through the normal
    FIFO resource: busy bursts of mean ``burst_mean * intensity``
    seconds alternate with idle gaps of mean
    ``burst_mean * (1 - intensity)`` seconds, so ``intensity`` is the
    long-run fraction of CPU stolen.  Must end so runs terminate.
    """

    machine: str
    intensity: float
    start: float
    duration: float
    burst_mean: float = 0.01

    kind: t.ClassVar[str] = "background_load"

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration, finite=True)
        if not 0.0 < self.intensity < 1.0:
            raise FaultPlanError(
                f"intensity must be in (0, 1), got {self.intensity!r}"
            )
        if self.burst_mean <= 0:
            raise FaultPlanError(f"burst_mean must be > 0, got {self.burst_mean!r}")


#: Every concrete fault specification type.
FaultSpec = t.Union[
    MachineSlowdown, MachinePause, LinkDegradation, MessageFaults, BackgroundLoad
]


@dataclasses.dataclass(frozen=True, init=False, repr=False)
class FaultPlan(SpecList):
    """An ordered collection of fault specifications.

    Build programmatically (``FaultPlan([MachineSlowdown(...), ...])``),
    from the preset builders (:func:`straggler_plan`,
    :func:`congestion_plan`, :func:`flaky_network_plan`), or from JSON
    (:meth:`from_json` / :meth:`from_file`, ``repro run --faults
    plan.json``).  The container itself — construction, iteration,
    ``extended``, every serialisation method — is
    :class:`~repro.util.codec.SpecList`.
    """

    faults: tuple[FaultSpec, ...] = ()

    _kinds = t.get_args(FaultSpec)
    _field = "faults"
    _what = "fault plan"
    _item = "fault"
    _error = FaultPlanError

    def validate(self, topology: "ClusterTopology") -> None:
        """Check every named machine/network exists in ``topology``."""
        machine_names = {m.name for m in topology.machines}
        network_names = {c.network.name for c in topology.clusters}
        for fault in self.faults:
            machine = getattr(fault, "machine", None)
            if machine is not None and machine not in machine_names:
                raise FaultPlanError(
                    f"{fault.kind} names unknown machine {machine!r}; "
                    f"known: {', '.join(sorted(machine_names))}"
                )
            network = getattr(fault, "network", None)
            if network is not None and network not in network_names:
                raise FaultPlanError(
                    f"{fault.kind} names unknown network {network!r}; "
                    f"known: {', '.join(sorted(network_names))}"
                )


# -- preset builders -----------------------------------------------------------
def straggler_plan(
    machine: str,
    *,
    factor: float = 4.0,
    start: float = 0.0,
    duration: float | None = None,
) -> FaultPlan:
    """One machine runs ``factor`` times slower — the classic straggler."""
    return FaultPlan([
        MachineSlowdown(machine=machine, factor=factor, start=start, duration=duration)
    ])


def congestion_plan(
    network: str,
    *,
    gap_factor: float = 3.0,
    extra_latency: float = 2e-3,
    start: float = 0.0,
    duration: float | None = None,
) -> FaultPlan:
    """One network loses bandwidth and gains latency — rush-hour Ethernet."""
    return FaultPlan([
        LinkDegradation(
            network=network,
            gap_factor=gap_factor,
            extra_latency=extra_latency,
            start=start,
            duration=duration,
        )
    ])


def flaky_network_plan(
    network: str | None = None,
    *,
    drop_prob: float = 0.02,
    delay_prob: float = 0.05,
    delay_mean: float = 5e-3,
    start: float = 0.0,
    duration: float | None = None,
) -> FaultPlan:
    """Messages randomly dropped/delayed — lossy, jittery links.

    Pair with ``DeliveryPolicy.retry(...)`` unless losing messages is
    the point of the experiment.
    """
    return FaultPlan([
        MessageFaults(
            network=network,
            drop_prob=drop_prob,
            delay_prob=delay_prob,
            delay_mean=delay_mean,
            start=start,
            duration=duration,
        )
    ])
