"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "SimulationError",
    "DeadlockError",
    "TopologyError",
    "RoutingError",
    "PvmError",
    "TaskNotFound",
    "FaultError",
    "FaultPlanError",
    "TimeoutError",
    "HbspError",
    "SuperstepError",
    "PartitionError",
    "ModelError",
    "CalibrationError",
    "DiscoveryError",
    "CollectiveError",
    "ExperimentError",
    "ServeError",
    "DynamicsError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ValidationError(ReproError, ValueError):
    """A user-supplied parameter failed validation.

    Also derives from :class:`ValueError` so idiomatic call sites that
    expect ``ValueError`` for bad arguments keep working.
    """


class SimulationError(ReproError):
    """The discrete-event simulation engine entered an invalid state."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still blocked.

    Raised by :meth:`repro.sim.Engine.run` when at least one live process
    is waiting on an event that can never be triggered — typically a
    receive without a matching send, or a barrier that a member never
    reached.
    """

    def __init__(self, message: str, blocked: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        #: Human-readable descriptions of the blocked processes.
        self.blocked = blocked


class TopologyError(ReproError):
    """A cluster topology is structurally invalid."""


class RoutingError(TopologyError):
    """No route exists between two machines of a topology."""


class PvmError(ReproError):
    """Base class for errors from the PVM-like runtime."""


class TaskNotFound(PvmError, KeyError):
    """A task id (tid) does not name a live task in the virtual machine."""


class FaultError(PvmError):
    """Base class for errors caused by injected faults.

    Raised by the fault-injection subsystem (:mod:`repro.faults`) and by
    the runtime robustness machinery built on top of it.
    """


class FaultPlanError(FaultError, ValueError):
    """A declarative fault plan is malformed or names unknown entities."""


class TimeoutError(FaultError):  # noqa: A001 - deliberate shadow, scoped to repro.errors
    """A send exceeded its delivery timeout after exhausting all retries.

    Carries the endpoints and the attempt count so programs can react
    (e.g. re-route around a crashed machine).
    """

    def __init__(self, message: str, *, src: int | None = None,
                 dst: int | None = None, attempts: int = 0) -> None:
        super().__init__(message)
        #: Task ids of the endpoints, when known.
        self.src = src
        self.dst = dst
        #: Number of delivery attempts made (1 + retries).
        self.attempts = attempts


class HbspError(ReproError):
    """Base class for errors from the HBSPlib programming layer."""


class SuperstepError(HbspError):
    """A program violated superstep semantics.

    Examples: sending to a pid outside the process group, calling a
    context method after the program finished, or reading messages that
    belong to a future superstep.
    """


class PartitionError(HbspError, ValueError):
    """A workload partition does not conserve the problem size."""


class ModelError(ReproError):
    """Base class for errors from the HBSP^k cost model."""


class CalibrationError(ModelError):
    """Model parameters could not be derived from a cluster topology."""


class DiscoveryError(ModelError):
    """A cluster hierarchy could not be inferred from probe data.

    Raised by :mod:`repro.cluster.discover` when a probe matrix is
    malformed (non-square, negative entries) or when inference produces
    an inconsistent partition stack.
    """


class CollectiveError(ReproError):
    """A collective operation was invoked with inconsistent arguments."""


class ExperimentError(ReproError):
    """An experiment sweep was configured inconsistently."""


class ServeError(ReproError):
    """A serving-session configuration is malformed or inconsistent.

    Raised by :mod:`repro.serve` for invalid :class:`ServiceConfig`
    documents (unknown stage ops, non-positive rates, bad policy knobs)
    and for cluster specs that cannot host the configured placement.
    """


class DynamicsError(ReproError, ValueError):
    """A dynamic-cluster plan is malformed or names unknown entities.

    Raised by :mod:`repro.dynamics` for invalid :class:`DynamicPlan`
    documents (unknown event kinds, bad windows) and for plans that
    reference machines absent from the target topology.
    """
