"""The virtual machine: hosts, task spawning, and routing.

:class:`VirtualMachine` plays the role of the PVM daemon layer: it
"allows a heterogeneous network of parallel and serial computers to
appear as a single, concurrent, computational resource" [18] — here on
simulated time.
"""

from __future__ import annotations

import typing as t

from repro.cluster.network import NetworkSpec
from repro.cluster.topology import ClusterTopology
from repro.errors import PvmError, TaskNotFound
from repro.obs.metrics import MetricsRegistry
from repro.obs.observe import current_observation
from repro.pvm.delivery import DeliveryPolicy
from repro.pvm.task import Task
from repro.sim.engine import Engine
from repro.sim.resources import Resource
from repro.util.lifetime import Released

__all__ = ["Host", "VirtualMachine"]


class Host:
    """One machine of the virtual machine: CPU + NIC ports.

    The CPU is a unit resource shared by all tasks on the host (and by
    pack/unpack charges).  The NIC has independent in/out ports, each a
    unit resource — concurrent transfers through one port serialise.
    """

    def __init__(self, vm: "VirtualMachine", machine_id: int) -> None:
        self.machine_id = machine_id
        self.spec = vm.topology.machines[machine_id]
        name = self.spec.name
        # With NIC serialization disabled (an ablation), ports behave as
        # if they had unlimited parallel channels.
        port_capacity = 1 if vm.serialize_nic else 1_000_000
        self.cpu = Resource(vm.engine, capacity=1, name=f"{name}.cpu")
        self.nic_in = Resource(vm.engine, capacity=port_capacity, name=f"{name}.nic_in")
        self.nic_out = Resource(vm.engine, capacity=port_capacity, name=f"{name}.nic_out")

    def __repr__(self) -> str:
        return f"<Host {self.spec.name}>"


class VirtualMachine:
    """A simulated PVM session over a cluster topology.

    Parameters
    ----------
    topology:
        The heterogeneous cluster to enrol.
    engine:
        Optionally share an existing simulation engine.
    injector:
        Optional fresh :class:`~repro.faults.Injector`; attaches its
        fault plan (time-varying rates, message drops/delays,
        background load) to this machine.
    delivery:
        Default :class:`~repro.pvm.DeliveryPolicy` for every send
        (``None`` = the classic fire-and-forget fast path).
    """

    def __init__(
        self,
        topology: ClusterTopology,
        *,
        engine: Engine | None = None,
        serialize_nic: bool = True,
        injector: "t.Any | None" = None,
        delivery: "DeliveryPolicy | None" = None,
    ) -> None:
        self.topology = topology
        self.engine = engine if engine is not None else Engine()
        # Under observe(spans=True) every emission site records its span
        # live in a fresh group; the simulated times are unaffected.
        observation = current_observation()
        if observation is not None and observation.tracer.enabled:
            self.engine.obs_tracer = observation.tracer
            self.engine.obs_group = observation.take_group()
        #: Per-run metrics (messages/bytes by network, fault counters);
        #: harvested into RunObs records by the observability layer.
        self.metrics = MetricsRegistry()
        #: When False (ablation), concurrent transfers through one NIC
        #: port do not contend — see experiments.ablations.
        self.serialize_nic = serialize_nic
        self.hosts = [Host(self, mid) for mid in range(topology.num_machines)]
        self._tasks: dict[int, Task] = {}
        self._next_tid = 1  # PVM tids start above 0
        self.delivery = delivery
        self.injector = injector
        self._next_uid = 0
        #: Retransmit loops of reliable sends whose timer expired; killed
        #: at run end.
        self._fault_processes: list[t.Any] = []
        if injector is not None:
            injector.attach(self)

    # -- tasks -------------------------------------------------------------------
    def spawn(
        self,
        func: t.Callable[..., t.Generator],
        host: int | str,
        *args: t.Any,
        name: str = "",
        **kwargs: t.Any,
    ) -> Task:
        """Start ``func(task, *args, **kwargs)`` as a task on ``host``.

        ``func`` must be a generator function taking the new
        :class:`Task` as its first argument.  Returns the task; its
        ``process`` attribute is the joinable process event.
        """
        task = self._new_task(host, name)
        generator = func(task, *args, **kwargs)
        if not hasattr(generator, "send"):
            del self._tasks[task.tid]
            raise PvmError(
                f"spawned function {func!r} must be a generator function "
                "(use 'yield from task.send(...)' etc.)"
            )
        task.process = self.engine.process(generator, name=task.name)
        return task

    def _new_task(self, host: int | str, name: str = "") -> Task:
        """Create and enrol a task on ``host`` without starting a
        process for it (the macro engine drives its programs itself)."""
        machine_id = host if isinstance(host, int) else self.topology.machine_id(host)
        if not 0 <= machine_id < len(self.hosts):
            raise PvmError(f"no host with machine id {machine_id}")
        host_obj = self.hosts[machine_id]
        tid = self._next_tid
        self._next_tid += 1
        task = self._tasks[tid] = Task(
            self, tid, host_obj, name or f"task{tid}@{host_obj.spec.name}"
        )
        return task

    def task(self, tid: int) -> Task:
        """Look up a live task by tid."""
        try:
            return self._tasks[tid]
        except KeyError:
            raise TaskNotFound(tid) from None

    @property
    def tids(self) -> tuple[int, ...]:
        """All spawned task ids, in spawn order."""
        return tuple(self._tasks)

    # -- routing --------------------------------------------------------------------
    def route(self, src: Host, dst: Host) -> tuple[NetworkSpec, int]:
        """Network (and level) crossed between two hosts."""
        if src is dst:
            raise PvmError("route() called for a self-send")  # handled in Task.send
        return self.topology.route(src.machine_id, dst.machine_id)

    # -- execution --------------------------------------------------------------------
    @property
    def macro_blocker(self) -> str:
        """The live hook that keeps the macro-event fast path off this
        machine (``""`` when it may drive it).

        The macro engine (:mod:`repro.sim.macro`) batch-computes
        fault-free superstep timing arithmetically, so every hook that
        observes or perturbs individual message events must be off: no
        fault injector, no delivery policy (even an unarmed one routes
        through :meth:`run`'s clock-stop semantics), no span tracer,
        and NIC serialization on (the timeline fold models the
        serialized port).
        """
        if self.injector is not None:
            return "injector"
        if self.delivery is not None:
            return "delivery policy"
        if self.engine.obs_tracer is not None:
            return "spans"
        return "" if self.serialize_nic else "serialize_nic=False"

    @property
    def macro_capable(self) -> bool:
        """True when the macro-event fast path may drive this machine."""
        return not self.macro_blocker

    def take_uid(self) -> int:
        """Next unique message id (for receiver-side duplicate suppression)."""
        self._next_uid += 1
        return self._next_uid

    def run(self, until: float | None = None) -> float:
        """Run the simulation; returns the final virtual time.

        Raises :class:`~repro.errors.DeadlockError` if tasks block
        forever (e.g. a receive nobody answers).

        With an injector or a delivery policy active, the clock stops
        when every task has finished instead of when the queue drains —
        background-load hogs and armed retry timers must not inflate
        the measured makespan — and leftover fault processes are killed.

        A run to completion (no ``until``) releases what points up or
        sideways in the machine, leaving a tree that reference counting
        frees (docs/simulator.md §4); one that raises is left intact.
        """
        if self.injector is None and self.delivery is None:
            time = self.engine.run(until=until)
        else:
            targets = [t.process for t in self._tasks.values() if t.process is not None]
            time = self.engine.run_until(targets, until=until)
            for process in self._fault_processes:
                process.kill()
            if self.injector is not None:
                self.injector.shutdown()
        if until is None:
            self.engine.discard_pending()  # dead retry and background timers
            released = Released(PvmError, "the virtual machine of a finished task")
            for task in self._tasks.values():
                task.vm = released
                task._links.clear()
        return time

    def results(self) -> dict[int, t.Any]:
        """Return values of all finished tasks, keyed by tid."""
        out: dict[int, t.Any] = {}
        for tid, task in self._tasks.items():
            if task.process is not None and task.process.triggered and task.process.ok:
                out[tid] = task.process.value
        return out

    def __repr__(self) -> str:
        return (
            f"VirtualMachine({self.topology!r}, {len(self._tasks)} tasks, "
            f"t={self.engine.now:.6g})"
        )
