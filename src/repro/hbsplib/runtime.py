"""The HBSPlib runtime: program execution over the PVM substrate.

:class:`HbspRuntime` owns the simulated machine (a
:class:`~repro.pvm.VirtualMachine` over the cluster topology), one
barrier per cluster node of the HBSP tree (charging that cluster's
``L_{i,j}``), and the speed/fraction tables derived from benchmark
scores.  :meth:`HbspRuntime.run` runs the program once per level-0
machine (a DES process each, or a party the macro engine drives) and
returns an :class:`HbspResult` with per-pid return values
and the simulated makespan.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.bytemark.ranking import fractions_from_scores, ranking_from_scores
from repro.bytemark.suite import true_scores
from repro.cluster.topology import ClusterTopology
from repro.errors import HbspError
from repro.hbsplib.context import HbspContext
from repro.hbsplib.hetero import equal_partition, proportional_partition
from repro.model.params import HBSPParams, calibrate
from repro.model.tree import HBSPNode, HBSPTree
from repro.pvm.vm import VirtualMachine
from repro.sim.barrier import Barrier
from repro.util.lifetime import Released, gc_paused

__all__ = ["HbspResult", "HbspRuntime"]

#: An HBSP program: a generator function of (ctx, *args, **kwargs).
Program = t.Callable[..., t.Generator]


@dataclasses.dataclass
class HbspResult:
    """Outcome of one HBSP program execution.

    Attributes
    ----------
    values:
        Per-pid return values of the program.
    time:
        Simulated makespan in virtual seconds (the experiment metric —
        the paper's ``T_A``/``T_B``).
    supersteps:
        Largest number of synchronisations performed by any process.
    """

    values: dict[int, t.Any]
    time: float
    supersteps: int

    def __repr__(self) -> str:
        return (
            f"HbspResult(time={self.time:.6g}, supersteps={self.supersteps}, "
            f"pids={len(self.values)})"
        )


class HbspRuntime:
    """Executes HBSP programs on a simulated heterogeneous machine.

    Parameters
    ----------
    topology:
        The cluster to run on (normalised internally; pids are the
        machine indices of the normalised topology, which preserve the
        original declaration order).
    scores:
        Benchmark scores per machine name, used for ranks and the
        ``c_j`` fractions.  Defaults to the machines' true speeds;
        pass :func:`repro.bytemark.simulate_scores` output for the
        paper's noisy-measurement setting.
    injector:
        Optional fresh :class:`~repro.faults.Injector` attaching a
        fault plan (slowdowns, pauses, link degradation, message
        faults, background load) to the simulated machine.
    delivery:
        Default :class:`~repro.pvm.DeliveryPolicy` for every send —
        per-send timeout with bounded exponential-backoff retries, or
        explicit at-most-once.  ``None`` keeps the classic
        fire-and-forget fast path.
    macro:
        Macro-event fast path selection (:mod:`repro.sim.macro`).
        ``None`` (default) auto-engages it for fault-free runs of any
        program outside span tracing — the result is bit-identical, only
        faster.  ``False`` forces the object-event path, which a
        program that parks on raw ``ctx.task`` events needs; ``True``
        insists on the macro path and raises if the machine cannot
        take it.

    A fresh runtime (with a fresh virtual clock) should be used per
    measured program run; :meth:`run` enforces this.
    """

    @gc_paused()
    def __init__(
        self,
        topology: ClusterTopology,
        *,
        scores: t.Mapping[str, float] | None = None,
        serialize_nic: bool = True,
        injector: t.Any | None = None,
        delivery: t.Any | None = None,
        macro: bool | None = None,
    ) -> None:
        self.tree = HBSPTree(topology)
        self.topology = self.tree.topology  # normalised
        self.vm = VirtualMachine(
            self.topology, serialize_nic=serialize_nic,
            injector=injector, delivery=delivery,
        )
        self.engine = self.vm.engine
        #: The span tracer and group the machine picked up from an
        #: active ``observe(spans=True)`` (``None``/``""`` otherwise).
        self.obs_tracer: t.Any | None = self.engine.obs_tracer
        self.obs_group = self.engine.obs_group
        self.scores = dict(scores) if scores is not None else true_scores(self.topology)
        missing = [m.name for m in self.topology.machines if m.name not in self.scores]
        if missing:
            raise HbspError(f"scores missing for machines: {missing}")
        self.params: HBSPParams = calibrate(
            self.tree.source, scores=self.scores, tree=self.tree
        )
        self.nprocs = self.topology.num_machines

        name_ranking = ranking_from_scores(self.scores)
        self._rank = {
            self.topology.machine_id(name): rank
            for rank, name in enumerate(name_ranking)
        }
        #: ``P_f`` and ``P_s``: the rank table is static, so once here.
        self.fastest_pid = min(self._rank, key=self._rank.__getitem__)
        self.slowest_pid = max(self._rank, key=self._rank.__getitem__)
        fractions = fractions_from_scores(self.scores)
        self._fractions = [
            fractions[m.name] for m in self.topology.machines
        ]

        # One barrier per cluster node; parties = processors in the
        # subtree (every member arrives, the cost charged is L_{i,j}).
        self._barriers: dict[tuple[int, int], Barrier] = {}
        self._node_of_barrier: dict[tuple[int, int], HBSPNode] = {}
        #: (pid, level) -> ancestor node / barrier, for O(1) lookups on
        #: the per-superstep hot path (clusters are static per runtime).
        self._ancestor_of: dict[tuple[int, int], HBSPNode] = {}
        self._barrier_of: dict[tuple[int, int], Barrier] = {}
        self._schedule_cache: dict[t.Any, t.Any] = {}
        for node in self.tree.walk():
            if node.level >= 1:
                key = (node.level, node.index)
                barrier = Barrier(
                    self.engine,
                    parties=len(node.members),
                    cost=self.params.L_of(*key),
                    name=f"L{key}",
                )
                self._barriers[key] = barrier
                self._node_of_barrier[key] = node
                for pid in node.members:
                    self._ancestor_of[(pid, node.level)] = node
                    self._barrier_of[(pid, node.level)] = barrier

        self._contexts: list[HbspContext] = []
        self._pid_of_tid: dict[int, int] = {}
        self._ran = False
        self._macro_mode = macro
        #: ``("macro", "")`` or ``("object", reason)`` once :meth:`run`
        #: has chosen the execution path; ``None`` before.
        self.engine_path: tuple[str, str] | None = None
        #: The live MacroEngine while a macro-path run executes
        #: (contexts dispatch on this); ``None`` on the object path.
        self.macro: t.Any | None = None

    # -- lookup tables used by contexts -------------------------------------------
    def rank_of(self, pid: int) -> int:
        """Speed rank of ``pid`` (0 = fastest)."""
        return self._rank[pid]

    def fraction_of(self, pid: int) -> float:
        """Workload fraction ``c_{0,pid}``."""
        return self._fractions[pid]

    def partition(self, n: int, *, balanced: bool = True) -> list[int]:
        """Item counts per pid: proportional (balanced) or equal."""
        if balanced:
            return proportional_partition(n, self._fractions)
        return equal_partition(n, self.nprocs)

    def tid_of(self, pid: int) -> int:
        """PVM task id of process ``pid``."""
        return self._contexts[pid].task.tid

    def pid_of(self, tid: int) -> int:
        """Process id of PVM task ``tid``."""
        try:
            return self._pid_of_tid[tid]
        except KeyError:
            raise HbspError(f"no process with tid {tid}") from None

    def barrier_for(self, pid: int, level: int | None) -> Barrier:
        """The barrier of ``pid``'s ancestor cluster at ``level``.

        ``level=None`` means the root (a global synchronisation).
        """
        if level is None:
            level = self.tree.k
        if not 1 <= level <= self.tree.k:
            raise HbspError(f"sync level must be in [1, {self.tree.k}], got {level}")
        barrier = self._barrier_of.get((pid, level))
        if barrier is None:
            raise HbspError(f"pid {pid} has no level-{level} ancestor cluster")
        return barrier

    def superstep_marks(
        self,
    ) -> tuple[tuple[tuple[float, float, int, int, int, int], ...], ...]:
        """Per-pid cumulative superstep marks (always recorded).

        ``marks[pid][s]`` is ``(end_time, barrier_wait, sent_msgs,
        sent_bytes, recv_msgs, recv_bytes)`` at pid's s-th sync — the
        raw material for :mod:`repro.obs.accounting`.
        """
        return tuple(tuple(ctx._step_marks) for ctx in self._contexts)

    def coordinator_pid(self, pid: int, level: int) -> int:
        """Coordinator of ``pid``'s ancestor cluster at ``level``."""
        if level == 0:
            return pid
        node = self._ancestor(pid, level)
        return node.coordinator

    def cluster_members(self, pid: int, level: int) -> tuple[int, ...]:
        """Members of ``pid``'s ancestor cluster at ``level``."""
        if level == 0:
            return (pid,)
        return self._ancestor(pid, level).members

    def _ancestor(self, pid: int, level: int) -> HBSPNode:
        node = self._ancestor_of.get((pid, level))
        if node is None:
            raise HbspError(f"pid {pid} has no level-{level} ancestor")
        return node

    # -- execution ---------------------------------------------------------------------
    def _choose_path(self) -> tuple[str, str]:
        """Decide the execution path for this run (see the ``macro``
        constructor parameter and :attr:`engine_path`)."""
        if self._macro_mode is False:
            return ("object", "macro=False")
        hook = self.vm.macro_blocker
        if hook:
            if self._macro_mode:
                raise HbspError(
                    "macro=True needs a fault-free, untraced machine, and "
                    f"this one has a live hook: {hook}"
                )
            return ("object", hook)
        return ("macro", "")

    @gc_paused()
    def run(self, program: Program, *args: t.Any, **kwargs: t.Any) -> HbspResult:
        """Execute ``program`` on every processor and simulate to completion.

        ``program(ctx, *args, **kwargs)`` runs once per pid.  A call
        refused before anything ran (a ``macro=True`` runtime with a
        live hook) leaves the runtime unused.

        A run that finishes releases the contexts' and the macro engine's
        reference to this runtime (docs/simulator.md §4); one that raises
        leaves the world intact.
        """
        if self._ran:
            raise HbspError(
                "this runtime already executed a program; create a fresh "
                "HbspRuntime per measured run (the virtual clock is not reset)"
            )
        self.engine_path = self._choose_path()
        self._ran = True
        on_macro = self.engine_path[0] == "macro"

        def wrapper(task, pid: int):  # the object path's process body
            ctx = self._contexts[pid]
            value = yield from program(ctx, *args, **kwargs)
            ctx._finished = True
            return value

        # Create contexts first (tid_of needs them all before any send).
        # The object path starts one DES process per pid; the macro
        # engine drives the program generators itself.
        machines = self.topology.machines
        for pid in range(self.nprocs):
            name = f"pid{pid}@{machines[pid].name}"
            if on_macro:
                task = self.vm._new_task(pid, name)
            else:
                task = self.vm.spawn(wrapper, pid, pid, name=name)
            self._contexts.append(HbspContext(self, task, pid))
            self._pid_of_tid[task.tid] = pid

        if on_macro:
            from repro.sim.macro import MacroEngine

            self.macro = MacroEngine(self, [
                program(ctx, *args, **kwargs) for ctx in self._contexts
            ])

        time = self.vm.run()
        if self.macro is not None:
            values = self.macro.values
        else:
            values = {
                pid: ctx.task.process.value for pid, ctx in enumerate(self._contexts)
            }
        supersteps = max((ctx.superstep for ctx in self._contexts), default=0)
        released = Released(HbspError, "the runtime of a finished run")
        for ctx in self._contexts:
            ctx.runtime = released
        if self.macro is not None:
            self.macro.runtime = released
        return HbspResult(values=values, time=time, supersteps=supersteps)
