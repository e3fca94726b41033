"""Compiling fault plans into simulation behaviour.

An :class:`Injector` is attached to one
:class:`~repro.pvm.VirtualMachine` (a fresh injector per run, like the
runtime itself) and translates the declarative plan into:

* per-machine CPU/NIC slowdown :class:`~repro.faults.timeline.Timeline`\\ s,
  installed as ``time_scale`` hooks on the host resources;
* per-network bandwidth timelines and additive latency windows,
  consulted by :meth:`repro.pvm.Task.send`;
* per-message drop/delay coins drawn from named
  :class:`~repro.util.rng.RngStream`\\ s (bit-reproducible per seed);
* background-load hog processes competing for host CPUs through the
  ordinary FIFO resources.

All scheduled randomness derives from ``derive_seed(seed, "faults",
...)`` streams, so two runs with the same plan and seed are identical.
"""

from __future__ import annotations

import math
import typing as t

from repro.errors import FaultError
from repro.faults.plan import (
    BackgroundLoad,
    FaultPlan,
    LinkDegradation,
    MachinePause,
    MachineSlowdown,
    MessageFaults,
)
from repro.faults.timeline import Timeline, Window
from repro.util.rng import RngStream

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry
    from repro.pvm.vm import Host, VirtualMachine

__all__ = ["Injector"]


class Injector:
    """Deterministic fault injection for one simulated run.

    Parameters
    ----------
    plan:
        The declarative :class:`~repro.faults.FaultPlan` to compile.
    seed:
        Root seed for every stochastic fault decision; two injectors
        with the same plan and seed behave identically.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self.plan = plan
        self.seed = int(seed)
        #: The attached machine's metrics registry (drop/delay counts
        #: live there); ``None`` until :meth:`attach`.
        self.metrics: "MetricsRegistry | None" = None
        self._cpu_timelines: dict[int, Timeline] = {}
        self._nic_timelines: dict[int, Timeline] = {}
        self._link_timelines: dict[str, Timeline] = {}
        self._latency_windows: dict[str, list[LinkDegradation]] = {}
        self._message_rules: list[tuple[MessageFaults, RngStream]] = []
        self._processes: list[t.Any] = []

    # -- attachment -----------------------------------------------------------
    def attach(self, vm: "VirtualMachine") -> None:
        """Compile the plan against ``vm`` and install the hooks.

        Called by :class:`~repro.pvm.VirtualMachine` during
        construction; an injector is single-use.
        """
        if self.metrics is not None:
            raise FaultError(
                "injector already attached; create a fresh Injector per run"
            )
        self.metrics = vm.metrics
        self.plan.validate(vm.topology)
        stream = RngStream(self.seed, "faults")

        cpu_windows: dict[int, list[Window]] = {}
        nic_windows: dict[int, list[Window]] = {}
        link_windows: dict[str, list[Window]] = {}
        for index, fault in enumerate(self.plan):
            if isinstance(fault, MachineSlowdown):
                mid = vm.topology.machine_id(fault.machine)
                cpu_windows.setdefault(mid, []).append(
                    Window(fault.start, fault.end, fault.factor)
                )
            elif isinstance(fault, MachinePause):
                mid = vm.topology.machine_id(fault.machine)
                window = Window(fault.start, fault.end, math.inf)
                cpu_windows.setdefault(mid, []).append(window)
                nic_windows.setdefault(mid, []).append(window)
            elif isinstance(fault, LinkDegradation):
                if fault.gap_factor > 1.0:
                    link_windows.setdefault(fault.network, []).append(
                        Window(fault.start, fault.end, fault.gap_factor)
                    )
                if fault.extra_latency > 0:
                    self._latency_windows.setdefault(fault.network, []).append(fault)
            elif isinstance(fault, MessageFaults):
                self._message_rules.append(
                    (fault, stream.child("messages", index))
                )
            elif isinstance(fault, BackgroundLoad):
                mid = vm.topology.machine_id(fault.machine)
                self._processes.append(
                    vm.engine.process(
                        self._hog(vm.hosts[mid], fault, stream.child("bgload", index)),
                        name=f"bgload:{fault.machine}",
                    )
                )
            self._emit_fault_mark(vm, fault)

        self._cpu_timelines = {m: Timeline(w) for m, w in cpu_windows.items()}
        self._nic_timelines = {m: Timeline(w) for m, w in nic_windows.items()}
        self._link_timelines = {n: Timeline(w) for n, w in link_windows.items()}
        for mid, timeline in self._cpu_timelines.items():
            vm.hosts[mid].cpu.time_scale = timeline.stretch
        for mid, timeline in self._nic_timelines.items():
            vm.hosts[mid].nic_in.time_scale = timeline.stretch
            vm.hosts[mid].nic_out.time_scale = timeline.stretch

    @staticmethod
    def _emit_fault_mark(vm: "VirtualMachine", fault) -> None:
        """Span the fault window (category ``"fault"``) on the track of
        the machine or network it hits; an open-ended fault is a
        zero-length mark at its start."""
        tracer = vm.engine.obs_tracer
        if tracer is None:
            return
        end = getattr(fault, "end", math.inf)
        tracer.add(
            "fault", "fault", group=vm.engine.obs_group,
            actor=getattr(fault, "machine", None) or getattr(fault, "network", None) or "*",
            start=fault.start, end=fault.start if math.isinf(end) else end,
            kind=fault.kind,
        )

    # Drop/delay statistics live in the attached machine's metrics
    # registry (single bookkeeping; exported via repro.obs); these
    # properties keep the original integer-attribute API.
    @property
    def dropped_messages(self) -> int:
        """Messages dropped by this injector so far."""
        if self.metrics is None:
            return 0
        return int(self.metrics.value("repro_messages_dropped_total"))

    @property
    def delayed_messages(self) -> int:
        """Messages delayed by this injector so far."""
        if self.metrics is None:
            return 0
        return int(self.metrics.value("repro_messages_delayed_total"))

    def shutdown(self) -> None:
        """Kill any still-running background processes (end of run)."""
        for process in self._processes:
            process.kill()

    # -- queries used by the PVM layer ----------------------------------------
    def transfer_time(self, network_name: str, start: float, nominal: float) -> float:
        """Actual NIC transfer duration under link congestion windows."""
        timeline = self._link_timelines.get(network_name)
        if timeline is None:
            return nominal
        return timeline.stretch(start, nominal)

    def extra_latency(self, network_name: str, now: float) -> float:
        """Additional one-way wire latency active on ``network_name`` now."""
        extra = 0.0
        for fault in self._latency_windows.get(network_name, ()):
            if fault.start <= now < fault.end:
                extra += fault.extra_latency
        return extra

    def message_fate(self, network_name: str, now: float) -> tuple[bool, float]:
        """Decide one message's fate: ``(dropped, extra_delay_seconds)``.

        Applies every matching :class:`MessageFaults` rule in plan
        order; the first drop wins, delays accumulate.
        """
        delay = 0.0
        for rule, stream in self._message_rules:
            if rule.network is not None and rule.network != network_name:
                continue
            if not rule.start <= now < rule.end:
                continue
            if rule.drop_prob > 0 and stream.uniform() < rule.drop_prob:
                self.metrics.inc("repro_messages_dropped_total")
                return True, 0.0
            if rule.delay_prob > 0 and stream.uniform() < rule.delay_prob:
                delay += stream.exponential(rule.delay_mean)
        if delay > 0:
            self.metrics.inc("repro_messages_delayed_total")
        return False, delay

    # -- background load --------------------------------------------------------
    def _hog(
        self, host: "Host", spec: BackgroundLoad, stream: RngStream
    ) -> t.Generator:
        """On/off CPU hog competing through the host's FIFO CPU resource."""
        engine = host.cpu.engine
        if spec.start > 0:
            yield engine.timeout(spec.start)
        while engine.now < spec.end:
            busy = stream.exponential(spec.burst_mean * spec.intensity)
            idle = stream.exponential(spec.burst_mean * (1.0 - spec.intensity))
            busy = min(busy, spec.end - engine.now)
            if busy > 0:
                yield host.cpu.request()
                try:
                    yield engine.timeout(busy)
                finally:
                    host.cpu.release()
            if engine.now >= spec.end:
                break
            yield engine.timeout(min(idle, spec.end - engine.now))

    def __repr__(self) -> str:
        state = "attached" if self.metrics is not None else "unattached"
        return f"Injector({self.plan!r}, seed={self.seed}, {state})"
