"""Integration tests: injected faults change simulated runs, deterministically."""

import pytest

from repro.cluster import ucf_testbed
from repro.collectives import run_broadcast, run_gather
from repro.errors import FaultError
from repro.faults import (
    BackgroundLoad,
    FaultPlan,
    Injector,
    MachinePause,
    MachineSlowdown,
    congestion_plan,
    straggler_plan,
)
from repro.obs import observe

N = 2560  # 10 KB of int32 items: fast but non-trivial


@pytest.fixture
def topology():
    return ucf_testbed(4)


def root_machine(topology):
    """The fastest machine hosts the default root and stays busy all run."""
    return topology.machines[0].name


class TestAttachment:
    def test_injector_is_single_use(self, topology):
        injector = Injector(straggler_plan(root_machine(topology)), seed=0)
        run_gather(topology, N)  # unrelated run, fresh runtime
        from repro.hbsplib import HbspRuntime

        HbspRuntime(topology, injector=injector)
        with pytest.raises(FaultError, match="already attached"):
            HbspRuntime(topology, injector=injector)

    def test_plan_validated_at_attach(self, topology):
        with pytest.raises(FaultError):
            run_gather(topology, N, faults=straggler_plan("no-such-machine"))

    def test_fault_marks_traced(self, topology):
        with observe(spans=True) as observation:
            run_gather(topology, N, faults=straggler_plan(root_machine(topology), factor=2.0))
        marks = observation.tracer.filter("fault")
        assert len(marks) == 1
        assert marks[0].args["kind"] == "machine_slowdown"
        assert marks[0].actor == root_machine(topology)

    def test_fault_spans_cover_their_window(self, topology):
        """A windowed fault spans [start, end) on its machine's track; an
        open-ended one is a zero-length mark at its start."""
        machine = topology.machines[1].name
        plan = FaultPlan([
            MachinePause(machine, start=0.002, duration=0.001),
            MachineSlowdown(root_machine(topology), factor=2.0, start=0.001),
        ])
        with observe(spans=True) as observation:
            run_gather(topology, N, faults=plan)
        pause, slowdown = observation.tracer.filter("fault")
        assert (pause.actor, pause.start, pause.end) == (machine, 0.002, 0.003)
        assert pause.args == {"kind": "machine_pause"}
        assert (slowdown.actor, slowdown.start, slowdown.end) == (
            root_machine(topology), 0.001, 0.001
        )


class TestEffects:
    def test_straggler_slows_the_run(self, topology):
        base = run_gather(topology, N, seed=1).time
        slow = run_gather(
            topology, N, seed=1,
            faults=straggler_plan(root_machine(topology), factor=4.0),
        ).time
        assert slow > base

    def test_congestion_slows_the_run(self, topology):
        network = topology.clusters[0].network.name
        base = run_broadcast(topology, N, seed=1).time
        slow = run_broadcast(
            topology, N, seed=1,
            faults=congestion_plan(network, gap_factor=3.0, extra_latency=2e-3),
        ).time
        assert slow > base

    def test_pause_stalls_the_run(self, topology):
        base = run_gather(topology, N, seed=1).time
        paused = run_gather(
            topology, N, seed=1,
            faults=FaultPlan(MachinePause(root_machine(topology),
                                          start=base / 2, duration=base)),
        ).time
        # The root freezes mid-run for one whole baseline-makespan.
        assert paused > base

    def test_background_load_steals_cpu(self, topology):
        base = run_gather(topology, N, seed=1).time
        loaded = run_gather(
            topology, N, seed=1,
            faults=FaultPlan(BackgroundLoad(root_machine(topology), intensity=0.8,
                                            start=0.0, duration=10 * base,
                                            burst_mean=base / 5)),
        ).time
        assert loaded > base

    def test_hogs_do_not_inflate_makespan(self, topology):
        # The background window extends far beyond the program; the
        # makespan must stop with the tasks, not with the hog.
        base = run_gather(topology, N, seed=1).time
        loaded = run_gather(
            topology, N, seed=1,
            faults=FaultPlan(BackgroundLoad(root_machine(topology), intensity=0.5,
                                            start=0.0, duration=1000 * base,
                                            burst_mean=base / 5)),
        ).time
        assert loaded < 100 * base


class TestDeterminism:
    def test_same_seed_same_makespan(self, topology):
        plan = FaultPlan(BackgroundLoad(root_machine(topology), intensity=0.6,
                                        start=0.0, duration=1.0, burst_mean=1e-4))
        times = {
            run_gather(topology, N, seed=7, faults=plan).time
            for _ in range(3)
        }
        assert len(times) == 1

    def test_different_fault_seed_differs(self, topology):
        """The injector is seeded with the run's ``seed``."""
        plan = FaultPlan(BackgroundLoad(root_machine(topology), intensity=0.6,
                                        start=0.0, duration=1.0, burst_mean=1e-4))
        a = run_gather(topology, N, seed=1, faults=plan).time
        b = run_gather(topology, N, seed=2, faults=plan).time
        assert a != b
