"""The collector has nothing to find inside a run, and a finished world
needs no collector: the premise and the promise of ``repro.util.lifetime``
(docs/performance.md §9, docs/simulator.md "Lifetime of a world").
"""

import gc

import pytest

from repro.cluster.discover.generators import fat_tree
from repro.collectives import make_runtime, run_broadcast, run_gather
from repro.errors import DeadlockError, HbspError, PvmError, SuperstepError
from repro.faults import DeliveryPolicy, straggler_plan
from repro.hbsplib import HbspRuntime
from repro.obs import observe
from repro.serve import StageCostModel, default_config, run_service
from repro.serve.service import serve_slices
from repro.sim import Engine
from repro.util.lifetime import Released, gc_paused

N = 5000
TOPOLOGY = fat_tree(2, 8, 8, seed=0)  # 128 leaves


def _faulted(run):
    # A 1 ms timeout under a 4x straggler: retransmissions really fire.
    return run(
        TOPOLOGY, N, seed=1,
        faults=straggler_plan(TOPOLOGY.machines[3].name, factor=4.0),
        delivery=DeliveryPolicy.retry(3, timeout=0.001),
    )


def _with_spans(run):
    with observe(spans=True):
        return run(TOPOLOGY, N, seed=1)


PATHS = {
    "object": lambda run: run(TOPOLOGY, N, seed=1, macro=False),
    "macro": lambda run: run(TOPOLOGY, N, seed=1),
    "straggler+retry": _faulted,
    "spans": _with_spans,
}
RUNS = [
    pytest.param(path, run, id=f"{run.__name__[4:]}-{name}")
    for run in (run_gather, run_broadcast)
    for name, path in PATHS.items()
]


@pytest.fixture
def collector_off():
    """Count by hand: only an explicit ``gc.collect()`` finds anything."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestFutility:
    """What a paused collector would have found while the world lives."""

    @pytest.mark.parametrize("path, run", RUNS)
    def test_a_run_orphans_no_cycles(self, collector_off, path, run):
        outcome = path(run)
        assert gc.collect() <= 128  # 10 today: three recursive closures
        assert outcome.time > 0

    def test_a_serve_session_orphans_no_cycles(self, collector_off):
        config = default_config(seed=3, duration=200.0)
        costs = StageCostModel(config, serve_slices(config)[0])
        costs.prewarm()  # its kernel runs are worlds of their own
        gc.collect()
        report = run_service(config, costs=costs)
        assert gc.collect() == 0
        assert report.completed > 0


class TestRelease:
    """A finished world is a tree: dropping the outcome frees it."""

    @pytest.mark.parametrize("path, run", RUNS)
    def test_dropped_world_leaves_nothing_to_collect(self, collector_off, path, run):
        outcome = path(run)
        gc.collect()
        del outcome
        assert gc.collect() <= 16

    def test_everything_read_after_a_run_still_reads(self):
        outcome = _faulted(run_broadcast)
        runtime = outcome.runtime
        assert outcome.values and runtime.superstep_marks()
        assert runtime.vm.metrics.value("repro_send_retries_total") > 0
        assert runtime.engine.events_processed > 0
        assert (runtime.nprocs, runtime.tree.k) == (128, runtime.params.k)
        assert runtime._contexts[5].task.host.spec is runtime.topology.machines[5]
        assert runtime.tid_of(5) == runtime._contexts[5].task.tid
        assert runtime.vm.injector.dropped_messages == 0
        assert "queued=0" in repr(runtime.engine)  # no dead retry timers

    def test_upward_navigation_ends_in_a_typed_error(self):
        runtime = run_gather(TOPOLOGY, N, seed=1).runtime
        ctx = runtime._contexts[0]
        with pytest.raises(HbspError, match="released when its run finished"):
            ctx.fastest_pid
        with pytest.raises(HbspError, match="released"):
            runtime.macro.runtime.nprocs
        with pytest.raises(PvmError, match="released"):
            ctx.task.vm.engine
        with pytest.raises(SuperstepError, match="after the program finished"):
            next(ctx.send(1, b"x"))
        assert "released" in repr(ctx.runtime)
        assert not hasattr(ctx.runtime, "__deepcopy__")

    def test_a_failed_run_is_left_intact(self):
        def stuck(ctx):
            if ctx.pid:
                yield from ctx.sync()
            return ctx.pid

        runtime = make_runtime(TOPOLOGY, macro=False)
        with pytest.raises(DeadlockError):
            runtime.run(stuck)
        ctx = runtime._contexts[1]
        assert ctx.runtime is runtime and ctx.task.vm is runtime.vm
        assert ctx.fastest_pid == runtime.fastest_pid

    def test_a_raising_program_leaves_the_world_intact(self):
        def broken(ctx):
            yield from ctx.sync()
            raise ValueError("boom")

        runtime = HbspRuntime(TOPOLOGY)
        with pytest.raises(ValueError, match="boom"):
            runtime.run(broken)
        assert runtime._contexts[0].runtime is runtime


class TestPause:
    def test_nests_and_restores(self):
        assert gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_disabled(self, collector_off):
        with gc_paused():
            pass
        assert not gc.isenabled()
        run_gather(TOPOLOGY, N, seed=1)
        assert not gc.isenabled()

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_restores_when_the_block_raises(self, error):
        with pytest.raises(error):
            with gc_paused():
                raise error()
        assert gc.isenabled()

    def test_collector_is_off_inside_a_run_and_back_on_after(self):
        seen = []

        def program(ctx):
            seen.append(gc.isenabled())
            yield from ctx.sync()

        HbspRuntime(TOPOLOGY).run(program)
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_restored_after_a_deadlock(self):
        engine = Engine()

        def waits_forever():
            yield engine.event()

        engine.process(waits_forever())
        with pytest.raises(DeadlockError):
            engine.run()
        assert gc.isenabled()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_restored_after_a_raising_program(self, error):
        def program(ctx):
            yield from ctx.sync()
            raise error()

        with pytest.raises(error):
            HbspRuntime(TOPOLOGY).run(program)
        assert gc.isenabled()


class TestReleasedMarker:
    def test_names_what_was_released_and_what_was_asked(self):
        marker = Released(HbspError, "the runtime of a finished run")
        with pytest.raises(HbspError, match="the runtime of a finished run.*'tree'"):
            marker.tree
