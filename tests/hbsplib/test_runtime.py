"""Unit tests for repro.hbsplib.runtime."""

import re

import pytest

from repro.errors import DeadlockError, HbspError
from repro.faults import DeliveryPolicy, FaultPlan, Injector
from repro.hbsplib import HbspRuntime
from repro.obs import observe


def noop(ctx):
    yield from ctx.sync()
    return ctx.pid


class TestConstruction:
    def test_nprocs(self, testbed_small):
        assert HbspRuntime(testbed_small).nprocs == 4

    def test_pids_match_machine_order(self, testbed_small):
        runtime = HbspRuntime(testbed_small)
        result = runtime.run(noop)
        assert sorted(result.values) == list(range(4))
        assert all(result.values[pid] == pid for pid in result.values)

    def test_fastest_slowest_from_scores(self, testbed_small):
        runtime = HbspRuntime(testbed_small)
        assert runtime.topology.machines[runtime.fastest_pid].name == "sgi-octane"
        assert runtime.topology.machines[runtime.slowest_pid].name == "sun-classic"

    def test_scores_override_ranking(self, testbed_small):
        """Noisy scores can rank a truly-slower machine first."""
        inverted = {
            m.name: 1.0 / m.cpu_rate for m in testbed_small.machines
        }
        runtime = HbspRuntime(testbed_small, scores=inverted)
        assert runtime.topology.machines[runtime.fastest_pid].name == "sun-classic"

    def test_fastest_slowest_are_the_rank_extremes(self, grid):
        runtime = HbspRuntime(grid)  # three levels
        pids = range(runtime.nprocs)
        assert runtime.fastest_pid == min(pids, key=runtime.rank_of)
        assert runtime.slowest_pid == max(pids, key=runtime.rank_of)

    def test_missing_scores_rejected(self, testbed_small):
        with pytest.raises(HbspError, match="missing"):
            HbspRuntime(testbed_small, scores={"sgi-octane": 1.0})

    def test_ranks_are_permutation(self, testbed):
        runtime = HbspRuntime(testbed)
        ranks = sorted(runtime.rank_of(pid) for pid in range(runtime.nprocs))
        assert ranks == list(range(runtime.nprocs))

    def test_fractions_sum_to_one(self, testbed):
        runtime = HbspRuntime(testbed)
        assert sum(runtime.fraction_of(j) for j in range(runtime.nprocs)) == pytest.approx(1.0)

    def test_partition_modes(self, testbed):
        runtime = HbspRuntime(testbed)
        balanced = runtime.partition(1000, balanced=True)
        equal = runtime.partition(1000, balanced=False)
        assert sum(balanced) == sum(equal) == 1000
        assert max(equal) - min(equal) <= 1
        assert max(balanced) - min(balanced) > 1  # heterogeneous shares


class TestClusterNavigation:
    def test_coordinator_pid_level0_is_self(self, fig1_machine):
        runtime = HbspRuntime(fig1_machine)
        assert runtime.coordinator_pid(3, 0) == 3

    def test_cluster_members_level1(self, fig1_machine):
        runtime = HbspRuntime(fig1_machine)
        smp0 = runtime.topology.machine_id("smp-cpu0")
        members = runtime.cluster_members(smp0, 1)
        names = {runtime.topology.machines[m].name for m in members}
        assert names == {f"smp-cpu{i}" for i in range(4)}

    def test_root_cluster_contains_everyone(self, fig1_machine):
        runtime = HbspRuntime(fig1_machine)
        assert len(runtime.cluster_members(0, 2)) == runtime.nprocs

    def test_coordinator_of_root_is_global_fastest(self, fig1_machine):
        runtime = HbspRuntime(fig1_machine)
        coord = runtime.coordinator_pid(0, 2)
        assert runtime.topology.machines[coord].name == "sgi-octane"

    def test_barrier_for_bad_level(self, testbed_small):
        runtime = HbspRuntime(testbed_small)
        with pytest.raises(HbspError):
            runtime.barrier_for(0, 5)
        with pytest.raises(HbspError):
            runtime.barrier_for(0, 0)

    def test_pid_of_inverts_tid_of(self, grid):
        runtime = HbspRuntime(grid)  # three levels
        runtime.run(noop)
        tids = [runtime.tid_of(pid) for pid in range(runtime.nprocs)]
        assert [runtime.pid_of(tid) for tid in tids] == list(range(runtime.nprocs))
        with pytest.raises(HbspError, match="no process with tid"):
            runtime.pid_of(max(tids) + 1)


class TestExecution:
    macro = None  # the automatic choice: the macro path on these machines

    def test_single_use(self, testbed_small):
        runtime = HbspRuntime(testbed_small, macro=self.macro)
        runtime.run(noop)
        with pytest.raises(HbspError, match="fresh"):
            runtime.run(noop)

    def test_per_pid_args(self, testbed_small):
        """Per-pid inputs ride in one shared argument indexed by pid."""
        def prog(ctx, values):
            yield from ctx.sync()
            return values[ctx.pid]

        runtime = HbspRuntime(testbed_small, macro=self.macro)
        result = runtime.run(prog, [i * 10 for i in range(4)])
        assert result.values == {0: 0, 1: 10, 2: 20, 3: 30}

    def test_rejected_call_does_not_burn_the_runtime(self, testbed_small):
        """A refused ``macro=True`` run leaves the runtime unused: the
        second call meets the same refusal, not "already executed"."""
        injector = Injector(FaultPlan.empty(), seed=0)
        runtime = HbspRuntime(testbed_small, macro=True, injector=injector)
        for _ in range(2):
            with pytest.raises(HbspError, match="live hook: injector$"):
                runtime.run(noop)

    def test_supersteps_counted(self, testbed_small):
        def prog(ctx):
            yield from ctx.sync()
            yield from ctx.sync()
            yield from ctx.sync()

        result = HbspRuntime(testbed_small, macro=self.macro).run(prog)
        assert result.supersteps == 3

    def test_sync_charges_L(self, testbed_small):
        def prog(ctx):
            yield from ctx.sync()

        result = HbspRuntime(testbed_small, macro=self.macro).run(prog)
        runtime_params = HbspRuntime(testbed_small).params
        assert result.time >= runtime_params.L_of(1, 0)

    def test_time_is_makespan(self, testbed_small):
        def prog(ctx):
            if ctx.pid == 0:
                yield from ctx.compute(ctx.task.host.spec.cpu_rate)  # 1 s
            yield from ctx.sync()

        result = HbspRuntime(testbed_small, macro=self.macro).run(prog)
        assert result.time >= 1.0

    def test_trace_enabled(self, testbed_small):
        def prog(ctx):
            yield from ctx.compute(1000)
            yield from ctx.sync()

        with observe(spans=True) as observation:
            HbspRuntime(testbed_small, macro=self.macro).run(prog)
        assert len(observation.tracer.filter("compute")) == testbed_small.num_machines


class TestExecutionOnObjectPath(TestExecution):
    """The same tests, with every run forced onto the object path."""

    macro = False


def _syncs(ctx):
    yield from ctx.sync()


def _raw_compute(ctx):
    yield from ctx.sync()
    yield from ctx.task.compute(1_000.0)  # a raw task event, not a superstep
    yield from ctx.sync()
    return ctx.pid


class TestEnginePath:
    """``engine_path`` says which path a run took and the one reason."""

    def test_unset_before_run_and_macro_when_clean(self, testbed_small):
        runtime = HbspRuntime(testbed_small)
        assert runtime.engine_path is None
        runtime.run(_syncs)
        assert runtime.engine_path == ("macro", "") and runtime.macro is not None

    @pytest.mark.parametrize("hook, reason", [
        (lambda: {"injector": Injector(FaultPlan.empty())}, "injector"),
        (lambda: {"delivery": DeliveryPolicy.retry(2, timeout=1.0)}, "delivery policy"),
        (lambda: {"serialize_nic": False}, "serialize_nic=False"),
    ])
    def test_object_path_names_the_one_live_hook(self, testbed_small, hook, reason):
        runtime = HbspRuntime(testbed_small, **hook())
        runtime.run(_syncs)
        assert runtime.engine_path == ("object", reason) and runtime.macro is None
        insisting = HbspRuntime(testbed_small, macro=True, **hook())
        with pytest.raises(HbspError, match=f"live hook: {reason}$"):
            insisting.run(_syncs)

    def test_macro_false(self, testbed_small):
        runtime = HbspRuntime(testbed_small, macro=False)
        runtime.run(_syncs)
        assert runtime.engine_path == ("object", "macro=False")

    def test_spans_are_named_before_the_trace_they_force(self, testbed_small):
        """A span tracer is a live hook of its own: the machine picked it
        up at construction and records message timing into it."""
        with observe(spans=True):
            runtime = HbspRuntime(testbed_small)
            runtime.run(_syncs)
        assert runtime.engine_path == ("object", "spans")

    def test_raw_task_event_names_the_program_and_macro_false(self, testbed_small):
        runtime = HbspRuntime(testbed_small)
        with pytest.raises(HbspError) as info:
            runtime.run(_raw_compute)
        assert runtime.engine_path == ("macro", "")
        message = str(info.value)
        assert message.startswith("_raw_compute (pid 0 on sgi-octane) yielded")
        assert message.endswith("run it with HbspRuntime(macro=False)")
        result = HbspRuntime(testbed_small, macro=False).run(_raw_compute)
        assert result.values == {0: 0, 1: 1, 2: 2, 3: 3}


def _returns_some_nones(ctx):
    yield from ctx.sync()
    return None if ctx.pid % 2 else (ctx.pid, ctx.superstep)


def _mismatched_levels(ctx):
    # pid 0 waits at the root while its level-1 cluster mates wait for
    # it at level 1; every other level-1 cluster completes and returns.
    yield from ctx.sync(None if ctx.pid == 0 else 1)
    return ctx.pid


class TestMacroParties:
    """On the macro path the engine drives each program generator
    itself: no DES process per pid, same results and failures."""

    def test_values_identical_on_both_paths_including_none(self, grid):
        runs = {}
        for macro in (True, False):
            runtime = HbspRuntime(grid, macro=macro)
            runs[macro] = (runtime, runtime.run(_returns_some_nones).values)
        macro_runtime, macro_values = runs[True]
        assert macro_values == runs[False][1] == macro_runtime.macro.values
        assert list(macro_values) == list(range(macro_runtime.nprocs))
        assert macro_values[1] is None and macro_values[2] == (2, 1)

    def test_no_process_per_party(self, grid):
        runtime = HbspRuntime(grid)
        runtime.run(_returns_some_nones)
        assert runtime.macro is not None
        assert all(ctx.task.process is None for ctx in runtime._contexts)

    def test_mismatched_levels_deadlock_names_the_stuck_parties(self, grid):
        runtime = HbspRuntime(grid)
        with pytest.raises(DeadlockError) as info:
            runtime.run(_mismatched_levels)
        assert runtime.engine_path == ("macro", "")
        stuck = {int(re.search(r"pid(\d+)@", entry).group(1)) for entry in info.value.blocked}
        assert stuck == set(runtime.cluster_members(0, 1))
        assert len(info.value.blocked) == len(stuck)
        # The world is left intact for inspection, and no party was a
        # DES process.
        ctx = runtime._contexts[1]
        assert ctx.runtime is runtime and ctx.task.vm is runtime.vm
        assert all(ctx.task.process is None for ctx in runtime._contexts)
