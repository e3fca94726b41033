"""Unit tests for repro.collectives.schedules."""

import pytest

from repro.collectives import RootPolicy, WorkloadPolicy, resolve_root, split_counts
from repro.collectives.schedules import (
    SchedulePolicy,
    effective_coordinator,
    level_participants,
    resolve_plan,
)
from repro.errors import CollectiveError
from repro.hbsplib import HbspRuntime


class TestResolveRoot:
    def test_default_is_fastest(self, testbed_small):
        runtime = HbspRuntime(testbed_small)
        assert resolve_root(runtime, None) == runtime.fastest_pid

    def test_policies(self, testbed_small):
        runtime = HbspRuntime(testbed_small)
        assert resolve_root(runtime, RootPolicy.FASTEST) == runtime.fastest_pid
        assert resolve_root(runtime, RootPolicy.SLOWEST) == runtime.slowest_pid

    def test_explicit_pid(self, testbed_small):
        runtime = HbspRuntime(testbed_small)
        assert resolve_root(runtime, 2) == 2

    def test_out_of_range_rejected(self, testbed_small):
        runtime = HbspRuntime(testbed_small)
        with pytest.raises(CollectiveError):
            resolve_root(runtime, 99)

    def test_bool_rejected(self, testbed_small):
        runtime = HbspRuntime(testbed_small)
        with pytest.raises(CollectiveError):
            resolve_root(runtime, True)


class TestSplitCounts:
    def test_equal_policy(self, testbed_small):
        runtime = HbspRuntime(testbed_small)
        counts = split_counts(runtime, 100, WorkloadPolicy.EQUAL)
        assert sum(counts) == 100
        assert max(counts) - min(counts) <= 1

    def test_balanced_policy(self, testbed_small):
        runtime = HbspRuntime(testbed_small)
        counts = split_counts(runtime, 10_000, WorkloadPolicy.BALANCED)
        assert sum(counts) == 10_000
        assert counts[runtime.fastest_pid] == max(counts)
        assert counts[runtime.slowest_pid] == min(counts)

    def test_explicit_counts_validated(self, testbed_small):
        runtime = HbspRuntime(testbed_small)
        assert split_counts(runtime, 10, [1, 2, 3, 4]) == [1, 2, 3, 4]
        with pytest.raises(CollectiveError, match="sum"):
            split_counts(runtime, 11, [1, 2, 3, 4])
        with pytest.raises(CollectiveError, match="entries"):
            split_counts(runtime, 10, [10])
        with pytest.raises(CollectiveError, match="non-negative"):
            split_counts(runtime, 10, [11, 2, -3, 0])


class TestResolvePlan:
    @pytest.fixture
    def tuning_cache(self, tmp_path, monkeypatch):
        """Point the default cache root, where decisions made outside a
        sweep persist, at a throwaway dir."""
        from repro.tuning.cache import DecisionCache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        return DecisionCache(tmp_path)

    def test_default_spellings_return_none(self, testbed_small):
        for spelling in (None, SchedulePolicy.DEFAULT, "default"):
            assert resolve_plan(testbed_small, "gather", 100, spelling) is None

    def test_unknown_spelling_rejected(self, testbed_small):
        with pytest.raises(ValueError):
            resolve_plan(testbed_small, "gather", 100, "bogus")

    def test_tuned_rejected_on_untunable_ops(self, testbed_small):
        with pytest.raises(CollectiveError, match="gather/broadcast"):
            resolve_plan(testbed_small, "scatter", 100, SchedulePolicy.TUNED)

    def test_tuned_returns_the_cached_winner(self, testbed_small, tuning_cache):
        from repro.tuning.tuner import tune

        plan = resolve_plan(
            testbed_small, "gather", 2000, SchedulePolicy.TUNED
        )
        decision = tune(testbed_small, "gather", 2000, cache=tuning_cache)
        assert plan == decision.plan
        assert len(tuning_cache.disk) == 1  # resolve_plan populated it; tune hit

    def test_tuned_accepts_the_string_spelling(self, testbed_small, tuning_cache):
        plan = resolve_plan(testbed_small, "broadcast", 2000, "tuned")
        assert plan.op == "broadcast"
        assert plan.k == 1


class TestCoordinatorOverride:
    def _contexts(self, topology):
        """Run a trivial program to materialise contexts."""
        runtime = HbspRuntime(topology)
        captured = {}

        def prog(ctx):
            coord_default = effective_coordinator(ctx, 1, root=runtime.fastest_pid)
            coord_override = effective_coordinator(ctx, 1, root=ctx.pid)
            participants = level_participants(
                ctx, ctx.runtime.tree.k, runtime.fastest_pid
            )
            captured[ctx.pid] = (coord_default, coord_override, participants)
            yield from ctx.sync()

        runtime.run(prog)
        return runtime, captured

    def test_root_in_cluster_takes_over(self, testbed_small):
        runtime, captured = self._contexts(testbed_small)
        for pid, (_default, override, _parts) in captured.items():
            # In a 1-level machine every pid shares the root's cluster,
            # so overriding with pid itself makes pid the coordinator.
            assert override == pid

    def test_default_coordinator_when_root_elsewhere(self, fig1_machine):
        runtime, captured = self._contexts(fig1_machine)
        fastest = runtime.fastest_pid
        for pid, (default, _override, _parts) in captured.items():
            members = runtime.cluster_members(pid, 1)
            if fastest in members:
                assert default == fastest
            else:
                assert default == runtime.coordinator_pid(pid, 1)

    def test_equals_the_membership_definition_everywhere(self, fig1_machine):
        """Ancestor identity decides what scanning the member list did,
        for every (pid, level, root) of an irregular HBSP^2 tree."""
        runtime = HbspRuntime(fig1_machine)
        levels = range(runtime.tree.k + 1)
        got = {}

        def prog(ctx):
            for level in levels:
                for root in range(runtime.nprocs):
                    got[ctx.pid, level, root] = effective_coordinator(ctx, level, root)
            yield from ctx.sync()

        runtime.run(prog)
        assert len(got) == runtime.nprocs * len(levels) * runtime.nprocs
        sizes = set()
        for (pid, level, root), coordinator in got.items():
            members = runtime.cluster_members(pid, level)
            sizes.add(len(members))
            want = root if root in members else runtime.coordinator_pid(pid, level)
            assert coordinator == want
        assert len(sizes) > 2  # singletons, unequal clusters, the whole machine

    def test_participants_cover_child_clusters(self, fig1_machine):
        runtime, captured = self._contexts(fig1_machine)
        _d, _o, participants = captured[0]
        # One participant per level-1 cluster (SMP, SGI, LAN).
        assert len(participants) == 3
        # Each participant is a member of a distinct level-1 cluster.
        clusters = [
            frozenset(runtime.cluster_members(p, 1)) for p in participants
        ]
        assert len(set(clusters)) == 3
