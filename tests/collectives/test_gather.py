"""Tests for the HBSP^k gather collective."""

import collections

import numpy as np

from repro.collectives import RootPolicy, WorkloadPolicy, run_gather
from repro.collectives.base import make_items
from repro.obs import observe


def root_pid(outcome):
    """The pid that ended up holding items."""
    holders = [pid for pid, (count, _sum) in outcome.values.items() if count > 0]
    assert len(holders) == 1
    return holders[0]


N = 25_600


class TestCorrectness:
    def test_root_collects_everything(self, testbed_small):
        outcome = run_gather(testbed_small, N)
        pid = root_pid(outcome)
        assert outcome.values[pid][0] == N

    def test_checksum_matches_generated_data(self, testbed_small):
        outcome = run_gather(testbed_small, N, seed=5)
        pid = root_pid(outcome)
        counts = outcome.runtime.partition(N, balanced=True)
        expected = sum(
            int(make_items(5, j, counts[j]).astype(np.int64).sum())
            for j in range(outcome.runtime.nprocs)
        )
        assert outcome.values[pid][1] == expected

    def test_default_root_is_fastest(self, testbed_small):
        outcome = run_gather(testbed_small, N)
        assert root_pid(outcome) == outcome.runtime.fastest_pid

    def test_explicit_root(self, testbed_small):
        outcome = run_gather(testbed_small, N, root=2)
        assert root_pid(outcome) == 2

    def test_slowest_root_policy(self, testbed_small):
        outcome = run_gather(testbed_small, N, root=RootPolicy.SLOWEST)
        assert root_pid(outcome) == outcome.runtime.slowest_pid

    def test_hbsp2_gather(self, fig1_machine):
        outcome = run_gather(fig1_machine, N)
        assert outcome.values[root_pid(outcome)][0] == N

    def test_hbsp3_gather(self, grid):
        outcome = run_gather(grid, N)
        assert outcome.values[root_pid(outcome)][0] == N

    def test_hbsp2_gather_on_any_root(self, fig1_machine):
        for root in (0, 4, 8):
            outcome = run_gather(fig1_machine, N, root=root)
            assert root_pid(outcome) == root
            assert outcome.values[root][0] == N

    def test_equal_workload(self, testbed_small):
        outcome = run_gather(testbed_small, N, workload=WorkloadPolicy.EQUAL)
        assert outcome.values[root_pid(outcome)][0] == N

    def test_explicit_counts(self, testbed_small):
        counts = [N, 0, 0, 0]
        outcome = run_gather(testbed_small, N, workload=counts, root=1)
        assert outcome.values[1][0] == N

    def test_supersteps_equal_k(self, testbed_small, fig1_machine, grid):
        assert run_gather(testbed_small, N).supersteps == 1
        assert run_gather(fig1_machine, N).supersteps == 2
        assert run_gather(grid, N).supersteps == 3


class TestTiming:
    def test_deterministic(self, testbed_small):
        a = run_gather(testbed_small, N, seed=1)
        b = run_gather(testbed_small, N, seed=1)
        assert a.time == b.time

    def test_time_scales_with_n(self, testbed_small):
        small = run_gather(testbed_small, N)
        large = run_gather(testbed_small, 4 * N)
        assert large.time > small.time

    def test_prediction_in_same_ballpark(self, testbed_small):
        """Simulated time within a small factor of the model prediction
        (the model omits pack/unpack, so simulated >= predicted)."""
        outcome = run_gather(testbed_small, 10 * N)
        assert outcome.predicted_time <= outcome.time <= 4 * outcome.predicted_time

    def test_fast_root_beats_slow_root_at_scale(self, testbed):
        slow = run_gather(testbed, N, root=RootPolicy.SLOWEST, workload=WorkloadPolicy.EQUAL)
        fast = run_gather(testbed, N, root=RootPolicy.FASTEST, workload=WorkloadPolicy.EQUAL)
        assert slow.time > fast.time

    def test_p2_inversion(self):
        """The paper's counterintuitive p = 2 result: the slow root wins."""
        from repro.cluster import ucf_testbed

        topo = ucf_testbed(2)
        slow = run_gather(topo, N, root=RootPolicy.SLOWEST, workload=WorkloadPolicy.EQUAL)
        fast = run_gather(topo, N, root=RootPolicy.FASTEST, workload=WorkloadPolicy.EQUAL)
        assert slow.time < fast.time

    def test_trace_shows_root_drain(self, testbed_small):
        with observe(spans=True) as observation:
            outcome = run_gather(testbed_small, N)
        pid = root_pid(outcome)
        root_name = outcome.runtime.topology.machines[pid].name
        drains = collections.Counter()
        for span in observation.tracer.filter("drain"):
            drains[span.actor] += span.duration
        assert drains[root_name] == max(drains.values())
