"""Tests for the parallel sample sort application."""

import numpy as np

from repro.apps import run_sample_sort
from repro.collectives import RootPolicy, WorkloadPolicy
from repro.collectives.base import make_items

N = 40_000


def check_globally_sorted(outcome, n):
    """Concatenating per-pid outputs in pid order is the sorted input."""
    total = sum(v[0] for v in outcome.values.values())
    assert total == n
    assert all(v[3] for v in outcome.values.values()), "local runs must be sorted"
    ordered = [(pid, v) for pid, v in sorted(outcome.values.items()) if v[0] > 0]
    for (_p1, a), (_p2, b) in zip(ordered, ordered[1:]):
        assert a[2] <= b[1], "pid order must be value order"


class TestCorrectness:
    def test_hbsp1(self, testbed_small):
        check_globally_sorted(run_sample_sort(testbed_small, N), N)

    def test_hbsp2(self, fig1_machine):
        check_globally_sorted(run_sample_sort(fig1_machine, N), N)

    def test_hbsp3(self, grid):
        check_globally_sorted(run_sample_sort(grid, N), N)

    def test_checksum_is_input_multiset(self, testbed_small):
        outcome = run_sample_sort(testbed_small, N, seed=4)
        counts = outcome.runtime.partition(N, balanced=True)
        expected = sum(
            int(make_items(4, j, counts[j]).astype(np.int64).sum())
            for j in range(outcome.runtime.nprocs)
        )
        assert sum(v[4] for v in outcome.values.values()) == expected

    def test_equal_workload(self, testbed_small):
        outcome = run_sample_sort(testbed_small, N, workload=WorkloadPolicy.EQUAL)
        check_globally_sorted(outcome, N)

    def test_slow_root(self, testbed_small):
        outcome = run_sample_sort(testbed_small, N, root=RootPolicy.SLOWEST)
        check_globally_sorted(outcome, N)

    def test_tiny_input(self, testbed_small):
        check_globally_sorted(run_sample_sort(testbed_small, 10), 10)

    def test_deterministic(self, testbed_small):
        a = run_sample_sort(testbed_small, N, seed=1)
        b = run_sample_sort(testbed_small, N, seed=1)
        assert a.time == b.time
        assert a.values == b.values

    def test_supersteps(self, testbed_small):
        # samples -> splitters -> exchange = 3 supersteps on HBSP^1.
        assert run_sample_sort(testbed_small, N).supersteps == 3


class TestBalanceBenefit:
    def test_splitters_keep_buckets_roughly_even(self, testbed):
        """Regular sampling keeps the max bucket within a small factor
        of the mean for uniform data."""
        outcome = run_sample_sort(testbed, 200_000, workload=WorkloadPolicy.EQUAL)
        sizes = [v[0] for v in outcome.values.values()]
        assert max(sizes) < 3 * (sum(sizes) / len(sizes))

    def test_balanced_wins_on_heterogeneous_machine(self, testbed):
        equal = run_sample_sort(testbed, 400_000, workload=WorkloadPolicy.EQUAL)
        balanced = run_sample_sort(testbed, 400_000, workload=WorkloadPolicy.BALANCED)
        assert equal.time / balanced.time > 1.25
