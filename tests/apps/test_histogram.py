"""Tests for the distributed histogram application."""

import numpy as np
import pytest

from repro.apps import run_histogram
from repro.collectives import RootPolicy, WorkloadPolicy
from repro.collectives.base import make_items
from repro.obs import observe

N = 30_000


def root_total(outcome):
    holders = [v[1] for v in outcome.values.values() if v[1] > 0]
    assert len(holders) == 1
    return holders[0]


class TestCorrectness:
    def test_counts_everything_once(self, testbed_small):
        assert root_total(run_histogram(testbed_small, N)) == N

    def test_hbsp2(self, fig1_machine):
        assert root_total(run_histogram(fig1_machine, N)) == N

    def test_hbsp3(self, grid):
        assert root_total(run_histogram(grid, N)) == N

    def test_items_binned_match_counts(self, testbed_small):
        outcome = run_histogram(testbed_small, N)
        counts = outcome.runtime.partition(N, balanced=True)
        for pid, (binned, _total) in outcome.values.items():
            assert binned == counts[pid]

    def test_outcome_values_on_the_fig1_tree(self, fig1_machine):
        outcome = run_histogram(fig1_machine, N, seed=3)
        counts = outcome.runtime.partition(N, balanced=True)
        root = outcome.runtime.fastest_pid
        assert outcome.values == {
            pid: (counts[pid], N if pid == root else 0)
            for pid in range(fig1_machine.num_machines)
        }

    @pytest.mark.parametrize("bins", [1, 7, 64])
    def test_map_step_on_int32_items_equals_the_widened_reference(self, bins):
        """The map step bins the read-only int32 items without widening
        them first; the widened form is the reference."""
        items = make_items(3, 1, 10_001)
        reference = np.bincount(
            (items.astype(np.int64) % bins).astype(np.int64), minlength=bins
        ).astype(np.int64)
        local = np.bincount(items % bins, minlength=bins)
        assert local.dtype == np.int64
        np.testing.assert_array_equal(local, reference)

    def test_equal_workload(self, testbed_small):
        outcome = run_histogram(testbed_small, N, workload=WorkloadPolicy.EQUAL)
        assert root_total(outcome) == N

    def test_slow_root(self, fig1_machine):
        outcome = run_histogram(fig1_machine, N, root=RootPolicy.SLOWEST)
        slow = outcome.runtime.slowest_pid
        assert outcome.values[slow][1] == N

    def test_bins_parameter(self, testbed_small):
        assert root_total(run_histogram(testbed_small, N, bins=7)) == N

    def test_supersteps_equal_k(self, testbed_small, fig1_machine, grid):
        assert run_histogram(testbed_small, N).supersteps == 1
        assert run_histogram(fig1_machine, N).supersteps == 2
        assert run_histogram(grid, N).supersteps == 3


class TestHierarchy:
    def test_traffic_independent_of_n(self, grid):
        """Only bin vectors cross the network, so doubling n changes
        the time only through local compute."""
        with observe(spans=True) as observation:
            small = run_histogram(grid, N)
            large = run_histogram(grid, 4 * N)
        small_bytes, large_bytes = (
            sum(s.args["nbytes"] for s in observation.tracer.filter(
                "inject", group=outcome.runtime.obs_group))
            for outcome in (small, large)
        )
        assert small_bytes == large_bytes
        assert large.time > small.time  # compute grew


class TestBalanceBenefit:
    def test_balanced_wins_when_compute_dominates(self, testbed):
        """Binning 4 M items is local work behind one barrier, so the
        slowest machine's share decides the superstep (unlike the pure
        broadcast of Fig. 4(b), where balancing buys nothing)."""
        equal = run_histogram(testbed, 4_000_000, workload=WorkloadPolicy.EQUAL)
        balanced = run_histogram(testbed, 4_000_000, workload=WorkloadPolicy.BALANCED)
        assert equal.time / balanced.time > 1.4
