"""Tests for the HBSP^k reduction."""

import numpy as np

from repro.collectives import RootPolicy, run_gather, run_reduce
from repro.collectives.base import make_items
from repro.obs import observe

WIDTH = 2_000


def reduce_root(outcome):
    holders = [pid for pid, (count, _s) in outcome.values.items() if count > 0]
    assert len(holders) == 1
    return holders[0]


class TestCorrectness:
    def test_root_holds_elementwise_sum(self, testbed_small):
        outcome = run_reduce(testbed_small, WIDTH, seed=3)
        pid = reduce_root(outcome)
        expected = sum(
            int(make_items(3, j, WIDTH).astype(np.int64).sum())
            for j in range(outcome.runtime.nprocs)
        )
        assert outcome.values[pid] == (WIDTH, expected)

    def test_hbsp2(self, fig1_machine):
        outcome = run_reduce(fig1_machine, WIDTH)
        assert outcome.values[reduce_root(outcome)][0] == WIDTH

    def test_hbsp3(self, grid):
        outcome = run_reduce(grid, WIDTH)
        assert outcome.values[reduce_root(outcome)][0] == WIDTH

    def test_root_override(self, fig1_machine):
        outcome = run_reduce(fig1_machine, WIDTH, root=RootPolicy.SLOWEST)
        assert reduce_root(outcome) == outcome.runtime.slowest_pid

    def test_result_independent_of_root(self, testbed_small):
        a = run_reduce(testbed_small, WIDTH, root=0, seed=1)
        b = run_reduce(testbed_small, WIDTH, root=3, seed=1)
        assert a.values[reduce_root(a)][1] == b.values[reduce_root(b)][1]


class TestHierarchyAdvantage:
    def test_reduce_cheaper_than_gather_over_wan(self, grid):
        """Combining at coordinators means only `width` items cross
        each level — the reduction's WAN step is far cheaper than the
        gather's, which hauls every item to the root."""
        n = WIDTH * grid.num_machines
        gather = run_gather(grid, n)
        reduce_out = run_reduce(grid, WIDTH)
        g_super3 = next(s for s in gather.predicted.steps if s.level == 3)
        r_super3 = next(s for s in reduce_out.predicted.steps if s.level == 3)
        # The reduction crosses the WAN with one `width` vector per
        # sender (8-byte accumulators); the gather hauls every subtree's
        # items (4-byte ints): p/2 subtree items vs 1 vector => cheaper.
        assert r_super3.gh < g_super3.gh
        # And the gap widens with the problem: gather grows with n,
        # reduce stays at `width`.
        gather_big = run_gather(grid, 4 * n)
        g_big = next(s for s in gather_big.predicted.steps if s.level == 3)
        assert r_super3.gh < g_big.gh / 3

    def test_compute_charged(self, testbed_small):
        with observe(spans=True) as observation:
            run_reduce(testbed_small, WIDTH)
        assert sum(s.duration for s in observation.tracer.filter("compute")) > 0

    def test_predicted_w_term_present(self, testbed_small):
        outcome = run_reduce(testbed_small, WIDTH)
        assert outcome.predicted.component("w") > 0


class TestTiming:
    def test_prediction_ballpark(self, testbed_small):
        outcome = run_reduce(testbed_small, WIDTH * 10)
        assert outcome.predicted_time <= outcome.time <= 5 * outcome.predicted_time

    def test_time_scales_with_width(self, testbed_small):
        small = run_reduce(testbed_small, WIDTH)
        large = run_reduce(testbed_small, WIDTH * 8)
        assert large.time > small.time
