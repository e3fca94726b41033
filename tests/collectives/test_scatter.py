"""Tests for the HBSP^k scatter collective."""

import numpy as np
import pytest

from repro.collectives import RootPolicy, WorkloadPolicy, run_scatter
from repro.collectives.base import make_items
from repro.obs import observe

N = 25_600


class TestCorrectness:
    def test_counts_respected(self, testbed_small):
        outcome = run_scatter(testbed_small, N)
        counts = outcome.runtime.partition(N, balanced=True)
        for pid, (size, _checksum) in outcome.values.items():
            assert size == counts[pid]

    def test_total_conserved(self, testbed_small):
        outcome = run_scatter(testbed_small, N)
        assert sum(v[0] for v in outcome.values.values()) == N

    def test_chunks_are_the_right_slices(self, testbed_small):
        outcome = run_scatter(testbed_small, N, seed=7)
        counts = outcome.runtime.partition(N, balanced=True)
        root = outcome.runtime.fastest_pid
        everything = make_items(7, root, N).astype(np.int64)
        offsets = np.cumsum([0] + counts)
        for pid, (size, checksum) in outcome.values.items():
            expected = int(everything[offsets[pid] : offsets[pid + 1]].sum())
            assert checksum == expected

    def test_hbsp2(self, fig1_machine):
        outcome = run_scatter(fig1_machine, N)
        assert sum(v[0] for v in outcome.values.values()) == N

    def test_hbsp3(self, grid):
        outcome = run_scatter(grid, N)
        assert sum(v[0] for v in outcome.values.values()) == N

    def test_slow_root(self, fig1_machine):
        outcome = run_scatter(fig1_machine, N, root=RootPolicy.SLOWEST)
        assert sum(v[0] for v in outcome.values.values()) == N

    def test_equal_workload(self, testbed_small):
        outcome = run_scatter(testbed_small, N, workload=WorkloadPolicy.EQUAL)
        sizes = [v[0] for v in outcome.values.values()]
        assert max(sizes) - min(sizes) <= 1

    def test_root_keeps_own_chunk_without_sending(self, testbed_small):
        with observe(spans=True) as observation:
            outcome = run_scatter(testbed_small, N)
        root = outcome.runtime.fastest_pid
        root_name = outcome.runtime.topology.machines[root].name
        # The root packs messages for others but drains nothing.
        assert observation.tracer.filter("pack", actor=root_name)
        assert observation.tracer.filter("drain", actor=root_name) == []


class TestTiming:
    def test_prediction_ballpark(self, testbed_small):
        outcome = run_scatter(testbed_small, 10 * N)
        assert outcome.predicted_time <= outcome.time <= 4 * outcome.predicted_time

    def test_scatter_cost_similar_to_gather(self, testbed_small):
        """The scatter is the gather reversed; same h-relations."""
        from repro.collectives import run_gather

        scatter = run_scatter(testbed_small, N)
        gather = run_gather(testbed_small, N)
        assert scatter.predicted_time == pytest.approx(
            gather.predicted_time, rel=0.05
        )

    def test_deterministic(self, fig1_machine):
        assert (
            run_scatter(fig1_machine, N, seed=2).time
            == run_scatter(fig1_machine, N, seed=2).time
        )
