"""Tests for the prefix-sum scan."""

import numpy as np

from repro.collectives import run_scan
from repro.collectives.base import make_items

WIDTH = 1_000


class TestCorrectness:
    def test_inclusive_prefix_sums(self, testbed_small):
        outcome = run_scan(testbed_small, WIDTH, seed=6)
        running = np.zeros(WIDTH, dtype=np.int64)
        for pid in range(outcome.runtime.nprocs):
            running += make_items(6, pid, WIDTH).astype(np.int64)
            assert outcome.values[pid] == (WIDTH, int(running.sum()))

    def test_pid0_keeps_own_vector(self, testbed_small):
        outcome = run_scan(testbed_small, WIDTH, seed=6)
        own = int(make_items(6, 0, WIDTH).astype(np.int64).sum())
        assert outcome.values[0][1] == own

    def test_last_pid_has_global_sum(self, testbed_small):
        outcome = run_scan(testbed_small, WIDTH, seed=6)
        total = sum(
            int(make_items(6, j, WIDTH).astype(np.int64).sum())
            for j in range(outcome.runtime.nprocs)
        )
        last = outcome.runtime.nprocs - 1
        assert outcome.values[last][1] == total

    def test_hbsp2(self, fig1_machine):
        outcome = run_scan(fig1_machine, WIDTH)
        assert all(v[0] == WIDTH for v in outcome.values.values())

    def test_single_superstep(self, testbed_small):
        assert run_scan(testbed_small, WIDTH).supersteps == 1


class TestTiming:
    def test_prediction_ballpark(self, testbed_small):
        outcome = run_scan(testbed_small, WIDTH * 20)
        assert outcome.predicted_time <= outcome.time <= 5 * outcome.predicted_time

    def test_w_term_in_prediction(self, testbed_small):
        outcome = run_scan(testbed_small, WIDTH)
        assert outcome.predicted.component("w") > 0

    def test_deterministic(self, testbed_small):
        assert (
            run_scan(testbed_small, WIDTH, seed=1).time
            == run_scan(testbed_small, WIDTH, seed=1).time
        )
