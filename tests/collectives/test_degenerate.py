"""Degenerate-configuration tests across every collective.

Single-machine topologies, empty problems, and width-1 vectors — the
corners where off-by-one bugs in partitioning and self-send handling
live.
"""

import re

import pytest

from repro.cluster import ucf_testbed
from repro.collectives import (
    predict_allgather_cost,
    predict_allreduce_cost,
    predict_alltoall_cost,
    predict_reduce_cost,
    predict_scan_cost,
    predict_scatter_cost,
    run_allgather,
    run_allreduce,
    run_alltoall,
    run_broadcast,
    run_gather,
    run_reduce,
    run_scan,
    run_scatter,
)
from repro.errors import CollectiveError
from repro.model import calibrate


@pytest.fixture
def solo():
    return ucf_testbed(1)


@pytest.fixture
def pair():
    return ucf_testbed(2)


class TestSingleMachine:
    """p = 1: every collective is a no-op data-wise and near-free."""

    def test_gather(self, solo):
        outcome = run_gather(solo, 1000)
        assert outcome.values[0][0] == 1000
        assert outcome.predicted_time == 0.0

    def test_broadcast(self, solo):
        outcome = run_broadcast(solo, 1000)
        assert outcome.values[0][0] == 1000

    def test_scatter(self, solo):
        outcome = run_scatter(solo, 1000)
        assert outcome.values[0][0] == 1000

    def test_reduce(self, solo):
        outcome = run_reduce(solo, 100)
        assert outcome.values[0][0] == 100

    def test_scan(self, solo):
        outcome = run_scan(solo, 100)
        assert outcome.values[0][0] == 100

    def test_alltoall(self, solo):
        outcome = run_alltoall(solo, 1000)
        assert outcome.values[0][0] == 1000

    @pytest.mark.parametrize("strategy", ["direct", "hierarchical"])
    def test_allgather(self, solo, strategy):
        outcome = run_allgather(solo, 1000, strategy=strategy)
        assert outcome.values[0][0] == 1000

    @pytest.mark.parametrize("strategy", ["direct", "tree"])
    def test_allreduce(self, solo, strategy):
        outcome = run_allreduce(solo, 100, strategy=strategy)
        assert outcome.values[0][0] == 100


class TestEmptyProblems:
    def test_gather_zero_items(self, pair):
        outcome = run_gather(pair, 0)
        assert sum(v[0] for v in outcome.values.values()) == 0

    def test_broadcast_zero_items(self, pair):
        outcome = run_broadcast(pair, 0)
        # Nothing to send; nobody should end with phantom data.
        assert all(v[0] == 0 for v in outcome.values.values())

    def test_scatter_zero_items(self, pair):
        outcome = run_scatter(pair, 0)
        assert sum(v[0] for v in outcome.values.values()) == 0

    def test_alltoall_zero_items(self, pair):
        outcome = run_alltoall(pair, 0)
        assert sum(v[0] for v in outcome.values.values()) == 0


class TestTinyProblems:
    def test_gather_one_item(self, pair):
        outcome = run_gather(pair, 1)
        assert sum(v[0] for v in outcome.values.values()) == 1

    def test_broadcast_one_item(self, pair):
        outcome = run_broadcast(pair, 1)
        assert {v[0] for v in outcome.values.values()} == {1}

    def test_scan_width_one(self, pair):
        outcome = run_scan(pair, 1)
        assert all(v[0] == 1 for v in outcome.values.values())

    def test_reduce_width_one(self, pair):
        outcome = run_reduce(pair, 1)
        holders = [v for v in outcome.values.values() if v[0] > 0]
        assert len(holders) == 1

    def test_fewer_items_than_machines(self):
        topo = ucf_testbed(8)
        outcome = run_gather(topo, 3)
        assert sum(v[0] for v in outcome.values.values()) == 3

    def test_broadcast_fewer_items_than_machines(self):
        topo = ucf_testbed(8)
        outcome = run_broadcast(topo, 3, phases="two")
        assert {v[0] for v in outcome.values.values()} == {3}


HOSTILE = [
    (predict_scatter_cost, (100,), {"counts": [50, 50]}, "counts must have p=4"),
    (predict_scatter_cost, (100,), {"counts": [1, 1, 1, 1]}, "counts sum to 4"),
    (predict_scatter_cost, (100,), {"counts": [150, -50, 0, 0]}, "counts must be >= 0"),
    (predict_scatter_cost, (100,), {"item_bytes": 0}, "item_bytes must be >= 1"),
    (predict_scatter_cost, (-1,), {}, "n must be >= 0"),
    (predict_scatter_cost, (100,), {"root": 4}, "root 4 out of range"),
    (predict_allgather_cost, (100,), {"strategy": "direct", "counts": [50, 50]}, "counts must have p=4"),
    (predict_allgather_cost, (100,), {"strategy": "direct", "counts": [1, 1, 1, 1]}, "counts sum to 4"),
    (predict_allgather_cost, (100,), {"strategy": "direct", "item_bytes": 0}, "item_bytes must be >= 1"),
    (predict_alltoall_cost, (100,), {"counts": [50, 50]}, "counts must have p=4"),
    (predict_alltoall_cost, (100,), {"counts": [1, 1, 1, 1]}, "counts sum to 4"),
    (predict_alltoall_cost, (100,), {"item_bytes": 0}, "item_bytes must be >= 1"),
    (predict_reduce_cost, (-5,), {}, "width must be >= 0"),
    (predict_reduce_cost, (8,), {"item_bytes": 0}, "item_bytes must be >= 1"),
    (predict_allreduce_cost, (-5,), {"strategy": "direct"}, "width must be >= 0"),
    (predict_allreduce_cost, (-5,), {"strategy": "tree"}, "width must be >= 0"),
    (predict_scan_cost, (-5,), {}, "width must be >= 0"),
    (predict_scan_cost, (8,), {"item_bytes": 0}, "item_bytes must be >= 1"),
]


class TestHostilePredictorArguments:
    """The toolkit predictors reject what ``predict_gather`` rejects:
    always a ``CollectiveError`` naming the argument, never a traceback
    from inside the arithmetic or a silently priced nonsense input."""

    @pytest.mark.parametrize(
        "predict, args, kwargs, names",
        HOSTILE,
        ids=[f"{case[0].__name__}-{case[3]}" for case in HOSTILE],
    )
    def test_bad_argument_is_a_collective_error_naming_it(
        self, predict, args, kwargs, names
    ):
        params = calibrate(ucf_testbed(4))
        with pytest.raises(CollectiveError, match=re.escape(names)):
            predict(params, *args, **kwargs)
