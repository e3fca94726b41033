"""Tests for schedule-space enumeration."""

import pytest

from repro.errors import CollectiveError
from repro.tuning import (
    DEFAULT_SEGMENTS,
    default_plan,
    enumerate_plans,
    level_choices,
)


class TestLevelChoices:
    def test_gather_choices(self):
        keys = [c.key for c in level_choices("gather")]
        assert keys == ["flat", "flat/2", "flat/4", "binomial"]

    def test_broadcast_choices(self):
        keys = [c.key for c in level_choices("broadcast")]
        assert keys == ["one", "one/2", "one/4", "two", "binomial"]

    def test_unknown_op(self):
        with pytest.raises(CollectiveError, match="op must be"):
            level_choices("scatter")

    def test_segment_one_always_included(self):
        keys = [c.key for c in level_choices("gather", segments=(8,))]
        assert keys == ["flat", "flat/8", "binomial"]

    def test_bad_segments_rejected(self):
        for bad in ((), (0,), (2, 2), (-1, 3)):
            with pytest.raises(CollectiveError, match="distinct positive"):
                level_choices("gather", segments=bad)


class TestEnumeratePlans:
    def test_counts_match_space_size(self):
        for op, base in (("gather", 4), ("broadcast", 5)):
            for k in (0, 1, 2, 3):
                plans = enumerate_plans(op, k)
                assert len(plans) == base ** k
                assert len(set(p.key for p in plans)) == len(plans)

    def test_default_plan_sorted_first(self):
        for op in ("gather", "broadcast"):
            for k in (1, 2, 3):
                assert enumerate_plans(op, k)[0] == default_plan(op, k)

    def test_every_plan_matches_op_and_k(self):
        for plan in enumerate_plans("broadcast", 2):
            assert plan.op == "broadcast"
            assert plan.k == 2

    def test_negative_k_rejected(self):
        with pytest.raises(CollectiveError, match="k must be"):
            enumerate_plans("gather", -1)

    def test_custom_segments_shrink_the_space(self):
        plans = enumerate_plans("gather", 2, segments=(1,))
        assert len(plans) == 4  # {flat, binomial}^2
        assert DEFAULT_SEGMENTS == (1, 2, 4)
