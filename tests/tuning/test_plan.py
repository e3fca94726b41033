"""Tests for the declarative schedule plans."""

import pytest

from repro.errors import CollectiveError
from repro.tuning import (
    LevelSchedule,
    SchedulePlan,
    binomial_rounds,
    default_plan,
    plan_from_phases,
    split_segments,
)


class TestLevelSchedule:
    def test_key_formats(self):
        assert LevelSchedule("flat").key == "flat"
        assert LevelSchedule("flat", 4).key == "flat/4"
        assert LevelSchedule("binomial").key == "binomial"

    def test_validated_rejects_wrong_op_algorithm(self):
        with pytest.raises(CollectiveError, match="unknown gather"):
            LevelSchedule("two").validated("gather")
        with pytest.raises(CollectiveError, match="unknown broadcast"):
            LevelSchedule("flat").validated("broadcast")

    def test_validated_rejects_bad_segments(self):
        with pytest.raises(CollectiveError, match="positive int"):
            LevelSchedule("flat", 0).validated("gather")
        with pytest.raises(CollectiveError, match="positive int"):
            LevelSchedule("one", -2).validated("broadcast")

    def test_segmentation_only_on_segmentable_algorithms(self):
        LevelSchedule("flat", 4).validated("gather")
        LevelSchedule("one", 2).validated("broadcast")
        for algorithm, op in (("binomial", "gather"), ("two", "broadcast"),
                              ("binomial", "broadcast")):
            with pytest.raises(CollectiveError, match="segmentation"):
                LevelSchedule(algorithm, 2).validated(op)

    def test_round_trip(self):
        for schedule in (LevelSchedule("flat"), LevelSchedule("one", 8)):
            assert LevelSchedule.from_dict(schedule.to_dict()) == schedule


class TestSchedulePlan:
    def test_key_and_str(self):
        plan = SchedulePlan(
            "gather", (LevelSchedule("flat", 2), LevelSchedule("binomial"))
        )
        assert plan.key == "gather:flat/2|binomial"
        assert str(plan) == plan.key
        assert plan.k == 2

    def test_level_is_one_based(self):
        plan = SchedulePlan(
            "broadcast", (LevelSchedule("one"), LevelSchedule("two"))
        )
        assert plan.level(1).algorithm == "one"
        assert plan.level(2).algorithm == "two"
        for bad in (0, 3, -1):
            with pytest.raises(CollectiveError, match="out of range"):
                plan.level(bad)

    def test_rejects_unknown_op(self):
        with pytest.raises(CollectiveError, match="op must be"):
            SchedulePlan("scatter", (LevelSchedule("flat"),))

    def test_validates_levels_against_op(self):
        with pytest.raises(CollectiveError, match="unknown gather"):
            SchedulePlan("gather", (LevelSchedule("two"),))

    def test_round_trip(self):
        plan = SchedulePlan(
            "broadcast",
            (LevelSchedule("one", 4), LevelSchedule("binomial"),
             LevelSchedule("two")),
        )
        assert SchedulePlan.from_dict(plan.to_dict()) == plan

    def test_default_plan_is_default(self):
        for op in ("gather", "broadcast"):
            for k in (1, 2, 3):
                plan = default_plan(op, k)
                assert plan.k == k
                assert plan.is_default
        assert default_plan("gather", 2).key == "gather:flat|flat"
        assert default_plan("broadcast", 2).key == "broadcast:two|two"
        tweaked = SchedulePlan(
            "gather", (LevelSchedule("flat"), LevelSchedule("binomial"))
        )
        assert not tweaked.is_default


class TestHelpers:
    def test_split_segments_sums_and_shape(self):
        assert split_segments(10, 4) == [3, 3, 2, 2]
        assert split_segments(4000, 3) == [1334, 1333, 1333]
        assert split_segments(2, 4) == [1, 1, 0, 0]
        for total, segments in ((0, 1), (7, 2), (4000, 7)):
            chunks = split_segments(total, segments)
            assert sum(chunks) == total
            assert len(chunks) == segments
            assert max(chunks) - min(chunks) <= 1

    def test_binomial_rounds(self):
        assert [binomial_rounds(c) for c in (0, 1, 2, 3, 4, 5, 8, 9)] == [
            0, 0, 1, 2, 2, 3, 3, 4,
        ]


class TestPlanFromPhases:
    """The one parser of ``"one"|"two"|{level: …}`` phase specs."""

    def test_a_string_schedules_every_level(self):
        assert plan_from_phases("one", 3).key == "broadcast:one|one|one"
        assert plan_from_phases("two", 2) == default_plan("broadcast", 2)
        assert plan_from_phases("one", 0).levels == ()

    def test_a_partial_map_defaults_to_two_and_ignores_levels_past_k(self):
        assert plan_from_phases({2: "one"}, 3).key == "broadcast:two|one|two"
        assert plan_from_phases({}, 2) == default_plan("broadcast", 2)
        assert plan_from_phases({1: "one", 3: "one"}, 2).key == "broadcast:one|two"
        # An entry no level reads is not parsed, as before the fold.
        assert plan_from_phases({5: "three"}, 2) == default_plan("broadcast", 2)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_an_unknown_scheme_is_rejected_on_any_k(self, k):
        with pytest.raises(CollectiveError, match="'one' or 'two', got 'three'"):
            plan_from_phases("three", k)

    def test_an_unknown_scheme_in_a_map_is_rejected(self):
        with pytest.raises(CollectiveError, match="got 'binomial'"):
            plan_from_phases({1: "binomial"}, 2)

    @pytest.mark.parametrize("spec", [None, 2, ["one", "two"]])
    def test_a_spec_of_the_wrong_shape_is_rejected(self, spec):
        with pytest.raises(CollectiveError, match="phases must be"):
            plan_from_phases(spec, 2)
