"""Unit tests for repro.bytemark's ranking, fractions and partitions."""

import pytest

from repro.bytemark import fractions_from_scores, partition_items, ranking_from_scores
from repro.errors import PartitionError, ValidationError


class TestRanking:
    def test_fastest_first(self):
        ranking = ranking_from_scores({"slow": 1.0, "fast": 10.0, "mid": 5.0})
        assert ranking == ["fast", "mid", "slow"]

    def test_ties_broken_by_name(self):
        ranking = ranking_from_scores({"b": 1.0, "a": 1.0})
        assert ranking == ["a", "b"]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ranking_from_scores({})

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_scores_rejected(self, bad):
        with pytest.raises(ValidationError):
            ranking_from_scores({"x": bad})


class TestFractions:
    def test_proportional(self):
        fractions = fractions_from_scores({"a": 3.0, "b": 1.0})
        assert fractions["a"] == pytest.approx(0.75)
        assert fractions["b"] == pytest.approx(0.25)

    def test_sum_to_one_within_ulp(self):
        scores = {f"m{i}": 1.0 + 0.1 * i for i in range(17)}
        fractions = fractions_from_scores(scores)
        import math

        assert abs(math.fsum(fractions.values()) - 1.0) < 1e-12

    def test_faster_gets_more(self):
        fractions = fractions_from_scores({"fast": 10.0, "slow": 2.5})
        assert fractions["fast"] > fractions["slow"]
        assert fractions["fast"] / fractions["slow"] == pytest.approx(4.0)


class TestPartitionItems:
    def test_conserves_n(self):
        part = partition_items(1000, {"a": 0.5, "b": 0.3, "c": 0.2})
        assert sum(part.values()) == 1000

    def test_proportionality_within_one(self):
        fractions = {"a": 0.61803, "b": 0.38197}
        part = partition_items(999, fractions)
        for name, fraction in fractions.items():
            assert abs(part[name] - 999 * fraction) < 1.0

    def test_deterministic(self):
        fractions = {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}
        assert partition_items(100, fractions) == partition_items(100, fractions)

    def test_zero_items(self):
        part = partition_items(0, {"a": 0.5, "b": 0.5})
        assert part == {"a": 0, "b": 0}

    def test_n_smaller_than_machines(self):
        part = partition_items(2, {"a": 0.4, "b": 0.35, "c": 0.25})
        assert sum(part.values()) == 2
        assert all(v >= 0 for v in part.values())

    def test_bad_sum_rejected(self):
        with pytest.raises(PartitionError, match="sum to 1"):
            partition_items(10, {"a": 0.5, "b": 0.4})

    def test_negative_fraction_rejected(self):
        with pytest.raises(PartitionError):
            partition_items(10, {"a": 1.5, "b": -0.5})

    def test_empty_rejected(self):
        with pytest.raises(PartitionError):
            partition_items(10, {})

    def test_single_machine_gets_all(self):
        assert partition_items(42, {"only": 1.0}) == {"only": 42}

    def test_ties_resolved_by_name(self):
        # 3 items over 2 equal halves: the extra goes to 'a'.
        part = partition_items(3, {"a": 0.5, "b": 0.5})
        assert part == {"a": 2, "b": 1}
