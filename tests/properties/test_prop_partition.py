"""Property tests: workload partitioning invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytemark import fractions_from_scores, partition_items
from repro.hbsplib import equal_partition, proportional_partition

scores_strategy = st.dictionaries(
    st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=8),
    st.floats(min_value=1e-3, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=16,
)


class TestFractionInvariants:
    @given(scores=scores_strategy)
    def test_fractions_sum_to_one_within_ulp(self, scores):
        fractions = fractions_from_scores(scores)
        assert abs(math.fsum(fractions.values()) - 1.0) < 1e-12

    @given(scores=scores_strategy)
    def test_fractions_order_matches_scores(self, scores):
        fractions = fractions_from_scores(scores)
        names = sorted(scores, key=lambda n: scores[n])
        for a, b in zip(names, names[1:]):
            if scores[a] < scores[b]:
                assert fractions[a] <= fractions[b] + 1e-15

    @given(scores=scores_strategy, scale=st.floats(min_value=0.1, max_value=10))
    def test_fractions_scale_invariant(self, scores, scale):
        base = fractions_from_scores(scores)
        scaled = fractions_from_scores({k: v * scale for k, v in scores.items()})
        for name in scores:
            assert abs(base[name] - scaled[name]) < 1e-9


class TestPartitionInvariants:
    @given(scores=scores_strategy, n=st.integers(min_value=0, max_value=10**7))
    def test_partition_conserves_n(self, scores, n):
        part = partition_items(n, fractions_from_scores(scores))
        assert sum(part.values()) == n
        assert all(v >= 0 for v in part.values())

    @given(scores=scores_strategy, n=st.integers(min_value=1, max_value=10**6))
    def test_partition_within_one_of_ideal(self, scores, n):
        fractions = fractions_from_scores(scores)
        part = partition_items(n, fractions)
        for name, fraction in fractions.items():
            assert abs(part[name] - n * fraction) < 1.0 + 1e-9

    @given(
        n=st.integers(min_value=0, max_value=10**6),
        p=st.integers(min_value=1, max_value=64),
    )
    def test_equal_partition_invariants(self, n, p):
        counts = equal_partition(n, p)
        assert len(counts) == p
        assert sum(counts) == n
        assert max(counts) - min(counts) <= 1
        # Non-increasing: leftovers go to the lowest pids.
        assert counts == sorted(counts, reverse=True)

    @given(
        n=st.integers(min_value=0, max_value=10**6),
        weights=st.lists(
            st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=32,
        ),
    )
    def test_proportional_partition_invariants(self, n, weights):
        total = math.fsum(weights)
        fractions = [w / total for w in weights]
        # Normalise the residue like fractions_from_scores does.
        fractions[max(range(len(fractions)), key=lambda i: fractions[i])] += (
            1.0 - math.fsum(fractions)
        )
        counts = proportional_partition(n, fractions)
        assert sum(counts) == n
        for count, fraction in zip(counts, fractions):
            assert abs(count - n * fraction) <= 1.0 + 1e-9
