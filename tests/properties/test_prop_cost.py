"""Property tests: cost-model algebra."""

from hypothesis import given
from hypothesis import strategies as st

from repro.model import CostLedger, h_relation, superstep_cost

loads_strategy = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=1e9),
    ),
    max_size=32,
)


class TestHRelationAlgebra:
    @given(loads=loads_strategy)
    def test_non_negative(self, loads):
        assert h_relation(loads) >= 0.0

    @given(loads=loads_strategy)
    def test_dominates_every_participant(self, loads):
        h = h_relation(loads)
        for r, volume in loads:
            assert h >= r * volume - 1e-9

    @given(loads=loads_strategy)
    def test_achieved_by_some_participant(self, loads):
        h = h_relation(loads)
        if loads:
            assert any(abs(h - r * v) < 1e-9 * max(1.0, h) for r, v in loads)

    @given(loads=loads_strategy, extra=st.tuples(
        st.floats(min_value=1.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=1e9),
    ))
    def test_monotone_in_participants(self, loads, extra):
        assert h_relation(loads + [extra]) >= h_relation(loads)

    @given(loads=loads_strategy, scale=st.floats(min_value=0.0, max_value=10.0))
    def test_homogeneous_in_volume(self, loads, scale):
        scaled = [(r, v * scale) for r, v in loads]
        assert abs(h_relation(scaled) - scale * h_relation(loads)) <= 1e-6 * max(
            1.0, h_relation(loads) * scale
        )

    @given(loads=loads_strategy)
    def test_permutation_invariant(self, loads):
        assert h_relation(loads) == h_relation(list(reversed(loads)))


steps_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.floats(min_value=0, max_value=1e3),
        st.floats(min_value=0, max_value=1e3),
        st.floats(min_value=0, max_value=1e3),
    ),
    max_size=16,
)


class TestLedgerAlgebra:
    @given(steps=steps_strategy)
    def test_total_is_component_sum(self, steps):
        ledger = CostLedger()
        for level, w, gh, L in steps:
            ledger.charge("s", level=level, w=w, gh=gh, L=L)
        assert abs(
            ledger.total
            - (ledger.component("w") + ledger.component("gh") + ledger.component("L"))
        ) < 1e-6

    @given(steps=steps_strategy)
    def test_extend_is_additive(self, steps):
        a = CostLedger("a")
        b = CostLedger("b")
        for i, (level, w, gh, L) in enumerate(steps):
            target = a if i % 2 == 0 else b
            target.charge("s", level=level, w=w, gh=gh, L=L)
        combined = CostLedger("c")
        combined.extend(a)
        combined.extend(b)
        assert abs(combined.total - (a.total + b.total)) < 1e-9

    @given(steps=steps_strategy)
    def test_hierarchy_penalty_bounded_by_total(self, steps):
        ledger = CostLedger()
        for level, w, gh, L in steps:
            ledger.charge("s", level=level, w=w, gh=gh, L=L)
        assert 0.0 <= ledger.hierarchy_penalty() <= ledger.total + 1e-9

    @given(
        w=st.floats(min_value=0, max_value=1e6),
        g=st.floats(min_value=0, max_value=1e3),
        h=st.floats(min_value=0, max_value=1e6),
        L=st.floats(min_value=0, max_value=1e6),
    )
    def test_superstep_cost_monotone(self, w, g, h, L):
        base = superstep_cost(w, g, h, L)
        assert superstep_cost(w + 1, g, h, L) >= base
        assert superstep_cost(w, g, h + 1, L) >= base
        assert superstep_cost(w, g, h, L + 1) > base
