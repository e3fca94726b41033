"""Property tests: vectorized kernels vs scalar predictors on random trees.

The acceptance bar for :mod:`repro.model.kernels` is exact float
equality — not closeness — against :mod:`repro.model.predict`, on
*randomized* HBSP^k topologies (k up to 3, arbitrary fan-outs, random
``r``/``L``/``c``).  The planner must agree with a brute-force scalar
enumeration, including tie-breaks.

The calls here go through the plan-less entry points (``evaluate``,
``predict_gather`` / ``predict_broadcast``), which are the plan
evaluators at ``default_plan`` / ``plan_from_phases``: a scalar ↔
kernel two-way, with the ledger *names* those entry points choose
included in every comparison.  The random trees are narrow (fan-outs
1–3), so ``TestGeneratedMachines`` adds the wide, uniform levels of the
generator families (8- to 16-wide), under every plan of the space.
"""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

from repro.cluster.discover.generators import GENERATORS
from repro.model.kernels import BroadcastKernel, GatherKernel, equal_counts
from repro.model.params import HBSPParams, calibrate
from repro.model.planner import best_broadcast_phases, best_root
from repro.model.predict import (
    default_counts,
    predict_broadcast,
    predict_broadcast_plan,
    predict_gather,
    predict_gather_plan,
)
from repro.tuning.space import enumerate_plans


@st.composite
def tree_params(draw):
    """Random HBSP^k parameter sets with genuine hierarchy.

    k in 1..3; every cluster draws its own fan-out (1..3, so wrapper
    clusters with a single child occur); leaf ``r`` spans [1, 8] with
    leaf 0 pinned to the normalised fastest; cluster ``r`` follows the
    coordinator convention (fastest leaf of the subtree); level-0
    fractions are speed-proportional with an exact unit sum.
    """
    k = draw(st.integers(min_value=1, max_value=3))
    nodes = {k: 1}
    fan_out = {}
    for level in range(k, 0, -1):
        total = 0
        for j in range(nodes[level]):
            fan = draw(st.integers(min_value=1, max_value=3))
            fan_out[(level, j)] = fan
            total += fan
        nodes[level - 1] = total
    p = nodes[0]
    for j in range(p):
        fan_out[(0, j)] = 0

    r_values = [1.0] + [
        draw(st.floats(min_value=1.0, max_value=8.0)) for _ in range(p - 1)
    ]
    weights = [1.0 / r for r in r_values]
    total_w = sum(weights)
    c_values = [w / total_w for w in weights]
    c_values[0] += 1.0 - sum(c_values)  # exact unit sum

    # Subtree leaf sets, bottom-up (children are contiguous DFS runs).
    leaves = [[(j,) for j in range(p)]]
    for level in range(1, k + 1):
        row, offset = [], 0
        for j in range(nodes[level]):
            merged = []
            for c_index in range(fan_out[(level, j)]):
                merged.extend(leaves[level - 1][offset + c_index])
            row.append(tuple(merged))
            offset += fan_out[(level, j)]
        leaves.append(row)

    r = {(0, j): r_values[j] for j in range(p)}
    c = {(0, j): c_values[j] for j in range(p)}
    L = {}
    for level in range(1, k + 1):
        for j in range(nodes[level]):
            subtree = leaves[level][j]
            r[(level, j)] = min(r_values[leaf] for leaf in subtree)
            c[(level, j)] = math.fsum(c_values[leaf] for leaf in subtree)
            L[(level, j)] = draw(st.floats(min_value=0.0, max_value=0.01))

    return HBSPParams(
        k=k,
        g=draw(st.floats(min_value=1e-9, max_value=1e-6)),
        m=tuple(nodes[level] for level in range(k + 1)),
        r=r,
        L=L,
        c=c,
        fan_out=fan_out,
    )


ns_lists = st.lists(
    st.integers(min_value=0, max_value=1_000_000), min_size=1, max_size=4
)


def assert_ledger_identical(expected, actual):
    assert actual.name == expected.name
    assert len(actual.steps) == len(expected.steps)
    for got, want in zip(actual.steps, expected.steps):
        assert got.label == want.label
        assert got.level == want.level
        assert got.w == want.w
        assert got.gh == want.gh
        assert got.L == want.L
    assert actual.total == expected.total


class TestKernelScalarEquality:
    @given(params=tree_params(), ns=ns_lists, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_gather_bit_identical(self, params, ns, data):
        roots = [
            data.draw(st.integers(min_value=0, max_value=params.p - 1))
            for _ in ns
        ]
        grid = GatherKernel(params).evaluate(
            np.array(ns, dtype=np.int64), roots=np.array(roots, dtype=np.int64)
        )
        for i, (n, root) in enumerate(zip(ns, roots)):
            expected = predict_gather(params, n, root=root)
            assert_ledger_identical(expected, grid.ledger(i))
            assert grid.totals[i] == expected.total

    @given(params=tree_params(), ns=ns_lists)
    @settings(max_examples=40, deadline=None)
    def test_gather_equal_counts_bit_identical(self, params, ns):
        ns_arr = np.array(ns, dtype=np.int64)
        counts = equal_counts(params, ns_arr)
        grid = GatherKernel(params).evaluate(ns_arr, counts=counts)
        for i, n in enumerate(ns):
            expected = predict_gather(
                params, n, counts=default_counts(params.with_equal_fractions(), n)
            )
            assert_ledger_identical(expected, grid.ledger(i))

    @given(params=tree_params(), ns=ns_lists, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_broadcast_bit_identical(self, params, ns, data):
        roots = [
            data.draw(st.integers(min_value=0, max_value=params.p - 1))
            for _ in ns
        ]
        specs = [
            {
                level: data.draw(st.sampled_from(("one", "two")))
                for level in range(1, params.k + 1)
            }
            for _ in ns
        ]
        grid = BroadcastKernel(params).evaluate(
            np.array(ns, dtype=np.int64),
            roots=np.array(roots, dtype=np.int64),
            phases=specs,
        )
        for i, (n, root) in enumerate(zip(ns, roots)):
            expected = predict_broadcast(params, n, root=root, phases=specs[i])
            assert_ledger_identical(expected, grid.ledger(i))
            assert grid.totals[i] == expected.total

    @given(
        params=tree_params(),
        n=st.integers(min_value=0, max_value=1_000_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_broadcast_weighted_fractions_bit_identical(self, params, n):
        fractions = [params.c_of(0, j) for j in range(params.p)]
        grid = BroadcastKernel(params).evaluate(
            np.array([n], dtype=np.int64), phases="two", fractions=fractions
        )
        expected = predict_broadcast(params, n, phases="two", fractions=fractions)
        assert_ledger_identical(expected, grid.ledger(0))


class TestPlannerBruteForceAgreement:
    @given(params=tree_params(), n=st.integers(min_value=0, max_value=1_000_000))
    @settings(max_examples=25, deadline=None)
    def test_best_broadcast_phases(self, params, n):
        """The batched 2^k enumeration picks what a scalar scan picks —
        same spec (ties break to the first combination) and the exact
        scalar ledger for it."""
        combos = itertools.product(("one", "two"), repeat=params.k)
        best_spec, best_total = None, None
        for combo in combos:
            spec = {level: combo[level - 1] for level in range(1, params.k + 1)}
            total = predict_broadcast(params, n, phases=spec).total
            if best_total is None or total < best_total:
                best_spec, best_total = spec, total
        spec, ledger = best_broadcast_phases(params, n)
        assert spec == best_spec
        assert ledger.total == best_total
        assert_ledger_identical(
            predict_broadcast(params, n, phases=best_spec), ledger
        )

    @given(
        params=tree_params(),
        n=st.integers(min_value=0, max_value=1_000_000),
        collective=st.sampled_from(("gather", "broadcast")),
    )
    @settings(max_examples=25, deadline=None)
    def test_best_root(self, params, n, collective):
        predict = predict_gather if collective == "gather" else predict_broadcast
        best_root_scalar, best_total = None, None
        for root in range(params.p):
            total = predict(params, n, root=root).total
            if best_total is None or total < best_total:
                best_root_scalar, best_total = root, total
        root, ledger = best_root(params, n, collective=collective)
        assert root == best_root_scalar
        assert ledger.total == best_total
        assert_ledger_identical(predict(params, n, root=root), ledger)


class TestGeneratedMachines:
    """Every plan of the space on each generator family's machine: sizes
    0, 1 and an odd one, at the fastest, a middle and the slowest root."""

    @pytest.mark.parametrize("family", sorted(GENERATORS))
    @pytest.mark.parametrize("op", ["gather", "broadcast"])
    def test_every_plan_bit_identical(self, family, op):
        params = calibrate(GENERATORS[family](seed=0))
        kernel, predict = {
            "gather": (GatherKernel, predict_gather_plan),
            "broadcast": (BroadcastKernel, predict_broadcast_plan),
        }[op]
        roots = [params.table.fastest, params.p // 2, params.slowest_index(0)]
        points = [
            (plan, n, root)
            for plan in enumerate_plans(op, params.k)
            for n in (0, 1, 100_003)
            for root in roots
        ]
        grid = kernel(params).evaluate_plans(
            np.array([n for _, n, _ in points], dtype=np.int64),
            [plan for plan, _, _ in points],
            roots=np.array([root for _, _, root in points], dtype=np.int64),
        )
        for i, (plan, n, root) in enumerate(points):
            expected = predict(params, n, plan, root=root)
            assert_ledger_identical(expected, grid.ledger(i))
            assert grid.totals[i] == expected.total
