"""Unit tests for the vectorized analytic cost kernels.

The contract under test is *bit-identity*: every ledger a kernel grid
reconstructs — names, labels, levels, and each float component — must
equal the scalar ``predict_*`` output exactly, not approximately.  The
plan-less ``evaluate`` / ``predict_*`` pair exercised here is the
plan-aware pair of ``test_plan_kernels.py`` at the paper's hand
schedule, so this file is the same scalar ↔ kernel two-way through the
other entry points — and the two must also *reject* the same inputs.
"""

import itertools

import numpy as np
import pytest

from repro.cluster.presets import grid_three_level, smp_sgi_lan, ucf_testbed
from repro.errors import CollectiveError, ModelError
from repro.model.kernels import (
    BroadcastKernel,
    GatherKernel,
    balanced_counts,
    equal_counts,
)
from repro.model.params import calibrate
from repro.model.predict import (
    default_counts,
    predict_broadcast,
    predict_broadcast_plan,
    predict_gather,
    predict_gather_plan,
)
from repro.tuning import default_plan

NS = [0, 1, 7, 1000, 128_000]


def assert_ledger_identical(expected, actual):
    """Exact equality on every ledger component (no tolerances)."""
    assert actual.name == expected.name
    assert len(actual.steps) == len(expected.steps)
    for got, want in zip(actual.steps, expected.steps):
        assert got.label == want.label
        assert got.level == want.level
        assert got.w == want.w
        assert got.gh == want.gh
        assert got.L == want.L
    assert actual.total == expected.total


@pytest.fixture(scope="module")
def params_by_name():
    return {
        "testbed": calibrate(ucf_testbed(10)),
        "fig1": calibrate(smp_sgi_lan()),
        "grid3": calibrate(grid_three_level(2, 2, 2)),
    }


class TestGatherKernel:
    @pytest.mark.parametrize("name", ["testbed", "fig1", "grid3"])
    def test_bit_identical_over_ns_and_roots(self, params_by_name, name):
        params = params_by_name[name]
        points = [(n, root) for n in NS for root in range(params.p)]
        ns = np.array([n for n, _ in points], dtype=np.int64)
        roots = np.array([root for _, root in points], dtype=np.int64)
        grid = GatherKernel(params).evaluate(ns, roots=roots)
        for i, (n, root) in enumerate(points):
            assert_ledger_identical(
                predict_gather(params, n, root=root), grid.ledger(i)
            )
            assert grid.totals[i] == predict_gather(params, n, root=root).total

    def test_default_root_is_fastest(self, params_by_name):
        params = params_by_name["testbed"]
        grid = GatherKernel(params).evaluate(np.array([1000]))
        assert_ledger_identical(predict_gather(params, 1000), grid.ledger(0))

    def test_explicit_counts(self, params_by_name):
        params = params_by_name["fig1"]
        n = 4097
        counts = default_counts(params.with_equal_fractions(), n)
        grid = GatherKernel(params).evaluate(
            np.array([n]), counts=np.array([counts], dtype=np.int64)
        )
        assert_ledger_identical(
            predict_gather(params, n, counts=counts), grid.ledger(0)
        )

    def test_negative_n_rejected(self, params_by_name):
        with pytest.raises(CollectiveError, match="n must be >= 0"):
            GatherKernel(params_by_name["testbed"]).evaluate(np.array([5, -1]))

    def test_bad_root_rejected(self, params_by_name):
        with pytest.raises(CollectiveError, match="out of range"):
            GatherKernel(params_by_name["testbed"]).evaluate(
                np.array([5]), roots=np.array([99])
            )

    def test_count_sum_mismatch_rejected(self, params_by_name):
        params = params_by_name["testbed"]
        bad = np.zeros((1, params.p), dtype=np.int64)
        with pytest.raises(CollectiveError, match="sum"):
            GatherKernel(params).evaluate(np.array([10]), counts=bad)

    def test_empty_grid(self, params_by_name):
        grid = GatherKernel(params_by_name["testbed"]).evaluate(np.array([], dtype=np.int64))
        assert grid.size == 0
        assert grid.totals.shape == (0,)
        assert grid.ledgers() == []

    def test_ledger_index_out_of_range(self, params_by_name):
        grid = GatherKernel(params_by_name["testbed"]).evaluate(np.array([10]))
        with pytest.raises(ModelError, match="out of range"):
            grid.ledger(1)


class TestBroadcastKernel:
    @pytest.mark.parametrize("name", ["testbed", "fig1", "grid3"])
    def test_bit_identical_over_phase_combos(self, params_by_name, name):
        params = params_by_name[name]
        combos = list(itertools.product(("one", "two"), repeat=params.k))
        points = [
            (n, root, combo)
            for n in NS
            for root in range(params.p)
            for combo in combos
        ]
        specs = [
            {level: combo[level - 1] for level in range(1, params.k + 1)}
            for _, _, combo in points
        ]
        ns = np.array([n for n, _, _ in points], dtype=np.int64)
        roots = np.array([root for _, root, _ in points], dtype=np.int64)
        grid = BroadcastKernel(params).evaluate(ns, roots=roots, phases=specs)
        for i, (n, root, _combo) in enumerate(points):
            expected = predict_broadcast(params, n, root=root, phases=specs[i])
            assert_ledger_identical(expected, grid.ledger(i))
            assert grid.totals[i] == expected.total

    @pytest.mark.parametrize("phases", ["one", "two"])
    def test_string_phase_spec(self, params_by_name, phases):
        params = params_by_name["fig1"]
        grid = BroadcastKernel(params).evaluate(
            np.array([25_600]), phases=phases
        )
        assert_ledger_identical(
            predict_broadcast(params, 25_600, phases=phases), grid.ledger(0)
        )

    def test_weighted_fractions(self, params_by_name):
        params = params_by_name["testbed"]
        fractions = [params.c_of(0, j) for j in range(params.p)]
        grid = BroadcastKernel(params).evaluate(
            np.array([12_345]), phases="two", fractions=fractions
        )
        assert_ledger_identical(
            predict_broadcast(params, 12_345, phases="two", fractions=fractions),
            grid.ledger(0),
        )

    def test_n_zero_gives_empty_ledger(self, params_by_name):
        params = params_by_name["testbed"]
        grid = BroadcastKernel(params).evaluate(np.array([0, 100]))
        assert grid.ledger(0).steps == []
        assert grid.totals[0] == 0.0
        assert grid.ledger(1).steps != []

    def test_invalid_phase_rejected(self, params_by_name):
        with pytest.raises(CollectiveError, match="phase must be"):
            BroadcastKernel(params_by_name["testbed"]).evaluate(
                np.array([10]), phases="three"
            )

    def test_wrong_length_phase_sequence_rejected(self, params_by_name):
        with pytest.raises(CollectiveError, match="length"):
            BroadcastKernel(params_by_name["testbed"]).evaluate(
                np.array([10, 20]), phases=["one"]
            )

    def test_wrong_fraction_length_rejected(self, params_by_name):
        with pytest.raises(CollectiveError, match="fractions"):
            BroadcastKernel(params_by_name["testbed"]).evaluate(
                np.array([10]), fractions=[0.5, 0.5]
            )


#: (id, scalar call, kernel call) — each must raise the same CollectiveError.
#: On the Fig. 1 machine (p = 9, k = 2).
HOSTILE = [
    (
        "negative-count",
        lambda p: predict_gather(p, 10, counts=[20, -10, 0, 0, 0, 0, 0, 0, 0]),
        lambda p: GatherKernel(p).evaluate(
            [10], counts=[[20, -10, 0, 0, 0, 0, 0, 0, 0]]
        ),
    ),
    (
        "count-sum",
        lambda p: predict_gather(p, 10, counts=[1] * 9),
        lambda p: GatherKernel(p).evaluate([10], counts=[[1] * 9]),
    ),
    (
        "negative-n",
        lambda p: predict_gather(p, -3),
        lambda p: GatherKernel(p).evaluate([5, -3]),
    ),
    (
        "root-out-of-range",
        lambda p: predict_broadcast(p, 10, root=9),
        lambda p: BroadcastKernel(p).evaluate([10], roots=9),
    ),
    (
        "gather-item-bytes",
        lambda p: predict_gather(p, 10, item_bytes=-4),
        lambda p: GatherKernel(p, item_bytes=-4),
    ),
    (
        "broadcast-item-bytes",
        lambda p: predict_broadcast(p, 10, item_bytes=0),
        lambda p: BroadcastKernel(p, item_bytes=0),
    ),
    (
        "fractions-length-without-a-two-phase-level",
        lambda p: predict_broadcast(p, 10, phases="one", fractions=[0.5, 0.5]),
        lambda p: BroadcastKernel(p).evaluate(
            [10], phases="one", fractions=[0.5, 0.5]
        ),
    ),
    (
        "unknown-phase-at-n-zero",
        lambda p: predict_broadcast(p, 0, phases="three"),
        lambda p: BroadcastKernel(p).evaluate([0], phases="three"),
    ),
    (
        "phases-not-a-spec",
        lambda p: predict_broadcast(p, 10, phases=None),
        lambda p: BroadcastKernel(p).evaluate([10], phases=None),
    ),
    (
        "plan-for-the-other-op",
        lambda p: predict_gather_plan(p, 10, default_plan("broadcast", 2)),
        lambda p: GatherKernel(p).evaluate_plans(
            [10], default_plan("broadcast", 2)
        ),
    ),
    (
        "plan-for-another-k",
        lambda p: predict_broadcast_plan(p, 10, default_plan("broadcast", 3)),
        lambda p: BroadcastKernel(p).evaluate_plans(
            [10], default_plan("broadcast", 3)
        ),
    ),
    (
        "plan-not-a-plan",
        lambda p: predict_gather_plan(p, 10, "flat"),
        lambda p: GatherKernel(p).evaluate_plans([10], ["flat"]),
    ),
]


class TestHostileInputs:
    """Both representations reject the same inputs, the same way.

    Before the checks were shared, the kernel priced a negative count
    (``0.0114034``) and a negative ``item_bytes``, the scalar priced a
    wrong-length ``fractions`` (``0.0115672``) and an unknown phase at
    ``n = 0`` (``0.0``), and where both raised it was not always a
    ``CollectiveError`` naming the argument.
    """

    @pytest.mark.parametrize(
        "scalar, kernel",
        [case[1:] for case in HOSTILE],
        ids=[case[0] for case in HOSTILE],
    )
    def test_scalar_and_kernel_raise_the_same_error(
        self, params_by_name, scalar, kernel
    ):
        params = params_by_name["fig1"]
        with pytest.raises(CollectiveError) as from_scalar:
            scalar(params)
        with pytest.raises(CollectiveError) as from_kernel:
            kernel(params)
        assert str(from_kernel.value) == str(from_scalar.value)

    def test_the_error_names_the_argument(self, params_by_name):
        params = params_by_name["fig1"]
        with pytest.raises(CollectiveError, match="item_bytes must be >= 1, got -4"):
            GatherKernel(params, item_bytes=-4)
        with pytest.raises(CollectiveError, match="counts must be >= 0, got -10"):
            predict_gather(params, 10, counts=[20, -10, 0, 0, 0, 0, 0, 0, 0])


class TestCountHelpers:
    def test_balanced_matches_default_counts(self, params_by_name):
        params = params_by_name["testbed"]
        ns = np.array([0, 17, 128_000])
        table = balanced_counts(params, ns)
        for row, n in zip(table, ns):
            assert list(row) == default_counts(params, int(n))

    def test_equal_counts_near_uniform(self, params_by_name):
        params = params_by_name["testbed"]
        table = equal_counts(params, np.array([1000]))
        assert table.sum() == 1000
        assert table.max() - table.min() <= 1

    def test_unique_n_computed_once(self, params_by_name):
        """Duplicated sizes share one scalar partition (shape contract)."""
        params = params_by_name["testbed"]
        table = balanced_counts(params, np.array([500, 500, 500]))
        assert (table[0] == table[1]).all() and (table[1] == table[2]).all()


class TestKernelGridApi:
    def test_repr_mentions_points(self, params_by_name):
        grid = GatherKernel(params_by_name["testbed"]).evaluate(np.array([10, 20]))
        assert "points=2" in repr(grid)

    def test_totals_match_ledger_totals(self, params_by_name):
        """grid.totals must be the fsum the reconstructed ledgers report,
        including on k=3 machines where more than two steps accumulate."""
        params = params_by_name["grid3"]
        ns = np.array([1, 999, 65_536], dtype=np.int64)
        for grid in (
            GatherKernel(params).evaluate(ns),
            BroadcastKernel(params).evaluate(ns),
        ):
            for i in range(grid.size):
                assert grid.totals[i] == grid.ledger(i).total
