"""Bit-identity of the plan evaluators: kernels vs the scalar reference.

Two layers price a :class:`~repro.tuning.plan.SchedulePlan` and must
agree exactly (every float, label, and level — no tolerances):

* ``predict_gather_plan`` / ``predict_broadcast_plan`` — the scalar
  reference;
* ``GatherKernel.evaluate_plans`` / ``BroadcastKernel.evaluate_plans``
  — the vectorized grids the tuner prices candidate spaces with.

The plan-less ``predict_gather`` / ``predict_broadcast`` /
``Kernel.evaluate`` are those same functions at ``default_plan`` /
``plan_from_phases``: ``TestScalarPlanVsLegacy`` holds what such a
wrapper can get wrong — which plan it resolves to and what it names the
ledger — while the arithmetic they used to duplicate is pinned float for
float in ``tests/integration/test_regression_snapshot.py``.

The hypothesis section drives both layers over random k<=3 machines.

``evaluate_plans`` prices each distinct ``(level, LevelSchedule)`` once
over the distinct points and assembles plans by gathering columns, so
two more things are held here: the pass count (host-independent), and
identity on *heterogeneous* grids where the column gather has more
than one point and more than one plan per point to get wrong.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterTopology, MachineSpec, NetworkSpec
from repro.cluster.presets import grid_three_level, smp_sgi_lan, ucf_testbed
from repro.errors import CollectiveError, ModelError
from repro.model.kernels import BroadcastKernel, GatherKernel
from repro.model.params import calibrate
from repro.model.predict import (
    predict_broadcast,
    predict_broadcast_plan,
    predict_gather,
    predict_gather_plan,
)
from repro.model.planner import rank_plans, score_plans
from repro.tuning import default_plan, enumerate_plans, plan_from_phases
from repro.tuning.space import level_choices

from tests.model.test_kernels import assert_ledger_identical

NS = [0, 1, 7, 1000, 25_600]


@pytest.fixture(scope="module")
def params_by_name():
    return {
        "testbed": calibrate(ucf_testbed(6)),
        "fig1": calibrate(smp_sgi_lan()),
        "grid3": calibrate(grid_three_level(2, 2, 2)),
    }


# ---------------------------------------------------------------------------
# Random k<=3 machines (bounded sizes so each example stays cheap)
# ---------------------------------------------------------------------------

_counter = 0


def _name(prefix):
    global _counter
    _counter += 1
    return f"{prefix}{_counter}"


@st.composite
def machine(draw):
    return MachineSpec(
        _name("m"),
        cpu_rate=draw(st.floats(min_value=1e7, max_value=1e8)),
        nic_gap=draw(st.floats(min_value=8e-8, max_value=2e-7)),
    )


@st.composite
def network(draw):
    return NetworkSpec(
        _name("net"),
        gap=draw(st.floats(min_value=0, max_value=2e-7)),
        latency=draw(st.floats(min_value=0, max_value=1e-3)),
        sync_base=draw(st.floats(min_value=0, max_value=1e-3)),
    )


@st.composite
def tree(draw, depth):
    if depth == 1:
        members = [draw(machine()) for _ in range(draw(st.integers(1, 4)))]
        return Cluster(_name("lan"), draw(network()), members)
    children = [
        draw(tree(depth=depth - 1)) for _ in range(draw(st.integers(1, 3)))
    ]
    return Cluster(_name("up"), draw(network()), children)


@st.composite
def random_topology(draw):
    return ClusterTopology(draw(tree(depth=draw(st.integers(1, 3)))))


def assert_heterogeneous_grid_identical(params, op, seed, *, segments=(1, 2, 4)):
    """A grid with nothing uniform about it ``==`` the scalar predictor.

    Points draw ``n`` and ``root`` from small pools (so distinct points
    repeat under different plans), gathers carry explicit unbalanced
    ``counts``, and the plan axis is shuffled with duplicates.
    """
    rng = random.Random(seed)
    plans = enumerate_plans(op, params.k, segments=segments)
    bases = []
    for n in rng.sample([0, 1, 7, 997, 4_096, 25_600], 4):
        cuts = sorted(rng.randint(0, n) for _ in range(params.p - 1))
        counts = [hi - lo for lo, hi in zip([0] + cuts, cuts + [n])]
        bases.append((n, rng.randrange(params.p), counts))
    points = [
        (*rng.choice(bases), rng.choice(plans)) for _ in range(3 * len(plans))
    ]
    ns = np.array([n for n, _, _, _ in points], dtype=np.int64)
    roots = [root for _, root, _, _ in points]
    plan_axis = [plan for _, _, _, plan in points]
    if op == "gather":
        grid = GatherKernel(params).evaluate_plans(
            ns, plan_axis, roots=roots,
            counts=np.array([counts for _, _, counts, _ in points]),
        )
    else:
        grid = BroadcastKernel(params).evaluate_plans(
            ns, plan_axis, roots=roots
        )
    ledgers = grid.ledgers()
    for i, (n, root, counts, plan) in enumerate(points):
        if op == "gather":
            want = predict_gather_plan(params, n, plan, root=root, counts=counts)
        else:
            want = predict_broadcast_plan(params, n, plan, root=root)
        assert_ledger_identical(want, ledgers[i])
        assert grid.totals[i] == want.total


# ---------------------------------------------------------------------------
# Exhaustive identity on the fixed calibrated machines
# ---------------------------------------------------------------------------


def assert_same_but_for_the_name(plain, planned, plan):
    """A plan-less ledger is the explicit-plan one under its own name."""
    assert planned.name == plain.name[:-1] + f", plan={plan.key})"
    assert planned.steps == plain.steps
    assert planned.total == plain.total


class TestScalarPlanVsLegacy:
    """The plan-less entry points are the plan path at the hand schedule."""

    @pytest.mark.parametrize("name", ["testbed", "fig1", "grid3"])
    def test_default_gather_plan_is_the_legacy_prediction(
        self, params_by_name, name
    ):
        params = params_by_name[name]
        plan = default_plan("gather", params.k)
        root = params.p - 1
        ns = np.array(NS, dtype=np.int64)
        kernel = GatherKernel(params)
        plain_grid = kernel.evaluate(ns, roots=root)
        planned_grid = kernel.evaluate_plans(ns, plan, roots=root)
        for i, n in enumerate(NS):
            plain = predict_gather(params, n, root=root)
            assert plain.name == f"gather(k={params.k}, n={n})"
            assert_same_but_for_the_name(
                plain, predict_gather_plan(params, n, plan, root=root), plan
            )
            assert_ledger_identical(plain, plain_grid.ledger(i))
            assert_same_but_for_the_name(
                plain_grid.ledger(i), planned_grid.ledger(i), plan
            )

    @pytest.mark.parametrize("name", ["testbed", "fig1", "grid3"])
    def test_default_broadcast_plan_is_the_legacy_two_phase(
        self, params_by_name, name
    ):
        params = params_by_name[name]
        n, root = 25_600, params.p - 1
        # String, partial map (level 2 defaults to "two", level 4 is
        # past every k here), and the kernel's per-point list of both.
        specs = ["two", "one", {1: "one", 4: "one"}, {}]
        plans = [plan_from_phases(spec, params.k) for spec in specs]
        assert plans[0] == plans[3] == default_plan("broadcast", params.k)
        ns = np.full(len(specs), n, dtype=np.int64)
        kernel = BroadcastKernel(params)
        plain_grid = kernel.evaluate(ns, roots=root, phases=specs)
        planned_grid = kernel.evaluate_plans(ns, plans, roots=root)
        for i, (spec, plan) in enumerate(zip(specs, plans)):
            plain = predict_broadcast(params, n, root=root, phases=spec)
            assert plain.name == f"broadcast(k={params.k}, n={n}, phases={spec!r})"
            planned = predict_broadcast_plan(params, n, plan, root=root)
            assert planned.name == f"broadcast(k={params.k}, n={n}, plan={plan.key})"
            assert (planned.steps, planned.total) == (plain.steps, plain.total)
            assert_ledger_identical(plain, plain_grid.ledger(i))
            assert_ledger_identical(planned, planned_grid.ledger(i))
        assert (
            kernel.evaluate(ns[:1], roots=root, phases="one").ledger(0).steps
            == plain_grid.ledger(1).steps
        )

    def test_wrong_op_plan_rejected(self, params_by_name):
        params = params_by_name["testbed"]
        with pytest.raises(CollectiveError, match="expected 'gather'"):
            predict_gather_plan(
                params, 100, default_plan("broadcast", params.k)
            )
        with pytest.raises(CollectiveError, match="expected 'broadcast'"):
            predict_broadcast_plan(
                params, 100, default_plan("gather", params.k)
            )

    def test_wrong_k_plan_rejected(self, params_by_name):
        params = params_by_name["grid3"]
        with pytest.raises(CollectiveError, match="levels"):
            predict_gather_plan(params, 100, default_plan("gather", 1))


class TestKernelPlanGrids:
    @pytest.mark.parametrize("name", ["testbed", "fig1", "grid3"])
    def test_gather_grid_bit_identical_to_scalar(self, params_by_name, name):
        params = params_by_name[name]
        plans = enumerate_plans("gather", params.k)
        points = [(n, plan) for n in NS for plan in plans]
        ns = np.array([n for n, _ in points], dtype=np.int64)
        grid = GatherKernel(params).evaluate_plans(
            ns, [plan for _, plan in points]
        )
        for i, (n, plan) in enumerate(points):
            assert_ledger_identical(
                predict_gather_plan(params, n, plan), grid.ledger(i)
            )
        assert grid.totals.shape == (len(points),)

    @pytest.mark.parametrize("name", ["testbed", "fig1", "grid3"])
    def test_broadcast_grid_bit_identical_to_scalar(
        self, params_by_name, name
    ):
        params = params_by_name[name]
        plans = enumerate_plans("broadcast", params.k)
        points = [(n, plan) for n in NS for plan in plans]
        ns = np.array([n for n, _ in points], dtype=np.int64)
        grid = BroadcastKernel(params).evaluate_plans(
            ns, [plan for _, plan in points]
        )
        for i, (n, plan) in enumerate(points):
            assert_ledger_identical(
                predict_broadcast_plan(params, n, plan), grid.ledger(i)
            )

    @pytest.mark.parametrize("op", ["gather", "broadcast"])
    @pytest.mark.parametrize("name", ["testbed", "fig1", "grid3"])
    def test_heterogeneous_grid_bit_identical_to_scalar(
        self, params_by_name, name, op
    ):
        assert_heterogeneous_grid_identical(params_by_name[name], op, seed=12)

    @pytest.mark.parametrize(
        "op, kernel_cls",
        [("gather", GatherKernel), ("broadcast", BroadcastKernel)],
    )
    def test_full_space_costs_one_pass_per_level_schedule(
        self, params_by_name, monkeypatch, op, kernel_cls
    ):
        """|choices|·k level passes price the |choices|^k space (not
        k·|choices|^k: 192 / 375 at k = 3) — counted, not timed."""
        params = params_by_name["grid3"]
        built = []
        real = kernel_cls._level_steps

        def spy(self, level, schedule, *tables):
            built.append((level, schedule))
            return real(self, level, schedule, *tables)

        monkeypatch.setattr(kernel_cls, "_level_steps", spy)
        plans = enumerate_plans(op, params.k)
        totals = score_plans(params, 25_600, plans)
        assert len(totals) == len(level_choices(op)) ** params.k
        assert len(built) <= len(level_choices(op)) * params.k
        assert len(set(built)) == len(built)

    @pytest.mark.parametrize(
        "op, kernel_cls",
        [("gather", GatherKernel), ("broadcast", BroadcastKernel)],
    )
    def test_empty_grid_prices_nothing(self, params_by_name, op, kernel_cls):
        params = params_by_name["grid3"]
        empty = np.array([], dtype=np.int64)
        for plans in ([], default_plan(op, params.k)):
            grid = kernel_cls(params).evaluate_plans(empty, plans)
            assert grid.size == 0
            assert grid.totals.shape == (0,)
            assert grid.ledgers() == []

    def test_single_plan_broadcasts_over_the_grid(self, params_by_name):
        params = params_by_name["testbed"]
        plan = default_plan("gather", params.k)
        ns = np.array(NS, dtype=np.int64)
        grid = GatherKernel(params).evaluate_plans(ns, plan)
        for i, n in enumerate(NS):
            assert grid.totals[i] == predict_gather_plan(params, n, plan).total


class TestPlannerHelpers:
    def test_score_plans_matches_scalar_totals(self, params_by_name):
        params = params_by_name["grid3"]
        plans = enumerate_plans("broadcast", params.k)[:7]
        totals = score_plans(params, 25_600, plans)
        assert totals.shape == (len(plans),)
        for plan, total in zip(plans, totals):
            assert total == predict_broadcast_plan(params, 25_600, plan).total

    def test_rank_plans_sorted_and_truncated(self, params_by_name):
        params = params_by_name["grid3"]
        plans = enumerate_plans("gather", params.k)
        ranked = rank_plans(params, 25_600, plans, top=5)
        assert len(ranked) == 5
        totals = [total for _, total in ranked]
        assert totals == sorted(totals)
        full = rank_plans(params, 25_600, plans)
        assert len(full) == len(plans)
        assert full[0][1] == min(t for _, t in full)

    def test_empty_and_mixed_op_rejected(self, params_by_name):
        params = params_by_name["testbed"]
        with pytest.raises(ModelError, match="at least one plan"):
            score_plans(params, 100, [])
        mixed = [
            default_plan("gather", params.k),
            default_plan("broadcast", params.k),
        ]
        with pytest.raises(ModelError, match="op"):
            score_plans(params, 100, mixed)


# ---------------------------------------------------------------------------
# Property: identity holds on random k<=3 machines
# ---------------------------------------------------------------------------


class TestRandomMachines:
    @given(topology=random_topology(), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_plan_layers_agree_everywhere(self, topology, data):
        params = calibrate(topology)
        op = data.draw(st.sampled_from(["gather", "broadcast"]))
        plans = enumerate_plans(op, params.k, segments=(1, 3))
        plan = data.draw(st.sampled_from(plans))
        n = data.draw(st.sampled_from([0, 1, 997, 25_600]))
        root = data.draw(st.integers(0, params.p - 1))
        kernel = (GatherKernel if op == "gather" else BroadcastKernel)(params)
        scalar_fn = (
            predict_gather_plan if op == "gather" else predict_broadcast_plan
        )
        scalar = scalar_fn(params, n, plan, root=root)
        grid = kernel.evaluate_plans(
            np.array([n], dtype=np.int64), [plan], roots=root
        )
        assert_ledger_identical(scalar, grid.ledger(0))

    @given(topology=random_topology(), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_heterogeneous_grids_agree_everywhere(self, topology, data):
        assert_heterogeneous_grid_identical(
            calibrate(topology),
            data.draw(st.sampled_from(["gather", "broadcast"])),
            data.draw(st.integers(0, 2**16)),
            segments=(1, 3),
        )
