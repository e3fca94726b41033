"""Executing explicit SchedulePlans through the gather/broadcast runners.

Every plan in the enumerated space must (a) move the right data, (b)
cost in the simulator exactly what the plan-aware predictors price via
the same ledger the tuner ranks with, and (c) run bit-identically on
the macro-event fast path and the object-level engine.  The default
plan must be indistinguishable from a plan-less run.
"""

import pytest

from repro.collectives import run_broadcast, run_gather
from repro.errors import CollectiveError
from repro.obs import observe
from repro.tuning import (
    LevelSchedule,
    SchedulePlan,
    default_plan,
    enumerate_plans,
    plan_from_phases,
)

N = 4_000


def gather_root(outcome):
    holders = [pid for pid, (count, _sum) in outcome.values.items() if count > 0]
    assert len(holders) == 1
    return holders[0]


def assert_everyone_has_everything(outcome, n=N):
    sizes = {v[0] for v in outcome.values.values()}
    checksums = {v[1] for v in outcome.values.values()}
    assert sizes == {n}
    assert len(checksums) == 1


class TestPlanCorrectness:
    def test_every_gather_plan_moves_the_data(self, fig1_machine):
        baseline = run_gather(fig1_machine, N, seed=3)
        want = baseline.values[gather_root(baseline)]
        for plan in enumerate_plans("gather", 2, segments=(1, 3)):
            outcome = run_gather(fig1_machine, N, seed=3, plan=plan)
            assert outcome.values[gather_root(outcome)] == want, plan.key

    def test_every_broadcast_plan_moves_the_data(self, fig1_machine):
        for plan in enumerate_plans("broadcast", 2, segments=(1, 3)):
            outcome = run_broadcast(fig1_machine, N, seed=3, plan=plan)
            assert_everyone_has_everything(outcome)

    def test_plans_work_on_three_levels(self, grid):
        gather = SchedulePlan(
            "gather",
            (
                LevelSchedule("flat", 2),
                LevelSchedule("binomial"),
                LevelSchedule("flat"),
            ),
        )
        outcome = run_gather(grid, N, plan=gather)
        assert outcome.values[gather_root(outcome)][0] == N
        bcast = SchedulePlan(
            "broadcast",
            (
                LevelSchedule("binomial"),
                LevelSchedule("one", 2),
                LevelSchedule("two"),
            ),
        )
        assert_everyone_has_everything(run_broadcast(grid, N, plan=bcast))

    def test_plans_work_from_any_root(self, fig1_machine):
        plan = SchedulePlan(
            "gather", (LevelSchedule("binomial"), LevelSchedule("flat", 2))
        )
        for root in (0, 4, 8):
            outcome = run_gather(fig1_machine, N, root=root, plan=plan)
            assert gather_root(outcome) == root


class TestPlanStructure:
    def test_segments_multiply_supersteps(self, testbed_small):
        plan = SchedulePlan("gather", (LevelSchedule("flat", 3),))
        assert run_gather(testbed_small, N, plan=plan).supersteps == 3

    def test_binomial_runs_log_rounds(self, testbed_small):
        # 4 machines in one cluster: ceil(log2 4) = 2 rounds.
        plan = SchedulePlan("gather", (LevelSchedule("binomial"),))
        assert run_gather(testbed_small, N, plan=plan).supersteps == 2

    def test_prediction_prices_the_plan(self, fig1_machine):
        plan = SchedulePlan(
            "broadcast", (LevelSchedule("one", 2), LevelSchedule("binomial"))
        )
        outcome = run_broadcast(fig1_machine, N, plan=plan)
        assert plan.key in outcome.name
        labels = " ".join(s.label for s in outcome.predicted.steps)
        assert "binomial" in labels


class TestPlanIdentities:
    def test_default_plan_is_the_planless_run(self, fig1_machine):
        for op, run in (("gather", run_gather), ("broadcast", run_broadcast)):
            plain = run(fig1_machine, N, seed=2)
            planned = run(fig1_machine, N, seed=2, plan=default_plan(op, 2))
            assert planned.time == plain.time
            assert planned.values == plain.values
            assert planned.predicted_time == plain.predicted_time

    @pytest.mark.parametrize(
        "run, planless, plan, phase_labels",
        [
            (
                run_gather, {}, default_plan("gather", 2),
                {"gather up L1", "gather up L2"},
            ),
            (
                run_broadcast, {}, default_plan("broadcast", 2),
                {
                    "broadcast scatter L2", "broadcast exchange L2",
                    "broadcast scatter L1", "broadcast exchange L1",
                },
            ),
            (
                run_broadcast, {"phases": {2: "one"}},
                plan_from_phases({2: "one"}, 2),
                {
                    "broadcast full L2",
                    "broadcast scatter L1", "broadcast exchange L1",
                },
            ),
        ],
        ids=["gather", "broadcast-two", "broadcast-mixed"],
    )
    def test_a_planless_run_is_its_plan_on_both_engine_paths(
        self, fig1_machine, run, planless, plan, phase_labels
    ):
        """Same spans, same phase labels, same supersteps — only the
        outcome and ledger are named after what the caller passed."""

        def observed(**kwargs):
            with observe(spans=True) as observation:
                run(fig1_machine, N, seed=2, **kwargs)
            return [
                (s.category, s.name, s.actor, s.start, s.end)
                for s in observation.tracer.spans
            ]

        spans = observed(**planless)  # spans force the object path
        assert spans == observed(plan=plan)
        # Unsegmented steps keep their bare labels ("L1", never "L1.1").
        assert {name for cat, name, *_ in spans if cat == "phase"} == phase_labels

        for macro in (True, False):
            plain = run(fig1_machine, N, seed=2, macro=macro, **planless)
            planned = run(fig1_machine, N, seed=2, macro=macro, plan=plan)
            assert (plain.runtime.macro is not None) == macro
            assert planned.time == plain.time
            assert planned.values == plain.values
            assert (
                planned.runtime.superstep_marks()
                == plain.runtime.superstep_marks()
            )
            assert planned.predicted.steps == plain.predicted.steps
            assert planned.name == plain.name.split(", phases=")[0].rstrip(
                ")"
            ) + f", plan={plan.key})"
            assert "plan=" not in plain.name + plain.predicted.name

    @pytest.mark.parametrize(
        "op, run",
        [("gather", run_gather), ("broadcast", run_broadcast)],
        ids=["gather", "broadcast"],
    )
    def test_macro_and_object_paths_agree_on_every_plan(
        self, fig1_machine, op, run
    ):
        for plan in enumerate_plans(op, 2, segments=(1, 3)):
            fast = run(fig1_machine, N, plan=plan, macro=True)
            slow = run(fig1_machine, N, plan=plan, macro=False)
            assert fast.time == slow.time, plan.key
            assert fast.values == slow.values, plan.key
            assert fast.supersteps == slow.supersteps, plan.key


class TestPlanValidation:
    def test_wrong_op_plan_rejected(self, fig1_machine):
        with pytest.raises(CollectiveError, match="expected 'gather'"):
            run_gather(fig1_machine, N, plan=default_plan("broadcast", 2))
        with pytest.raises(CollectiveError, match="expected 'broadcast'"):
            run_broadcast(fig1_machine, N, plan=default_plan("gather", 2))

    def test_wrong_k_plan_rejected(self, fig1_machine):
        with pytest.raises(CollectiveError, match="levels"):
            run_gather(fig1_machine, N, plan=default_plan("gather", 1))
        with pytest.raises(CollectiveError, match="levels"):
            run_broadcast(fig1_machine, N, plan=default_plan("broadcast", 3))
