"""Unit tests for repro.model.predict — the Section-4 closed forms."""

import itertools

import pytest

from repro.cluster import flat_cluster, ucf_testbed
from repro.cluster.presets import deep_hierarchy
from repro.errors import CollectiveError, ModelError, ReproError, ValidationError
from repro.model import calibrate, h_relation
from repro.model import predict as predict_module
from repro.model.predict import (
    default_counts,
    paper_broadcast_hbsp1_one_phase,
    paper_broadcast_hbsp1_two_phase,
    paper_broadcast_hbsp2_super2_one_phase,
    paper_broadcast_hbsp2_super2_two_phase,
    paper_gather_hbsp1,
    paper_gather_hbsp2_super2,
    predict_broadcast,
    predict_broadcast_plan,
    predict_gather,
    predict_gather_plan,
)
from repro.tuning.plan import LevelSchedule, SchedulePlan, default_plan

N = 25_600  # 100 KB of ints


class TestDefaultCounts:
    def test_conserves_n(self, testbed_params):
        assert sum(default_counts(testbed_params, N)) == N

    def test_proportional_to_c(self, testbed_params):
        counts = default_counts(testbed_params, N)
        for j, count in enumerate(counts):
            assert abs(count - testbed_params.c_of(0, j) * N) < 1.0


class TestPredictGatherHBSP1:
    def test_one_superstep(self, testbed_params):
        ledger = predict_gather(testbed_params, N)
        assert ledger.num_supersteps() == 1
        assert ledger.steps[0].level == 1

    def test_close_to_paper_formula(self, testbed_params):
        """Balanced gather ≈ g·n + L (the paper upper-bounds the root's
        receive volume by n; the exact h-relation excludes the root's
        own share, so exact <= paper)."""
        exact = predict_gather(testbed_params, N).total
        paper = paper_gather_hbsp1(testbed_params, N)
        assert exact <= paper
        assert exact >= 0.5 * paper

    def test_oversized_share_dominates(self, testbed_params):
        """Section 4.2: if r_j*c_j is too large, the sender dominates."""
        balanced = predict_gather(testbed_params, N).total
        slow = testbed_params.slowest_index(0)
        counts = [0] * testbed_params.p
        counts[slow] = N  # everything on the slowest sender
        oversized = predict_gather(testbed_params, N, counts=counts).total
        assert oversized > balanced

    def test_counts_must_conserve(self, testbed_params):
        with pytest.raises(CollectiveError, match="sum"):
            predict_gather(testbed_params, N, counts=[1] * testbed_params.p)

    def test_single_processor_free(self):
        params = calibrate(ucf_testbed(1))
        assert predict_gather(params, N).total == 0.0

    def test_bad_root_rejected(self, testbed_params):
        with pytest.raises(CollectiveError):
            predict_gather(testbed_params, N, root=99)

    def test_negative_n_rejected(self, testbed_params):
        with pytest.raises(CollectiveError):
            predict_gather(testbed_params, -1)


class TestPredictGatherHBSP2:
    def test_two_supersteps(self, fig1_params):
        ledger = predict_gather(fig1_params, N)
        assert ledger.num_supersteps(1) == 1
        assert ledger.num_supersteps(2) == 1

    def test_super2_close_to_paper(self, fig1_params):
        ledger = predict_gather(fig1_params, N)
        super2 = next(s for s in ledger.steps if s.level == 2)
        paper = paper_gather_hbsp2_super2(fig1_params, N)
        assert super2.total <= paper
        assert super2.total >= 0.4 * paper

    def test_hierarchy_penalty_positive(self, fig1_params):
        assert predict_gather(fig1_params, N).hierarchy_penalty() > 0

    def test_root_override_changes_cost(self, fig1_params):
        default = predict_gather(fig1_params, N).total
        # Re-root on the slowest processor.
        slow = fig1_params.slowest_index(0)
        rerooted = predict_gather(fig1_params, N, root=slow).total
        assert rerooted != pytest.approx(default)


class TestPredictBroadcastHBSP1:
    def test_two_phase_has_one_charge_with_two_L(self, testbed_params):
        ledger = predict_broadcast(testbed_params, N, phases="two")
        step = ledger.steps[0]
        assert step.L == pytest.approx(2 * testbed_params.L_of(1, 0))

    def test_two_phase_close_to_paper(self, testbed_params):
        exact = predict_broadcast(testbed_params, N, phases="two").total
        paper = paper_broadcast_hbsp1_two_phase(testbed_params, N)
        assert exact <= paper * 1.01
        assert exact >= 0.4 * paper

    def test_one_phase_matches_paper_shape(self, testbed_params):
        exact = predict_broadcast(testbed_params, N, phases="one").total
        paper = paper_broadcast_hbsp1_one_phase(testbed_params, N)
        # paper formula uses m sends; exact uses m-1 (no self-send).
        assert exact < paper
        assert exact > 0.7 * paper

    def test_two_phase_beats_one_phase_at_scale(self):
        params = calibrate(flat_cluster(10))
        one = predict_broadcast(params, N, phases="one").total
        two = predict_broadcast(params, N, phases="two").total
        assert two < one

    def test_one_phase_beats_two_phase_at_p2(self):
        params = calibrate(flat_cluster(2))
        one = predict_broadcast(params, N, phases="one").total
        two = predict_broadcast(params, N, phases="two").total
        assert one < two

    def test_zero_items_free(self, testbed_params):
        assert predict_broadcast(testbed_params, 0).total == 0.0

    def test_bad_phase_rejected(self, testbed_params):
        with pytest.raises(CollectiveError):
            predict_broadcast(testbed_params, N, phases="three")

    def test_balanced_fractions_change_cost(self, testbed_params):
        fractions = [testbed_params.c_of(0, j) for j in range(testbed_params.p)]
        equal = predict_broadcast(testbed_params, N, phases="two").total
        balanced = predict_broadcast(
            testbed_params, N, phases="two", fractions=fractions
        ).total
        # Both near each other — broadcasting can't exploit heterogeneity.
        assert balanced == pytest.approx(equal, rel=0.2)


class TestPredictBroadcastHBSP2:
    def test_per_level_phases(self, fig1_params):
        ledger = predict_broadcast(fig1_params, N, phases={2: "one", 1: "two"})
        labels = [s.label for s in ledger.steps]
        assert any("one-phase" in label and "super2" in label for label in labels)
        assert any("two-phase" in label and "super1" in label for label in labels)

    def test_levels_descend(self, fig1_params):
        ledger = predict_broadcast(fig1_params, N)
        levels = [s.level for s in ledger.steps]
        assert levels == sorted(levels, reverse=True)

    def test_regime_split_matches_paper(self):
        """Section 4.4: one-phase wins iff r_{1,s} > m_{2,0} (roughly)."""
        n = 128_000
        # Slow LANs -> r_1s = 20 > m = 2: one-phase wins.
        from repro.cluster import Cluster, ClusterTopology, MachineSpec
        from repro.cluster.presets import CAMPUS_ATM, ETHERNET_100

        def campus(worst_r, lans):
            out = []
            for i in range(lans):
                factor = worst_r ** (i / max(1, lans - 1))
                out.append(
                    Cluster(
                        f"lan{i}",
                        ETHERNET_100,
                        [
                            MachineSpec(f"l{i}m{j}", cpu_rate=1e8 / factor, nic_gap=8e-8 * factor)
                            for j in range(3)
                        ],
                    )
                )
            return ClusterTopology(Cluster("campus", CAMPUS_ATM, out))

        slow_params = calibrate(campus(20.0, 2))
        one = paper_broadcast_hbsp2_super2_one_phase(slow_params, n)
        two = paper_broadcast_hbsp2_super2_two_phase(slow_params, n)
        assert one < two  # r_1s > m: one-phase wins

        wide_params = calibrate(campus(1.25, 8))
        one = paper_broadcast_hbsp2_super2_one_phase(wide_params, n)
        two = paper_broadcast_hbsp2_super2_two_phase(wide_params, n)
        assert two < one  # r_1s << m: two-phase wins


class TestPaperFormulaGuards:
    def test_hbsp1_formulas_reject_wrong_k(self, fig1_params):
        with pytest.raises(ModelError):
            paper_gather_hbsp1(fig1_params, N)
        with pytest.raises(ModelError):
            paper_broadcast_hbsp1_two_phase(fig1_params, N)

    def test_hbsp2_formulas_reject_wrong_k(self, testbed_params):
        with pytest.raises(ModelError):
            paper_gather_hbsp2_super2(testbed_params, N)
        with pytest.raises(ModelError):
            paper_broadcast_hbsp2_super2_one_phase(testbed_params, N)


class TestUncheckedLoads:
    """The predictors take each step's h-relation without
    :func:`h_relation`'s per-load checks: every input the checked loop
    rejected must still raise the same error, and every other input
    must price (or fail) exactly as before."""

    @pytest.mark.parametrize("machine", [ucf_testbed(4), deep_hierarchy(2, 3)])
    def test_agrees_with_the_checked_h_relation(self, machine, monkeypatch):
        params = calibrate(machine)
        k, nan, inf = params.k, float("nan"), float("inf")
        plans = [
            default_plan("gather", k),
            SchedulePlan("gather", (LevelSchedule("binomial"),) * k),
            SchedulePlan("gather", (LevelSchedule("flat", segments=2),) * k),
            default_plan("broadcast", k),
            SchedulePlan("broadcast", (LevelSchedule("one", segments=2),) * k),
            SchedulePlan("broadcast", (LevelSchedule("binomial"),) * k),
        ]
        cases = [
            (plan, n, item_bytes, extra)
            for plan in plans
            for n, item_bytes in itertools.product(
                (nan, inf, 2.5, 0, 100), (nan, inf, 0.5, 2.5, 4)
            )
            for extra in (
                [{}, {"counts": [inf] + [0] * (params.p - 1)}]
                if plan.op == "gather"
                else [{}, {"fractions": [nan] * params.p}]
            )
        ]

        def outcomes():
            out = []
            for plan, n, item_bytes, extra in cases:
                predict = predict_gather_plan if plan.op == "gather" else predict_broadcast_plan
                try:
                    out.append(predict(params, n, plan, item_bytes=item_bytes, **extra).steps)
                except (ReproError, ArithmeticError, ValueError) as error:
                    out.append(type(error))
            return out

        unchecked = outcomes()
        monkeypatch.setattr(predict_module, "_h", h_relation)
        checked = outcomes()
        assert unchecked == checked
        assert ValidationError in checked  # the grid reaches the per-load checks
