"""Integration tests: the paper's qualitative result shapes.

These assert the *findings* of Section 5 on the simulated testbed —
who wins, roughly by how much, and where the anomalies sit.  They are
the acceptance tests of the reproduction (see EXPERIMENTS.md).
"""

import pytest

from repro.experiments import (
    fig3a_gather_root,
    fig3b_gather_balance,
    fig4a_broadcast_root,
    fig4b_broadcast_balance,
    sec4_broadcast_phases,
    sec4_gather_hierarchy,
)

SIZES = (100, 500, 1000)
PS = (2, 3, 4, 6, 8, 10)


@pytest.fixture(scope="module")
def fig3a():
    return fig3a_gather_root(SIZES, PS)


@pytest.fixture(scope="module")
def fig3b():
    return fig3b_gather_balance(SIZES, PS)


@pytest.fixture(scope="module")
def fig4a():
    return fig4a_broadcast_root(SIZES, PS)


@pytest.fixture(scope="module")
def fig4b():
    return fig4b_broadcast_balance(SIZES, PS)


class TestFig3aShape:
    """Fig. 3(a): gather T_s/T_f."""

    def test_p2_inversion(self, fig3a):
        """'it is better for the root node to be the slowest workstation'
        at p = 2 (Section 5.2)."""
        for series in fig3a.series.values():
            assert series[2] < 1.0

    def test_improvement_beyond_p2(self, fig3a):
        """'It is clear that the root node should be P_f as the number
        of processors increase.'"""
        for series in fig3a.series.values():
            for p in PS[1:]:
                assert series[p] > 1.05

    def test_grows_with_p(self, fig3a):
        """'As the number of processors increase, so does performance.'"""
        for series in fig3a.series.values():
            assert series[10] > series[3]
            assert series[8] >= series[4] * 0.98  # monotone-ish

    def test_steady_across_problem_sizes(self, fig3a):
        """'The improvement factor is steady across all problem sizes.'"""
        for p in PS[1:]:
            values = [fig3a.series[label][p] for label in fig3a.series]
            assert max(values) / min(values) < 1.2


class TestFig3bShape:
    """Fig. 3(b): gather T_u/T_b."""

    def test_benefit_at_p2(self, fig3b):
        """Balanced workloads help 'except at p = 2' — where they help
        a lot (the fast root keeps most items local)."""
        for series in fig3b.series.values():
            assert series[2] > 1.5

    def test_little_benefit_at_scale(self, fig3b):
        """'virtually no benefit to distributing the workload based on
        a processor's computational abilities' at larger p."""
        for series in fig3b.series.values():
            assert series[10] < 1.35

    def test_benefit_decays_with_p(self, fig3b):
        for series in fig3b.series.values():
            assert series[2] > series[6] > series[10] * 0.9


class TestFig4Shape:
    """Fig. 4: broadcast cannot exploit heterogeneity."""

    def test_root_choice_negligible(self, fig4a):
        """Fig. 4(a): 'neglible improvement in performance'."""
        for series in fig4a.series.values():
            for factor in series.values():
                assert 0.9 < factor < 1.35

    def test_residual_benefit_is_positive_beyond_p2(self, fig4a):
        """The small improvement that exists comes from P_f
        distributing the first-phase shares."""
        for series in fig4a.series.values():
            for p in PS[1:]:
                assert series[p] > 1.0

    def test_balancing_useless(self, fig4b):
        """Fig. 4(b): 'no benefit to balanced workloads since each
        processor must receive all of the items'."""
        for series in fig4b.series.values():
            for factor in series.values():
                assert 0.75 < factor < 1.25

    def test_broadcast_improvement_smaller_than_gather(self, fig3a, fig4a):
        for label in fig3a.series:
            assert fig3a.series[label][10] > fig4a.series[label][10]


class TestSec4Shapes:
    def test_two_phase_crossover_moves_with_rs(self):
        report = sec4_broadcast_phases(processor_counts=(2, 4, 8, 10), size_kb=250)
        mild = report.series["sim r_s=1.25"]
        mid = report.series["sim r_s=4"]
        harsh = report.series["sim r_s=12"]
        # Mild heterogeneity: two-phase wins from small p, and ever more.
        assert mild[4] > 1.2
        assert mild[10] > 2.5
        # Harsher heterogeneity: crossover arrives later.
        assert harsh[4] < mid[4] < mild[4]
        assert harsh[8] > 1.0  # but two-phase still wins eventually

    def test_hierarchy_penalty_amortises(self):
        report = sec4_gather_hierarchy(sizes_kb=(10, 100, 1000))
        series = report.series["hier/flat"]
        assert series[10] > series[100] > series[1000]
        assert series[10] > 2 * series[1000]
        assert series[1000] < 2.5

    def test_oversized_share_pathology(self):
        report = sec4_gather_hierarchy(sizes_kb=(500,))
        assert report.series["oversized/balanced"][500] > 1.4
