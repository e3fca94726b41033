"""Tests for the BSP-vs-HBSP headline experiment (reduced scale)."""

import pytest

from repro.experiments import bsp_vs_hbsp


@pytest.fixture(scope="module")
def report():
    return bsp_vs_hbsp(p=6)


class TestBspVsHbsp:
    def test_structure(self, report):
        assert report.experiment_id == "bsp-vs-hbsp"
        factors = report.series["T_bsp/T_hbsp"]
        assert set(factors) == {
            "gather", "scatter", "broadcast", "sample_sort",
            "matvec", "histogram", "jacobi",
        }

    def test_rules_always_help(self, report):
        factors = report.series["T_bsp/T_hbsp"]
        assert all(factor > 1.0 for factor in factors.values())

    def test_broadcast_gains_least(self, report):
        factors = report.series["T_bsp/T_hbsp"]
        assert factors["broadcast"] == min(factors.values())

    def test_root_bound_collectives_gain_clearly(self, report):
        factors = report.series["T_bsp/T_hbsp"]
        assert factors["gather"] > 1.2
        assert factors["scatter"] > 1.2
        big_wins = [name for name, factor in factors.items() if factor >= 1.4]
        assert len(big_wins) >= len(factors) // 2
