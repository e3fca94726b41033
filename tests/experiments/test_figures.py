"""Tests for the Figure 3/4 experiment harness (reduced sweeps).

The full-sweep shape assertions live in tests/integration/test_shapes.py;
here we validate the harness mechanics on small sweeps.
"""

from repro.experiments import (
    fig3a_gather_root,
    fig3b_gather_balance,
    fig4a_broadcast_root,
    fig4b_broadcast_balance,
)

SIZES = (100,)
PS = (2, 5)


class TestFig3a:
    def test_report_structure(self):
        report = fig3a_gather_root(SIZES, PS)
        assert report.experiment_id == "fig3a"
        assert list(report.series) == ["100 KB"]
        assert report.xs() == [2, 5]

    def test_factors_positive(self):
        report = fig3a_gather_root(SIZES, PS)
        assert all(v > 0 for v in report.series["100 KB"].values())

    def test_deterministic(self):
        a = fig3a_gather_root(SIZES, PS, seed=1)
        b = fig3a_gather_root(SIZES, PS, seed=1)
        assert a.series == b.series


class TestFig3b:
    def test_report_structure(self):
        report = fig3b_gather_balance(SIZES, PS)
        assert report.experiment_id == "fig3b"
        assert report.xs() == [2, 5]

    def test_noise_sigma_zero_supported(self):
        report = fig3b_gather_balance(SIZES, PS, noise_sigma=0.0)
        assert all(v > 0 for v in report.series["100 KB"].values())

    def test_score_seed_changes_results(self):
        a = fig3b_gather_balance(SIZES, (5,), noise_sigma=0.5, score_seed=1)
        b = fig3b_gather_balance(SIZES, (5,), noise_sigma=0.5, score_seed=2)
        assert a.series != b.series


class TestFig4:
    def test_fig4a_structure(self):
        report = fig4a_broadcast_root(SIZES, PS)
        assert report.experiment_id == "fig4a"
        assert all(v > 0 for v in report.series["100 KB"].values())

    def test_fig4b_structure(self):
        report = fig4b_broadcast_balance(SIZES, PS)
        assert report.experiment_id == "fig4b"
        assert all(v > 0 for v in report.series["100 KB"].values())

    def test_fig4a_near_one(self):
        report = fig4a_broadcast_root(SIZES, PS)
        for factor in report.series["100 KB"].values():
            assert 0.8 < factor < 1.5
