"""Tests for the scaling experiment."""

import pytest

from repro.experiments import app_scaling


class TestAppScaling:
    def test_small_sweep_structure(self):
        report = app_scaling(processor_counts=(1, 4), apps=("histogram",))
        assert report.experiment_id == "scaling"
        assert set(report.series) == {"histogram"}
        assert report.xs() == [1, 4]

    def test_baseline_is_one(self):
        report = app_scaling(processor_counts=(1,), apps=("histogram", "matvec"))
        for series in report.series.values():
            assert series[1] == 1.0

    def test_speedup_positive(self):
        report = app_scaling(processor_counts=(1, 6), apps=("jacobi",))
        assert report.series["jacobi"][6] > 1.0

    def test_speedup_grows_past_p2_below_the_capacity_bound(self):
        report = app_scaling(processor_counts=(1, 2, 10))
        for app, series in report.series.items():
            assert series[2] < series[10] < 5.2, app
        # Compute-heavy applications outscale the communication-bound ones.
        assert report.series["histogram"][10] > report.series["sample_sort"][10]
        assert report.series["jacobi"][10] > report.series["matvec"][10]

    def test_efficiency_metric(self):
        report = app_scaling(
            processor_counts=(1, 6), apps=("histogram",), metric="efficiency"
        )
        # Efficiency is bounded by 1 and positive.
        for value in report.series["histogram"].values():
            assert 0 < value <= 1.0 + 1e-9

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            app_scaling(processor_counts=(1,), metric="latency")

    def test_registered_in_cli(self):
        from repro.experiments import EXPERIMENTS

        assert "scaling" in EXPERIMENTS
