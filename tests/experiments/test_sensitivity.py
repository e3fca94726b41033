"""Tests for the calibration-sensitivity experiment (reduced scale)."""

import pytest

from repro.experiments import calibration_sensitivity


@pytest.fixture(scope="module")
def report():
    return calibration_sensitivity(p=5)


class TestSensitivity:
    def test_structure(self, report):
        assert report.experiment_id == "sensitivity"
        assert "baseline" in report.series
        for findings in report.series.values():
            assert set(findings) == {"gather@p", "gather@2", "bcast@p"}

    def test_core_contrast_robust(self, report):
        """gather exploits heterogeneity more than broadcast, always."""
        for label, findings in report.series.items():
            assert findings["gather@p"] > findings["bcast@p"], label
            assert findings["gather@p"] > 1.1, label
            assert 0.9 < findings["bcast@p"] < 1.45, label

    def test_inversion_tied_to_pack_asymmetry(self, report):
        assert report.series["baseline"]["gather@2"] < 1.0
        assert report.series["pack = unpack"]["gather@2"] > 0.95

    def test_more_heterogeneity_more_improvement(self, report):
        assert (
            report.series["cpu spread 8x"]["gather@p"]
            > report.series["cpu spread 2x"]["gather@p"]
        )

    def test_registered(self):
        from repro.experiments import EXPERIMENTS

        assert "sensitivity" in EXPERIMENTS
