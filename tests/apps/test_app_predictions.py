"""Tests for the application-level cost predictions."""

from repro.apps import run_histogram, run_matvec
from repro.collectives import WorkloadPolicy


class TestMatvecPrediction:
    def test_ledger_present_and_itemised(self, testbed_small):
        outcome = run_matvec(testbed_small, 300)
        assert outcome.predicted is not None
        labels = [s.label for s in outcome.predicted.steps]
        assert any("all-gather x" in label for label in labels)
        assert any("multiply" in label for label in labels)

    def test_ballpark(self, testbed_small):
        outcome = run_matvec(testbed_small, 600)
        assert outcome.predicted_time <= outcome.time <= 2.5 * outcome.predicted_time

    def test_compute_term_dominates_at_scale(self, testbed_small):
        outcome = run_matvec(testbed_small, 1500)
        assert outcome.predicted.component("w") > outcome.predicted.component("gh")

    def test_prediction_tracks_workload_policy(self, testbed_small):
        equal = run_matvec(testbed_small, 1200, workload=WorkloadPolicy.EQUAL)
        balanced = run_matvec(testbed_small, 1200, workload=WorkloadPolicy.BALANCED)
        # The model predicts balanced is faster, matching simulation.
        assert balanced.predicted_time < equal.predicted_time
        assert balanced.time < equal.time


class TestHistogramPrediction:
    def test_ledger_composition(self, testbed_small):
        outcome = run_histogram(testbed_small, 100_000)
        labels = [s.label for s in outcome.predicted.steps]
        assert any(label.startswith("map") for label in labels)
        assert any(label.startswith("reduce/") for label in labels)

    def test_ballpark(self, testbed_small):
        outcome = run_histogram(testbed_small, 500_000)
        assert outcome.predicted_time <= outcome.time <= 2.0 * outcome.predicted_time

    def test_hbsp2_ballpark(self, fig1_machine):
        outcome = run_histogram(fig1_machine, 500_000)
        assert outcome.predicted_time <= outcome.time <= 2.5 * outcome.predicted_time

    def test_map_w_scales_with_n(self, testbed_small):
        small = run_histogram(testbed_small, 100_000)
        large = run_histogram(testbed_small, 400_000)
        assert large.predicted.component("w") > 3 * small.predicted.component("w")


class TestOutcomeApi:
    def test_predicted_time_none_for_unpredicted_apps(self, testbed_small):
        from repro.apps import run_sample_sort

        outcome = run_sample_sort(testbed_small, 10_000)
        assert outcome.predicted is None
        assert outcome.predicted_time is None
