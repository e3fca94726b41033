"""Unit tests for repro.bytemark's simulated scores."""

import pytest

from repro.bytemark import simulate_scores, true_scores
from repro.cluster import ucf_testbed
from repro.errors import ValidationError


class TestSimulateScores:
    def test_zero_noise_is_truth(self):
        topo = ucf_testbed(5)
        assert simulate_scores(topo, noise_sigma=0.0) == true_scores(topo)

    def test_true_scores_are_cpu_rates(self):
        topo = ucf_testbed(4)
        scores = true_scores(topo)
        for machine in topo.machines:
            assert scores[machine.name] == machine.cpu_rate

    def test_noise_deterministic_per_seed(self):
        topo = ucf_testbed(6)
        a = simulate_scores(topo, noise_sigma=0.2, seed=1)
        b = simulate_scores(topo, noise_sigma=0.2, seed=1)
        assert a == b

    def test_different_seed_different_noise(self):
        topo = ucf_testbed(6)
        a = simulate_scores(topo, noise_sigma=0.2, seed=1)
        b = simulate_scores(topo, noise_sigma=0.2, seed=2)
        assert a != b

    def test_score_independent_of_topology_membership(self):
        """A machine's simulated score doesn't depend on which other
        machines were benchmarked with it — like real hosts."""
        big = simulate_scores(ucf_testbed(10), noise_sigma=0.3, seed=9)
        small = simulate_scores(ucf_testbed(3), noise_sigma=0.3, seed=9)
        for name in small:
            assert small[name] == big[name]

    def test_noise_scales_with_sigma(self):
        topo = ucf_testbed(10)
        mild = simulate_scores(topo, noise_sigma=0.01, seed=3)
        wild = simulate_scores(topo, noise_sigma=0.8, seed=3)
        truth = true_scores(topo)
        mild_err = max(abs(mild[n] / truth[n] - 1) for n in truth)
        wild_err = max(abs(wild[n] / truth[n] - 1) for n in truth)
        assert mild_err < wild_err

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError):
            simulate_scores(ucf_testbed(2), noise_sigma=-0.1)

    def test_all_scores_positive(self):
        scores = simulate_scores(ucf_testbed(10), noise_sigma=1.0, seed=0)
        assert all(score > 0 for score in scores.values())
