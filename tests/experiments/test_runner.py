"""Tests for the experiment CLI runner."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import EXPERIMENTS, run_experiment


class TestRegistry:
    def test_all_design_doc_ids_present(self):
        expected = {
            "table1",
            "fig3a",
            "fig3b",
            "fig4a",
            "fig4b",
            "sec4-bcast-phases",
            "sec4-gather-hierarchy",
            "model-vs-sim",
            "ablations",
            "scaling",
            "bsp-vs-hbsp",
            "sensitivity",
            "robustness",
            "discovery",
            "tuning",
            "serve",
            "dynamics",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_id_rejected(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            run_experiment("fig99")

    def test_run_experiment_returns_report(self):
        report = run_experiment("table1")
        assert report.experiment_id == "table1"

    def test_seed_rejected_for_seedless_experiments(self):
        with pytest.raises(ExperimentError, match="does not accept a seed"):
            run_experiment("table1", seed=1)

    def test_robustness_accepts_a_seed(self):
        import inspect

        assert "seed" in inspect.signature(EXPERIMENTS["robustness"]).parameters


class TestCli:
    def test_main_single_experiment(self, capsys):
        from repro.experiments.runner import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "[table1]" in out

    def test_main_multiple(self, capsys):
        from repro.experiments.runner import main

        assert main(["table1", "table1"]) == 0
        assert capsys.readouterr().out.count("[table1]") == 2

    def test_profile_flag_dumps_stats(self, capsys):
        from repro.experiments.runner import main

        assert main(["table1", "--no-cache", "--profile",
                     "--profile-limit", "5"]) == 0
        captured = capsys.readouterr()
        assert "[table1]" in captured.out  # the report still renders
        assert "--- profile: table1 (top 5 by cumulative) ---" in captured.err
        assert "cumulative" in captured.err  # pstats column header

    def test_profile_flag_keeps_the_schedule(self, monkeypatch, tmp_path, capsys):
        from repro.experiments.runner import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))  # tuning decisions
        assert main(["fig4a", "--no-cache"]) == 0
        default = capsys.readouterr().out
        assert main(["fig4a", "--no-cache", "--schedule", "tuned"]) == 0
        tuned = capsys.readouterr().out
        assert tuned != default  # or the next line compares nothing
        assert main(["fig4a", "--no-cache", "--schedule", "tuned", "--profile"]) == 0
        assert capsys.readouterr().out == tuned

    def test_cache_dir_flag_populates_cache(self, tmp_path, capsys):
        from repro.experiments.runner import main

        assert main(["fig3a", "--cache-dir", str(tmp_path)]) == 0
        first = capsys.readouterr().out
        entries = list(tmp_path.rglob("*.json"))
        assert entries  # simulated grid points persisted

        assert main(["fig3a", "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == first  # warm == cold, byte-wise

    def test_no_cache_flag_writes_nothing(self, monkeypatch, tmp_path, capsys):
        from repro.experiments.runner import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["table1", "--no-cache"]) == 0
        assert list(tmp_path.rglob("*.json")) == []
