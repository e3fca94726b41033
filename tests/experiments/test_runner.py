"""Tests for the experiment registry and the ``repro experiment`` command."""

import os
import subprocess
import sys

import pytest

from repro.cli import main
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
    """``repro experiment`` (``python -m repro.experiments`` is the same command)."""

    def test_main_single_experiment(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "[table1]" in out

    def test_main_multiple(self, capsys):
        assert main(["experiment", "table1", "table1"]) == 0
        assert capsys.readouterr().out.count("[table1]") == 2

    def test_every_id_is_checked_before_any_runs(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "table1", "fig99"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: unknown experiment 'fig99'" in captured.err

    def test_module_entry_point_is_the_experiment_command(self):
        def stdout(*command):
            return subprocess.run(
                [sys.executable, "-m", *command, "table1"],
                capture_output=True, check=True,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            ).stdout

        assert stdout("repro.experiments") == stdout("repro", "experiment")

    def test_cache_dir_flag_populates_cache(self, tmp_path, capsys):
        assert main(["experiment", "fig3a", "--cache-dir", str(tmp_path)]) == 0
        first = capsys.readouterr().out
        entries = list(tmp_path.rglob("*.json"))
        assert entries  # simulated grid points persisted

        assert main(["experiment", "fig3a", "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == first  # warm == cold, byte-wise

    def test_no_cache_flag_writes_nothing(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["experiment", "table1", "--no-cache"]) == 0
        assert list(tmp_path.rglob("*.json")) == []
