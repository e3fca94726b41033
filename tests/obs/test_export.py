"""Exporter formats: Chrome trace JSON, Prometheus text, CLI wiring.

Chrome traces must satisfy the ``trace_event`` schema (otherwise the
viewers silently drop events); Prometheus text must parse under the
exposition format's line grammar; and the CLI must write files only
when asked (flags off -> byte-identical stdout, nothing on disk).
"""

from __future__ import annotations

import json
import re

import pytest

from repro.cluster.presets import ucf_testbed
from repro.collectives import run_gather
from repro.obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace,
    collect_run_obs,
    observe,
    prometheus_text,
    summary,
)

#: One exposition-format sample line: name{labels} value
_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""  # first label
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"  # more labels
    r" (\+Inf|-Inf|NaN|[0-9eE.+-]+)$"      # value
)


def _observed_gather(n: int = 1024, p: int = 4):
    with observe(spans=True) as observation:
        outcome = run_gather(ucf_testbed(p), n)
        observation.record_run(collect_run_obs(outcome))
    return observation, outcome


class TestChromeTrace:
    def test_document_shape(self):
        observation, _ = _observed_gather()
        doc = json.loads(chrome_trace(observation.tracer))
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]

    def test_complete_events_have_required_fields(self):
        observation, outcome = _observed_gather()
        events = json.loads(chrome_trace(observation.tracer))["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        for event in complete:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(event)
            assert event["ts"] >= 0.0
            assert 0.0 <= event["dur"] <= outcome.time * 1e6 + 1e-6
            assert isinstance(event["pid"], int) and isinstance(event["tid"], int)

    def test_metadata_names_processes_and_threads(self):
        observation, outcome = _observed_gather()
        events = json.loads(chrome_trace(observation.tracer))["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        process_names = {
            e["args"]["name"] for e in meta if e["name"] == "process_name"
        }
        thread_names = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
        assert outcome.name in process_names
        machine_names = {m.name for m in outcome.runtime.topology.machines}
        assert machine_names <= thread_names

    def test_events_reference_only_declared_tracks(self):
        observation, _ = _observed_gather()
        events = json.loads(chrome_trace(observation.tracer))["traceEvents"]
        declared = {
            (e["pid"], e["tid"]) for e in events if e["name"] == "thread_name"
        }
        for event in events:
            if event["ph"] == "X":
                assert (event["pid"], event["tid"]) in declared

    def test_empty_tracer_is_still_valid_json(self):
        doc = json.loads(chrome_trace(Tracer()))
        assert doc["traceEvents"] == []


class TestPrometheusText:
    def test_every_line_parses(self):
        observation, _ = _observed_gather()
        text = prometheus_text(observation.metrics)
        assert text.endswith("\n")
        for line in text.splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert _SAMPLE.match(line), f"unparseable sample line: {line!r}"

    def test_histograms_expand_to_cumulative_buckets(self):
        observation, _ = _observed_gather()
        text = prometheus_text(observation.metrics)
        buckets = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_superstep_seconds_bucket")
        ]
        assert buckets == sorted(buckets)  # cumulative => non-decreasing
        assert 'le="+Inf"' in text
        count = next(
            line for line in text.splitlines()
            if line.startswith("repro_superstep_seconds_count")
        )
        assert int(count.rsplit(" ", 1)[1]) == buckets[-1]

    def test_type_and_help_precede_samples(self):
        observation, _ = _observed_gather()
        lines = prometheus_text(observation.metrics).splitlines()
        seen_type: set[str] = set()
        for line in lines:
            if line.startswith("# TYPE "):
                seen_type.add(line.split()[2])
            elif not line.startswith("#"):
                name = re.split(r"[{ ]", line, 1)[0]
                family = re.sub(r"_(bucket|sum|count)$", "", name)
                assert name in seen_type or family in seen_type

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.inc("weird_total", 1.0, (("why", 'a"b\\c\nd'),))
        text = prometheus_text(registry)
        assert 'why="a\\"b\\\\c\\nd"' in text

    def test_empty_registry_exports_empty_string(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestSummary:
    def test_summary_contains_headline_and_ledger(self):
        observation, outcome = _observed_gather()
        text = summary(observation)
        assert "== observability summary ==" in text
        assert "per-superstep ledger (simulated vs predicted)" in text
        assert "divergence (sim/pred)" in text

    def test_row_overflow_is_reported_not_silent(self):
        with observe() as observation:
            for seed in range(3):
                observation.record_run(collect_run_obs(run_gather(ucf_testbed(2), 128, seed=seed)))
        text = summary(observation, max_rows=1)
        assert "2 more superstep row(s)" in text


class TestCliWiring:
    def test_run_writes_both_files(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.prom"
        code = main([
            "run", "gather", "testbed:4", "--n", "512",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
            "--obs-summary",
        ])
        assert code == 0
        assert json.loads(trace_path.read_text())["traceEvents"]
        assert "repro_runs_total 1.0" in metrics_path.read_text()
        assert "== observability summary ==" in capsys.readouterr().out

    def test_flags_off_writes_nothing(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["run", "gather", "testbed:4", "--n", "512"]) == 0
        assert list(tmp_path.iterdir()) == []
        assert "observability" not in capsys.readouterr().out

    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_experiment_aliases_point_at_real_experiments(self):
        from repro.experiments.runner import EXPERIMENT_ALIASES, EXPERIMENTS

        for alias, target in EXPERIMENT_ALIASES.items():
            assert target in EXPERIMENTS
            assert alias not in EXPERIMENTS
        assert EXPERIMENT_ALIASES["fig3_gather"] == "fig3a"

    def test_unknown_experiment_error_still_raised_for_aliases(self):
        from repro.errors import ExperimentError
        from repro.experiments import run_experiment

        with pytest.raises(ExperimentError, match="unknown experiment"):
            run_experiment("fig9_nonsense")
