"""Tests for the ``python -m repro`` command line."""

import json

import pytest

import repro
from repro.cli import PRESETS, build_preset, main
from repro.errors import ReproError


class TestBuildPreset:
    def test_all_presets_build(self):
        for name in PRESETS:
            topology = build_preset(name)
            assert topology.num_machines >= 1

    def test_size_suffix(self):
        assert build_preset("testbed:6").num_machines == 6
        assert build_preset("flat:3").num_machines == 3
        assert build_preset("deep:3").height == 3

    def test_unknown_preset(self):
        with pytest.raises(ReproError, match="unknown preset"):
            build_preset("cloud")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "testbed" in out
        assert "gather" in out
        assert "fig3a" in out

    def test_describe(self, capsys):
        assert main(["describe", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "sgi-octane" in out

    def test_calibrate(self, capsys):
        assert main(["calibrate", "testbed:4"]) == 0
        out = capsys.readouterr().out
        assert "M_{1,0}" in out

    def test_probe(self, capsys):
        assert main(["probe", "testbed:3"]) == 0
        out = capsys.readouterr().out
        assert "probed" in out

    @pytest.mark.parametrize(
        "collective",
        ["gather", "broadcast", "scatter", "reduce", "allgather",
         "alltoall", "allreduce", "scan"],
    )
    def test_run_collectives(self, capsys, collective):
        assert main(["run", collective, "testbed:4", "--n", "5000"]) == 0
        out = capsys.readouterr().out
        assert "simulated:" in out
        assert "cost ledger" in out

    def test_run_with_options(self, capsys):
        assert main([
            "run", "gather", "testbed:4", "--n", "5000",
            "--root", "slowest", "--workload", "equal", "--gantt",
        ]) == 0
        out = capsys.readouterr().out
        assert "gantt" in out

    def test_run_explicit_root_pid(self, capsys):
        assert main(["run", "gather", "testbed:4", "--root", "2"]) == 0
        assert "root=pid2" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "tune"])
    def test_junk_root_is_a_typed_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "gather", "testbed:4", "--root", "fastish"])
        assert exit_info.value.code == 2
        assert "--root must be" in capsys.readouterr().err

    def test_run_unknown_collective(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "sort", "testbed:4"])

    def test_experiment(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "[table1]" in capsys.readouterr().out

    def test_experiment_plot(self, capsys):
        assert main(["experiment", "table1", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out

    def test_unknown_experiment_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestTopologyCommands:
    def test_generate_prints_summary(self, capsys):
        assert main(["topology", "generate",
                     "multi_rack:racks=2,hosts_per_rack=3"]) == 0
        out = capsys.readouterr().out
        assert "p = 6 machines" in out
        assert "k = 2 levels" in out

    def test_generate_accepts_presets_too(self, capsys):
        assert main(["topology", "generate", "testbed:4"]) == 0
        assert "p = 4 machines" in capsys.readouterr().out

    def test_generate_writes_topology_and_matrix(self, tmp_path, capsys):
        topo_file = tmp_path / "topo.json"
        matrix_file = tmp_path / "probe.npz"
        assert main([
            "topology", "generate", "fat_tree:pods=2,racks_per_pod=2,hosts_per_rack=2",
            "--out", str(topo_file), "--params",
            "--matrix-out", str(matrix_file), "--noise", "0.05",
        ]) == 0
        assert topo_file.exists() and matrix_file.exists()
        out = capsys.readouterr().out
        assert "wrote topology JSON" in out
        assert "wrote probe matrix" in out

    def test_discover_from_matrix_file(self, tmp_path, capsys):
        matrix_file = tmp_path / "probe.json"
        assert main([
            "topology", "generate", "multi_rack:racks=3,hosts_per_rack=4",
            "--matrix-out", str(matrix_file),
        ]) == 0
        capsys.readouterr()
        assert main(["topology", "discover", "--matrix", str(matrix_file)]) == 0
        out = capsys.readouterr().out
        assert "discovered HBSP^2" in out
        assert "clusters per level" in out

    def test_discover_from_spec_scores_against_truth(self, tmp_path, capsys):
        out_file = tmp_path / "recovered.json"
        assert main([
            "topology", "discover", "--spec",
            "cloud_spot_mix:regions=2,zones_per_region=2,instances_per_zone=3",
            "--out", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "exact True" in out
        assert out_file.exists()

    def test_discover_needs_exactly_one_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["topology", "discover"])
        assert "exactly one" in capsys.readouterr().err

    def test_inspect_topology_and_matrix(self, tmp_path, capsys):
        topo_file = tmp_path / "topo.json"
        matrix_file = tmp_path / "probe.npz"
        assert main([
            "topology", "generate", "multi_rack:racks=2,hosts_per_rack=2",
            "--out", str(topo_file), "--matrix-out", str(matrix_file),
        ]) == 0
        capsys.readouterr()
        assert main(["topology", "inspect", str(topo_file)]) == 0
        assert "topology file" in capsys.readouterr().out
        assert main(["topology", "inspect", str(matrix_file)]) == 0
        out = capsys.readouterr().out
        assert "probe matrix" in out
        assert "latency" in out

    def test_list_mentions_generators(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fat_tree" in out
        assert "cloud_spot_mix" in out


class TestTuningCommands:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        """Point the persistent cache at a throwaway directory."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        return tmp_path

    def test_tune_prints_the_decision(self, capsys):
        assert main(["tune", "gather", "testbed:4", "--n", "2000"]) == 0
        out = capsys.readouterr().out
        assert "gather(n=2000)" in out
        assert "plans priced analytically" in out
        assert "verdict" in out

    def test_cache_covers_the_experiments_entries(self, isolated_cache, capsys, monkeypatch):
        """``repro experiment`` keeps the tuning experiment's decisions
        and the discovery scores in its one store: ``cache`` counts,
        orphans and clears them with the simulation results."""
        import repro.perf.diskcache as diskcache

        assert main(["experiment", "tuning", "discovery"]) == 0
        capsys.readouterr()
        current = isolated_cache / f"v{diskcache.CACHE_SCHEMA_VERSION}-{repro.__version__}"
        records = [json.loads(path.read_text()) for path in current.glob("*/*.json")]
        assert sum("plan" in record for record in records) == 12  # 4 families x 3 sizes
        assert sum("score" in record for record in records) == 24  # 4 families x 6 noises
        assert list(isolated_cache.iterdir()) == [current]
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert f"current ({current.name}): {len(records)} entries" in out

        monkeypatch.setattr(diskcache, "CACHE_SCHEMA_VERSION", diskcache.CACHE_SCHEMA_VERSION + 1)
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert ": 0 entries" in out
        assert f"in {current.name}" in out  # orphaned, not lost
        assert main(["cache", "clear"]) == 0
        capsys.readouterr()
        assert list(isolated_cache.rglob("*.json")) == []

    def test_tune_is_idempotent_across_invocations(self, capsys):
        assert main(["tune", "broadcast", "two-lans", "--n", "2000"]) == 0
        cold = capsys.readouterr().out
        assert main(["tune", "broadcast", "two-lans", "--n", "2000"]) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_tune_rejects_untunable_collectives(self):
        with pytest.raises(SystemExit):
            main(["tune", "scatter", "testbed:4"])

    def test_run_with_tuned_schedule(self, capsys):
        assert main([
            "run", "broadcast", "two-lans", "--n", "500",
            "--schedule", "tuned",
        ]) == 0
        out = capsys.readouterr().out
        assert "tuned schedule:" in out
        assert "simulated:" in out

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "broadcast", "testbed", "--n", "1000", "--schedule", "tuned"],
            ["experiment", "tuning"],
        ],
        ids=["run", "experiment"],
    )
    def test_tuned_schedule_under_span_tracing(self, command, tmp_path, capsys):
        """The tuner's validations run unobserved, so a span tracer
        cannot push them off the macro path they ask for."""
        trace = tmp_path / "t.json"
        assert main([*command, "--trace-out", str(trace)]) == 0
        assert "traceEvents" in json.loads(trace.read_text())

    def test_tuned_run_metrics_never_count_the_validations(self, tmp_path, capsys):
        """Cold (tunes) and warm (recalls) decision caches export the
        same metrics: one run, the one the command asked for."""
        exports = []
        for label in ("cold", "warm"):
            metrics = tmp_path / f"{label}.prom"
            assert main([
                "run", "broadcast", "testbed", "--n", "1000",
                "--schedule", "tuned", "--metrics-out", str(metrics),
            ]) == 0
            exports.append(metrics.read_bytes())
        assert exports[0] == exports[1]
        assert b"\nrepro_runs_total 1.0\n" in exports[0]

    def test_experiment_schedule_flag(self, capsys):
        assert main(["experiment", "fig3a", "--schedule", "tuned"]) == 0
        assert "[fig3a]" in capsys.readouterr().out

    def test_experiment_schedule_rejected_elsewhere(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table1", "--schedule", "tuned"])

    def _records(self, root) -> list[dict]:
        return [json.loads(path.read_text()) for path in root.rglob("*.json")]

    def test_cache_stats_prune_clear(self, isolated_cache, capsys):
        assert main(["tune", "gather", "testbed:4", "--n", "2000"]) == 0
        capsys.readouterr()
        # Outside a sweep the validations persist nothing: the one entry
        # is the decision.
        assert ["plan" in record for record in self._records(isolated_cache)] == [True]
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert f"cache at {isolated_cache}" in out
        assert ": 1 entries" in out
        assert main(["cache", "prune"]) == 0
        out = capsys.readouterr().out
        assert "removed 1 item(s)" in out
        assert main(["cache", "stats"]) == 0
        assert ": 0 entries" in capsys.readouterr().out
        # --force re-tunes and re-persists the decision to disk
        assert main(
            ["tune", "gather", "testbed:4", "--n", "2000", "--force"]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "cleared (1 entries)" in out
        assert self._records(isolated_cache) == []

    def test_cache_prune_honours_max_bytes(self, capsys):
        assert main(["tune", "gather", "testbed:4", "--n", "2000"]) == 0
        capsys.readouterr()
        assert main(["cache", "prune", "--max-bytes", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "removed 0 item(s)" in out

    def test_cache_stats_breaks_down_tiers(self, isolated_cache, capsys):
        """stats counts simulation results and decisions as one store:
        a tuned experiment's 90 decisions sit beside its runs."""
        assert main(["experiment", "fig3a", "--schedule", "tuned"]) == 0
        capsys.readouterr()
        records = self._records(isolated_cache)
        decisions = sum("plan" in record for record in records)
        runs = sum("marks" in record for record in records)
        assert decisions == 90 and runs > 0
        assert decisions + runs == len(records)
        assert main(["cache", "stats"]) == 0
        assert f": {len(records)} entries" in capsys.readouterr().out

    def test_cache_prune_prints_total(self, isolated_cache, capsys):
        from repro.util.units import format_bytes

        assert main(["tune", "gather", "testbed:4", "--n", "2000"]) == 0
        capsys.readouterr()
        (entry,) = isolated_cache.rglob("*.json")
        size = entry.stat().st_size
        assert main(["cache", "prune"]) == 0
        out = capsys.readouterr().out
        assert f"removed 1 item(s), freed {format_bytes(size)}" in out


class TestDecisionsFollowTheCacheFlags:
    """A tuning decision is kept in the store its command was given:
    ``--cache-dir`` holds it, ``--no-cache`` keeps it nowhere, and the
    default root (``$REPRO_CACHE_DIR``) is never written behind them."""

    @pytest.fixture(autouse=True)
    def home(self, tmp_path, monkeypatch):
        home = tmp_path / "home"
        home.mkdir()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(home))
        return home

    @staticmethod
    def _files(root) -> list:
        return [path for path in root.rglob("*") if path.is_file()]

    def test_no_cache_persists_no_decision(self, home, capsys):
        assert main(["experiment", "fig3a", "--schedule", "tuned", "--no-cache"]) == 0
        assert self._files(home) == []

    def test_cache_dir_holds_every_decision(self, home, tmp_path, capsys):
        store = tmp_path / "store"
        assert main([
            "experiment", "fig3a", "--schedule", "tuned", "--cache-dir", str(store),
        ]) == 0
        assert self._files(home) == []
        records = [json.loads(path.read_text()) for path in self._files(store)]
        assert sum("plan" in record for record in records) == 90

    def test_serve_cache_dir_holds_its_decisions(self, home, tmp_path, capsys):
        import dataclasses

        from repro.serve import default_config

        config = default_config(duration=2.0)
        config = dataclasses.replace(
            config, policy=dataclasses.replace(config.policy, schedule="tuned")
        )
        path = tmp_path / "service.json"
        path.write_text(config.to_json())
        store = tmp_path / "store"
        assert main(["serve", "--config", str(path), "--cache-dir", str(store)]) == 0
        assert self._files(home) == []
        records = [json.loads(entry.read_text()) for entry in self._files(store)]
        assert any("plan" in record for record in records)


class TestServeCommand:
    def test_serve_default_session(self, capsys):
        assert main(["serve", "--duration", "5"]) == 0
        out = capsys.readouterr().out
        assert "serving session on two-lans:3" in out
        assert "goodput" in out
        assert "p50" in out

    def test_serve_from_config_file(self, tmp_path, capsys):
        from repro.serve import default_config

        config = default_config(seed=7, duration=5.0)
        path = tmp_path / "service.json"
        path.write_text(config.to_json())
        assert main(["serve", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "seed 7" in out

    def test_serve_overrides(self, capsys):
        assert main([
            "serve", "--duration", "5", "--rate", "1.0", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "seed 3" in out
        assert "1 req/s open-loop" in out

    def test_serve_metrics_export(self, tmp_path, capsys):
        metrics_file = tmp_path / "metrics.prom"
        assert main([
            "serve", "--duration", "5", "--metrics-out", str(metrics_file),
        ]) == 0
        text = metrics_file.read_text()
        assert "repro_serve_requests_total" in text
        assert "repro_serve_latency_seconds_bucket" in text


def _service_doc(**changes):
    import json

    from repro.serve import default_config

    return json.dumps({**default_config(duration=2.0).to_dict(), **changes})


def _runs_without_predicted():
    import json

    from repro.collectives import run_gather
    from repro.cluster import ucf_testbed
    from repro.obs import collect_run_obs, observe, runs_json

    with observe() as observation:
        observation.record_run(collect_run_obs(run_gather(ucf_testbed(3), 500)))
    document = json.loads(runs_json(observation))
    del document["runs"][0]["predicted"]
    return json.dumps(document)


#: (id, file content or None, argv with ``{file}`` for the written file,
#: substrings the one error line must carry).  Most of these were once
#: a traceback, a silent acceptance or a silently ignored value.
_MALFORMED = [
    ("faults-not-a-list", '{"faults": 5}',
     ["run", "gather", "testbed:3", "--faults", "{file}"], ["faults"]),
    ("fault-not-an-object", '{"faults": ["x"]}',
     ["run", "gather", "testbed:3", "--faults", "{file}"], ["faults[0]"]),
    ("arrival-rate-word", lambda: _service_doc(arrival={"rate": "fast"}),
     ["serve", "--config", "{file}"], ["arrival.rate", "'fast'"]),
    ("workload-entry-number", lambda: _service_doc(workload=[5]),
     ["serve", "--config", "{file}"], ["workload[0]"]),
    ("events-null", '{"events": null}',
     ["serve", "--duration", "2", "--dynamics", "{file}"], ["events"]),
    ("serve-drift-kind",
     '{"events": [{"kind": "speed_drift", "machine": "lan0-m0"}]}',
     ["serve", "--duration", "2", "--dynamics", "{file}"],
     ["events[0]", "speed_drift", "machine_join, machine_leave"]),
    ("inspect-not-json", "{nope",
     ["topology", "inspect", "{file}"], ["not valid JSON"]),
    ("inspect-no-root", '{"schema": "repro.cluster/2"}',
     ["topology", "inspect", "{file}"], ["root"]),
    ("inspect-missing-file", None,
     ["topology", "inspect", "{file}"], ["cannot read"]),
    ("fit-record-without-predicted", _runs_without_predicted,
     ["calibrate", "testbed:3", "--fit", "{file}"], ["runs[0]", "predicted"]),
    ("preset-size-word", None,
     ["describe", "testbed:abc"], ["testbed:abc"]),
    ("unknown-config-key", lambda: _service_doc(polcy={"max_batch": 1}),
     ["serve", "--config", "{file}"],
     ["polcy", "arrival, cluster, duration, policy, seed, workload"]),
    ("fault-start-word",
     '{"faults": [{"kind": "machine_slowdown", "machine": "m", '
     '"factor": 2, "start": "soon"}]}',
     ["run", "gather", "testbed:3", "--faults", "{file}"],
     ["machine_slowdown"]),
    ("foreign-matrix-schema", '{"schema": "acme.matrix/9", "names": []}',
     ["topology", "discover", "--matrix", "{file}"], ["schema"]),
    ("root-out-of-range", None,
     ["run", "gather", "testbed:3", "--root", "99"], ["99"]),
    ("inspect-pair-multipliers",
     '{"schema": "repro.cluster/2", "root": {"kind": "machine", "name": "m"}, '
     '"pair_multipliers": [{"a": "m", "b": "n", "factor": 2}]}',
     ["topology", "inspect", "{file}"], ["pair_multipliers"]),
    ("prune-negative-max-bytes", None,
     ["cache", "prune", "--max-bytes", "-5"], ["max_bytes", "-5"]),
    ("run-negative-retries", None,
     ["run", "gather", "testbed:3", "--retries", "-2"], ["retries", "-2"]),
    ("run-negative-retries-with-timeout", None,
     ["run", "gather", "testbed:3", "--retries", "-2", "--send-timeout", "0.5"],
     ["retries", "-2"]),
]


class TestMalformedInputMatrix:
    """Every external input ends in one typed ``error:`` line, exit 2."""

    @pytest.mark.parametrize(
        "content,argv,needles",
        [pytest.param(*case[1:], id=case[0]) for case in _MALFORMED],
    )
    def test_one_error_line_no_traceback(
        self, content, argv, needles, tmp_path, capsys
    ):
        path = tmp_path / "input.json"
        if content is not None:
            path.write_text(content() if callable(content) else content)
        argv = [arg.replace("{file}", str(path)) for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert "Traceback" not in captured.err
        for needle in needles:
            assert needle in lines[0], lines[0]


class TestVersionSingleSource:
    """One version string, asserted everywhere it is declared."""

    def test_cli_version_flag_matches_package(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_pyproject_matches_package(self):
        import pathlib

        import repro

        tomllib = pytest.importorskip("tomllib")
        pyproject = pathlib.Path(__file__).parents[2] / "pyproject.toml"
        if not pyproject.exists():
            pytest.skip("pyproject.toml not present in this checkout")
        data = tomllib.loads(pyproject.read_text())
        assert data["project"]["version"] == repro.__version__
