"""The experiments that are not SimJob grids keep their results in the
sweep's disk tier: a warm pass re-derives nothing, and no disk tier
means no files at all."""

import json

import pytest

import repro.serve.costs
import repro.serve.service
from repro.cli import main
from repro.dynamics import churn_plan
from repro.experiments import discovery, run_experiment
from repro.experiments.dynamics import dynamics_curves
from repro.experiments.serving import serving_config, serving_curves
from repro.perf import cached_point, default_cache_dir, sweep


def _count_calls(monkeypatch, module, names, calls):
    """Record each call of ``module.<name>`` in ``calls``, then make it."""
    for name in names:

        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)


def test_a_warm_sweep_replays_the_discovery_experiment(tmp_path, monkeypatch):
    calls: list[str] = []
    _count_calls(monkeypatch, discovery, ("synthesize", "discover"), calls)
    points = len(discovery.FAMILY_SPECS) * len(discovery.NOISE_LEVELS)
    with sweep(cache_dir=tmp_path):
        cold = run_experiment("discovery").render()
        assert calls.count("synthesize") == calls.count("discover") == points
        calls.clear()
        warm = run_experiment("discovery").render()
    assert calls == []
    assert warm == cold
    with sweep():  # no disk tier: recomputed, the same text
        assert run_experiment("discovery").render() == cold
    assert len(calls) == 2 * points


#: Small grids of the two serving experiments: every point is one session.
SERVING_SWEEPS = {
    "serve": (lambda: serving_curves(rates=(8.0, 48.0)), "p50"),
    "dynamics": (lambda: dynamics_curves(churn_rates=(0.0, 0.5)), "epochs"),
}


@pytest.fixture
def session_calls(monkeypatch):
    """Every session, slice-table carving and stage-cost ``evaluate`` call."""
    calls: list[str] = []
    _count_calls(monkeypatch, repro.serve.service, ("run_service", "serve_slices"), calls)
    _count_calls(monkeypatch, repro.serve.costs, ("evaluate",), calls)
    return calls


@pytest.mark.parametrize("experiment", sorted(SERVING_SWEEPS))
def test_a_warm_sweep_replays_no_serving_session(experiment, tmp_path, session_calls):
    build, _ = SERVING_SWEEPS[experiment]
    with sweep(cache_dir=tmp_path):
        cold = build().render()
        assert session_calls.count("run_service") == 2
        session_calls.clear()
        warm = build().render()
    assert session_calls == []
    assert warm == cold
    with sweep():  # no disk tier: recomputed, the same text
        assert build().render() == cold
    assert session_calls.count("run_service") == 2


@pytest.mark.parametrize("experiment", sorted(SERVING_SWEEPS))
def test_a_truncated_or_misshapen_row_is_recomputed(experiment, tmp_path, session_calls):
    build, field = SERVING_SWEEPS[experiment]
    with sweep(cache_dir=tmp_path) as executor:
        cold = build().render()
        rows = [
            path
            for path in sorted(executor.disk.dir.glob("*/*.json"))
            if field in json.loads(path.read_text())
        ]
        assert len(rows) == 2
        rows[0].write_text(rows[0].read_text()[:-5])
        misshapen = json.loads(rows[1].read_text())
        misshapen["goodput"] = str(misshapen["goodput"])
        rows[1].write_text(json.dumps(misshapen))
        session_calls.clear()
        assert build().render() == cold
        assert session_calls.count("run_service") == 2
        session_calls.clear()
        assert build().render() == cold  # the recomputed rows were stored
    assert session_calls == []


def test_point_keys_follow_the_inputs(tmp_path):
    machines = [f"m{i}" for i in range(4)]
    computed: list[str] = []

    def point(label, tag, *inputs):
        def compute():
            computed.append(label)
            return {"label": label}

        return cached_point(tag, inputs, compute, {"label": str})["label"]

    base = serving_config(8.0)
    plan = churn_plan(machines, rate=0.5, duration=20.0, seed=0)
    with sweep(cache_dir=tmp_path):
        assert point("base", "serve", base) == "base"
        assert point("again", "serve", serving_config(8.0)) == "base"
        point("rate", "serve", serving_config(16.0))
        point("seed", "serve", serving_config(8.0, seed=1))
        point("process", "serve", serving_config(8.0, process="diurnal"))
        assert point("tag", "dynamics", base) == "tag"
        point("plan", "dynamics", base, plan)
        same_plan = churn_plan(machines, rate=0.5, duration=20.0, seed=0)
        assert point("plan again", "dynamics", base, same_plan) == "plan"
        point("churn", "dynamics", base, churn_plan(machines, rate=1.0, duration=20.0))
    assert computed == ["base", "rate", "seed", "process", "tag", "plan", "churn"]


def test_observed_runs_keep_their_metrics(tmp_path):
    """Under ``--metrics-out`` the rows are recomputed, not read: the warm
    pass records the same sessions and stage costs as the cold one."""
    metrics = {}
    for run in ("cold", "warm"):
        out = tmp_path / f"{run}.prom"
        argv = ["experiment", "serve", "dynamics", "--cache-dir", str(tmp_path / "c")]
        assert main([*argv, "--metrics-out", str(out)]) == 0
        metrics[run] = out.read_text()
    assert "repro_serve_" in metrics["cold"]
    assert metrics["warm"] == metrics["cold"]


def test_without_a_disk_tier_nothing_is_written(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    with sweep():
        for experiment_id in ("tuning", "discovery", "serve", "dynamics"):
            run_experiment(experiment_id)
    root = default_cache_dir()
    assert not root.exists() or not any(p.is_file() for p in root.rglob("*"))
