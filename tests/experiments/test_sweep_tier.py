"""The experiments that are not SimJob grids keep their results in the
sweep's disk tier: a warm pass re-derives nothing, and no disk tier
means no files at all."""

from repro.experiments import discovery, run_experiment
from repro.perf import default_cache_dir, sweep
from repro.tuning.cache import default_decision_dir


def test_a_warm_sweep_replays_the_discovery_experiment(tmp_path, monkeypatch):
    calls: list[str] = []
    for name in ("synthesize", "discover"):

        def counting(*args, _name=name, _original=getattr(discovery, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(discovery, name, counting)
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


def test_without_a_disk_tier_nothing_is_written(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    with sweep():
        for experiment_id in ("tuning", "discovery"):
            run_experiment(experiment_id)
    for root in (default_cache_dir(), default_decision_dir()):
        assert not root.exists() or not any(p.is_file() for p in root.rglob("*"))
