"""The persistent disk cache: hits, invalidation, corruption, identity.

The cache is an accelerator with two hard promises: warm runs render
byte-identical output to cold runs, and *no* on-disk state — missing,
truncated, corrupted, or from another version — can ever break a sweep
(worst case it recomputes).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cluster.presets import ucf_testbed
from repro.collectives import RootPolicy
from repro.experiments.fig3_gather import fig3a_gather_root
from repro.obs import RunObs
from repro.perf import (
    CACHE_SCHEMA_VERSION,
    DiskCache,
    SimJob,
    SweepExecutor,
    default_cache_dir,
    effective_jobs,
    sweep,
)


def _gather_job(seed: int = 0, n: int = 500, p: int = 3) -> SimJob:
    return SimJob.collective(
        "gather", ucf_testbed(p), n, root=RootPolicy.FASTEST, seed=seed
    )


def _result(
    name: str = "gather",
    time: float = 1.25,
    predicted_time: float | None = 1.5,
    supersteps: int = 3,
) -> RunObs:
    return RunObs(
        name=name,
        machines=("a", "b"),
        r=(1.0, 2.0 / 3.0),
        marks=(((0.1, 0.2, 1, 2, 3, 4),), ((0.3, 1e-9 / 7.0, 5, 6, 7, 8),)),
        predicted=None if predicted_time is None else (("step", 1, 0.5, 0.25, 1e-3),),
        counters=(("repro_messages_sent_total", (("machine", "a"),), 4.0),),
        time=time,
        predicted_time=predicted_time,
        supersteps=supersteps,
    )


class TestDiskCache:
    def test_round_trip_is_exact(self, tmp_path):
        cache = DiskCache(tmp_path)
        stored = _result(time=0.1 + 0.2, predicted_time=1e-9 / 3.0, supersteps=7)
        cache.put("ab" + "0" * 62, stored)
        restored = cache.get("ab" + "0" * 62)
        assert restored == stored  # same doubles, not approximately
        # The entry is the record itself, nothing wrapped around it.
        assert cache.get_json("ab" + "0" * 62) == json.loads(json.dumps(stored.to_jsonable()))

    def test_absent_key_misses(self, tmp_path):
        assert DiskCache(tmp_path).get("ff" + "0" * 62) is None

    def test_none_predicted_time_round_trips(self, tmp_path):
        cache = DiskCache(tmp_path)
        stored = _result(name="app", time=2.0, predicted_time=None, supersteps=1)
        cache.put("cd" + "0" * 62, stored)
        assert cache.get("cd" + "0" * 62) == stored

    def test_version_bump_invalidates(self, tmp_path):
        old = DiskCache(tmp_path, version="v-old")
        old.put("ab" + "0" * 62, _result())
        new = DiskCache(tmp_path, version="v-new")
        assert new.get("ab" + "0" * 62) is None
        assert len(old) == 1 and len(new) == 0

    def test_default_version_embeds_schema_constant(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.version.startswith(f"v{CACHE_SCHEMA_VERSION}-")

    @pytest.mark.parametrize(
        "payload",
        [
            "",  # empty file
            '{"name": "gather", "time": 1.2',  # truncated mid-entry
            "not json at all",
            '{"name": "gather"}',  # missing keys
            '{"name": "gather", "time": "soon", '
            '"predicted_time": null, "supersteps": 1}',  # wrong types
            '[1, 2, 3]',  # wrong shape
        ],
    )
    def test_corrupt_entry_is_a_miss(self, tmp_path, payload):
        cache = DiskCache(tmp_path)
        key = "ab" + "0" * 62
        cache.put(key, _result())
        path = cache.dir / key[:2] / f"{key}.json"
        path.write_text(payload)
        assert cache.get(key) is None

    def test_put_overwrites_corrupt_entry(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "ab" + "0" * 62
        cache.put(key, _result())
        (cache.dir / key[:2] / f"{key}.json").write_text("garbage")
        cache.put(key, _result())
        assert cache.get(key) == _result()

    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "ab" + "0" * 62
        cache.put(key, _result())
        leftovers = [
            p for p in (cache.dir / key[:2]).iterdir() if p.suffix != ".json"
        ]
        assert leftovers == []

    def test_write_failure_is_silent(self, tmp_path):
        cache = DiskCache(tmp_path / "file-in-the-way")
        (tmp_path / "file-in-the-way").write_text("")  # mkdir will fail
        cache.put("ab" + "0" * 62, _result())  # must not raise
        assert cache.get("ab" + "0" * 62) is None

    def test_wipe_removes_every_version_dir(self, tmp_path):
        cache = DiskCache(tmp_path / "sweeps")
        cache.put("ab" + "0" * 62, _result())
        cache.wipe()
        assert not cache.dir.exists()
        assert len(cache) == 0
        assert cache.stats().entries == 0

    def test_default_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro" / "sweeps"

    def test_get_put_json_round_trip(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "ef" + "0" * 62
        payload = {"plan": {"op": "gather"}, "time": 0.1 + 0.2}
        cache.put_json(key, payload)
        assert cache.get_json(key) == payload  # same doubles back

    def test_get_json_non_dict_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "ef" + "0" * 62
        cache.put_json(key, {"ok": 1})
        (cache.dir / key[:2] / f"{key}.json").write_text("[1, 2]")
        assert cache.get_json(key) is None


class TestStatsAndPrune:
    def _fill(self, cache: DiskCache, count: int) -> list[str]:
        keys = [f"{i:02x}" + "0" * 62 for i in range(count)]
        for i, key in enumerate(keys):
            cache.put(key, _result(name=f"r{i}"))
        return keys

    def test_stats_counts_entries_and_bytes(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.stats().entries == 0
        self._fill(cache, 3)
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.bytes > 0
        assert stats.stale_versions == () and stats.stale_bytes == 0
        assert stats.total_bytes == stats.bytes

    def test_stats_reports_stale_version_dirs(self, tmp_path):
        old = DiskCache(tmp_path, version="v1-0.1.0")
        self._fill(old, 2)
        new = DiskCache(tmp_path, version="v2-0.2.0")
        self._fill(new, 1)
        stats = new.stats()
        assert stats.entries == 1
        assert stats.stale_versions == ("v1-0.1.0",)
        assert stats.stale_bytes > 0
        assert stats.total_bytes == stats.bytes + stats.stale_bytes

    def test_prune_zero_empties_current_version(self, tmp_path):
        cache = DiskCache(tmp_path)
        self._fill(cache, 3)
        before = cache.stats().bytes
        removed, freed = cache.prune(0)
        assert removed == 3 and freed == before
        assert len(cache) == 0

    def test_prune_removes_stale_versions_first(self, tmp_path):
        old = DiskCache(tmp_path, version="v1-0.1.0")
        self._fill(old, 2)
        new = DiskCache(tmp_path, version="v2-0.2.0")
        self._fill(new, 1)
        # A budget large enough for the current entries: only the stale
        # version directory goes.
        removed, freed = new.prune(max_bytes=10**6)
        assert removed == 1 and freed > 0
        assert not (tmp_path / "v1-0.1.0").exists()
        assert len(new) == 1

    def test_prune_evicts_oldest_entries_first(self, tmp_path):
        cache = DiskCache(tmp_path)
        keys = self._fill(cache, 3)
        paths = [cache.dir / k[:2] / f"{k}.json" for k in keys]
        for age, path in enumerate(paths):
            os.utime(path, (1000 + age, 1000 + age))
        size = paths[0].stat().st_size
        # Budget for roughly two entries: the oldest one is evicted.
        cache.prune(max_bytes=2 * size + 1)
        assert not paths[0].exists()
        assert paths[1].exists() and paths[2].exists()

    def test_prune_never_touches_non_version_dirs(self, tmp_path):
        """Unrelated data under the cache root survives."""
        cache = DiskCache(tmp_path)
        self._fill(cache, 1)
        nested = tmp_path / "notes" / "v2-0.2.0" / "ab"
        nested.mkdir(parents=True)
        (nested.parent.parent / "note.txt").write_text("keep me")
        removed, _ = cache.prune(0)
        assert removed == 1
        assert nested.is_dir()
        assert (tmp_path / "notes" / "note.txt").read_text() == "keep me"

    def test_wipe_never_touches_non_version_dirs(self, tmp_path):
        """wipe() drops every version dir but spares unrelated data."""
        cache = DiskCache(tmp_path)
        self._fill(cache, 2)
        stale = tmp_path / "v1-0.1.0"
        stale.mkdir()
        (stale / "old.json").write_text("{}")
        nested = tmp_path / "notes" / "v2-0.2.0"
        nested.mkdir(parents=True)
        (tmp_path / "notes" / "note.txt").write_text("keep me")
        cache.wipe()
        assert len(cache) == 0
        assert not stale.exists()
        assert nested.is_dir()
        assert (tmp_path / "notes" / "note.txt").read_text() == "keep me"

    def test_prune_rejects_negative_budget(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            DiskCache(tmp_path).prune(-1)

    def test_prune_on_empty_cache_is_a_noop(self, tmp_path):
        assert DiskCache(tmp_path).prune(0) == (0, 0)


class TestExecutorIntegration:
    def test_cold_then_warm(self, tmp_path):
        jobs = [_gather_job(n=n) for n in (300, 600)]
        cold = SweepExecutor(jobs=1, cache_dir=tmp_path)
        cold_results = cold.evaluate(jobs)
        assert cold.disk_hits == 0 and cold.cache_misses == 2

        warm = SweepExecutor(jobs=1, cache_dir=tmp_path)
        warm_results = warm.evaluate(jobs)
        assert warm.disk_hits == 2 and warm.cache_misses == 0
        assert warm_results == cold_results

    def test_corrupt_entry_recomputes(self, tmp_path):
        job = _gather_job()
        cold = SweepExecutor(jobs=1, cache_dir=tmp_path)
        expected = cold.evaluate([job])
        key = job.content_hash
        entry = cold._disk.dir / key[:2] / f"{key}.json"
        entry.write_text(entry.read_text()[:10])  # truncate in place

        warm = SweepExecutor(jobs=1, cache_dir=tmp_path)
        assert warm.evaluate([job]) == expected
        assert warm.disk_hits == 0 and warm.cache_misses == 1
        # ... and the recompute repaired the entry.
        assert json.loads(entry.read_text())["supersteps"] >= 1

    def test_version_bump_recomputes(self, tmp_path):
        job = _gather_job()
        old = SweepExecutor(jobs=1, cache_dir=tmp_path, cache_version="v-old")
        expected = old.evaluate([job])
        new = SweepExecutor(jobs=1, cache_dir=tmp_path, cache_version="v-new")
        assert new.evaluate([job]) == expected
        assert new.disk_hits == 0 and new.cache_misses == 1

    def test_memo_still_shields_disk(self, tmp_path):
        executor = SweepExecutor(jobs=1, cache_dir=tmp_path)
        job = _gather_job()
        executor.evaluate([job, job])
        executor.evaluate([job])
        assert executor.cache_misses == 1
        assert executor.disk_hits == 0  # memo answered, disk never probed
        assert executor.cache_hits == 2

    def test_counters_unchanged_without_cache_dir(self):
        executor = SweepExecutor(jobs=1)
        job = _gather_job()
        executor.evaluate([job, job])
        assert executor.disk_hits == 0
        assert executor.cache_misses == 1 and executor.cache_hits == 1


def _render(cache_dir) -> str:
    with sweep(jobs=1, cache_dir=cache_dir):
        return fig3a_gather_root(sizes_kb=[100], processor_counts=[2, 3]).render()


class TestWarmColdIdentity:
    def test_warm_render_is_byte_identical_to_cold(self, tmp_path):
        cold = _render(tmp_path)
        warm = _render(tmp_path)
        assert warm == cold

    def test_cached_render_matches_uncached(self, tmp_path):
        with sweep(jobs=1):
            uncached = fig3a_gather_root(
                sizes_kb=[100], processor_counts=[2, 3]
            ).render()
        assert _render(tmp_path) == uncached


class TestEffectiveJobs:
    def test_serial_passes_through(self, capsys):
        assert effective_jobs(1) == 1
        assert capsys.readouterr().err == ""

    def test_clamps_on_single_cpu_host(self, monkeypatch, capsys):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert effective_jobs(4) == 1
        assert "1-CPU host" in capsys.readouterr().err

    def test_clamps_to_core_count(self, monkeypatch, capsys):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert effective_jobs(8) == 2
        assert "clamping to 2" in capsys.readouterr().err

    def test_within_cores_untouched(self, monkeypatch, capsys):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert effective_jobs(3) == 3
        assert capsys.readouterr().err == ""

    def test_nonpositive_becomes_serial(self):
        assert effective_jobs(0) == 1
        assert effective_jobs(-3) == 1
