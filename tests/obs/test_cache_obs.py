"""Warm-cache observability: cached results still feed metrics/ledgers.

The disk cache stores each result as its compact RunObs record (schema
v6; v2 to v5 wrapped it), so a fully-warm sweep must export byte-identical metrics
and summaries to the cold run that populated it — satisfying the same
identity contract the rendered reports already honour.
"""

from __future__ import annotations

import json

from repro.cluster.presets import ucf_testbed
from repro.collectives import RootPolicy
from repro.obs import observe, prometheus_text, summary
from repro.perf import CACHE_SCHEMA_VERSION, DiskCache, SimJob, SweepExecutor


def _batch():
    return [
        SimJob.collective(
            "gather", ucf_testbed(p), n, root=RootPolicy.FASTEST, seed=0
        )
        for p in (2, 3)
        for n in (500, 1000)
    ]


def _export_through(executor: SweepExecutor) -> tuple[str, str, int]:
    with observe() as observation:
        executor.evaluate(_batch())
    return (
        prometheus_text(observation.metrics),
        summary(observation),
        executor.disk_hits,
    )


class TestWarmCacheObservability:
    def test_cold_and_warm_exports_are_byte_identical(self, tmp_path):
        cold_prom, cold_summary, cold_hits = _export_through(
            SweepExecutor(jobs=1, cache_dir=tmp_path)
        )
        warm_prom, warm_summary, warm_hits = _export_through(
            SweepExecutor(jobs=1, cache_dir=tmp_path)
        )
        assert cold_hits == 0
        assert warm_hits == len(_batch())  # fully warm: nothing simulated
        assert warm_prom == cold_prom
        assert warm_summary == cold_summary

    def test_cached_entries_carry_the_obs_record(self, tmp_path):
        executor = SweepExecutor(jobs=1, cache_dir=tmp_path)
        executor.evaluate(_batch()[:1])
        (entry,) = list(DiskCache(tmp_path).dir.glob("*/*.json"))
        data = json.loads(entry.read_text())
        assert "obs" not in data  # the entry is the record, not a wrapper
        assert data["machines"]
        assert data["marks"]

    def test_v1_entries_without_obs_miss_cleanly(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = "ab" + "0" * 62
        # A pre-obs (schema v1) payload in the current version dir: the
        # missing record keys must read as a miss, never as a crash.
        cache._path(key).parent.mkdir(parents=True)
        cache._path(key).write_text(json.dumps({
            "name": "gather", "time": 1.0,
            "predicted_time": 1.0, "supersteps": 1,
        }))
        assert cache.get(key) is None

    def test_schema_version_is_bumped_past_v1(self):
        assert CACHE_SCHEMA_VERSION >= 2
