"""Tests for the persistent decision cache."""

import json

import pytest

from repro.errors import CollectiveError
from repro.perf import DiskCache
from repro.tuning.cache import DecisionCache, TunedDecision, decision_key
from repro.tuning.plan import LevelSchedule, SchedulePlan


def _decision(**overrides) -> TunedDecision:
    fields = dict(
        op="broadcast",
        topology_hash="ab" * 32,
        n=4000,
        root=0,
        plan=SchedulePlan(
            "broadcast", (LevelSchedule("one", 2), LevelSchedule("two"))
        ),
        predicted_time=0.5,
        simulated_time=0.75,
        default_time=1.0,
        candidates=25,
        validated=5,
    )
    fields.update(overrides)
    return TunedDecision(**fields)


class TestDecisionKey:
    def test_deterministic_hex(self):
        key = decision_key("gather", "ff" * 32, 100, 3)
        assert key == decision_key("gather", "ff" * 32, 100, 3)
        assert len(key) == 64
        int(key, 16)  # hex

    def test_every_field_discriminates(self):
        base = ("gather", "ff" * 32, 100, 3)
        variants = [
            ("broadcast", "ff" * 32, 100, 3),
            ("gather", "ee" * 32, 100, 3),
            ("gather", "ff" * 32, 101, 3),
            ("gather", "ff" * 32, 100, 2),
        ]
        keys = {decision_key(*base)} | {decision_key(*v) for v in variants}
        assert len(keys) == len(variants) + 1

    def test_rejects_unknown_op(self):
        with pytest.raises(CollectiveError, match="op must be"):
            decision_key("scatter", "ff" * 32, 100, 0)


class TestTunedDecision:
    def test_round_trip(self):
        decision = _decision()
        again = TunedDecision.from_dict(decision.to_dict())
        assert again == decision
        # through actual JSON text, as the disk cache stores it
        assert TunedDecision.from_dict(
            json.loads(json.dumps(decision.to_dict()))
        ) == decision

    def test_improvement(self):
        assert _decision().improvement == pytest.approx(0.25)
        assert _decision(simulated_time=1.0).improvement == 0.0
        assert _decision(default_time=0.0).improvement == 0.0


class TestDecisionCache:
    def test_put_get_len(self, tmp_path):
        cache = DecisionCache(tmp_path)
        decision = _decision()
        assert cache.get("broadcast", decision.topology_hash, 4000, 0) is None
        cache.put(decision)
        assert len(cache.disk) == 1
        assert cache.get("broadcast", decision.topology_hash, 4000, 0) == decision

    def test_survives_process_restart(self, tmp_path):
        DecisionCache(tmp_path).put(_decision())
        fresh = DecisionCache(tmp_path)
        hit = fresh.get("broadcast", "ab" * 32, 4000, 0)
        assert hit == _decision()

    def test_version_bump_orphans_old_decisions(self, tmp_path):
        """Satellite invariant: decisions tuned under one simulator
        version must never serve a newer one."""
        DecisionCache(tmp_path, version="v2-1.0").put(_decision())
        bumped = DecisionCache(tmp_path, version="v2-2.0")
        assert bumped.get("broadcast", "ab" * 32, 4000, 0) is None
        assert len(bumped.disk) == 0
        # the old entries are stale bytes the store's prune() reclaims
        store = DiskCache(tmp_path, version="v2-2.0")
        stats = store.stats()
        assert stats.stale_versions == ("v2-1.0",) and stats.stale_bytes > 0
        store.prune()
        assert DecisionCache(tmp_path, version="v2-1.0").get(
            "broadcast", "ab" * 32, 4000, 0
        ) is None

    def test_corrupted_entry_is_a_miss(self, tmp_path):
        cache = DecisionCache(tmp_path)
        cache.put(_decision())
        entries = list(cache.disk.dir.glob("*/*.json"))
        assert len(entries) == 1
        entries[0].write_text("{not json")
        fresh = DecisionCache(tmp_path)
        assert fresh.get("broadcast", "ab" * 32, 4000, 0) is None

    def test_valid_json_wrong_shape_is_a_miss(self, tmp_path):
        cache = DecisionCache(tmp_path)
        cache.put(_decision())
        entry = next(iter(cache.disk.dir.glob("*/*.json")))
        entry.write_text(json.dumps({"op": "broadcast"}))
        assert DecisionCache(tmp_path).get(
            "broadcast", "ab" * 32, 4000, 0
        ) is None
