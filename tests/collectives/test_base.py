"""Tests for collectives.base helpers."""

import numpy as np
import pytest

from repro.collectives import base
from repro.collectives.base import (
    _STREAM_OVERHEAD_BYTES,
    ITEMS_BUDGET_BYTES,
    CollectiveOutcome,
    _ItemStore,
    concat_payloads,
    items_cache_info,
    make_items,
    make_runtime,
)
from repro.model.cost import CostLedger
from repro.util.rng import RngStream


def fresh_draw(seed: int, pid: int, count: int) -> np.ndarray:
    """What ``make_items`` must equal: a size-``count`` draw from a new stream."""
    return RngStream(seed, "items", pid).uniform_ints(count).astype(np.int32)


@pytest.fixture
def empty_store(monkeypatch) -> None:
    """Run the test against an empty process-wide item store."""
    monkeypatch.setattr(base, "_ITEMS", _ItemStore(ITEMS_BUDGET_BYTES))


class TestMakeItems:
    def test_deterministic_per_seed_and_pid(self):
        np.testing.assert_array_equal(make_items(1, 0, 100), make_items(1, 0, 100))

    def test_different_pids_different_data(self):
        assert not np.array_equal(make_items(1, 0, 100), make_items(1, 1, 100))

    def test_different_seeds_different_data(self):
        assert not np.array_equal(make_items(1, 0, 100), make_items(2, 0, 100))

    def test_dtype_is_4_byte(self):
        assert make_items(0, 0, 10).dtype == np.int32

    def test_zero_count(self):
        assert make_items(0, 0, 0).size == 0

    def test_values_non_negative(self):
        assert make_items(0, 3, 1000).min() >= 0

    def test_negative_count_raises_even_when_resident(self):
        make_items(0, 0, 10)
        with pytest.raises(ValueError, match=">= 0"):
            make_items(0, 0, -1)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_prefix_of_a_longer_draw_is_the_shorter_draw(self, seed):
        """The numpy behaviour the store rests on (CI also runs this
        file under numpy 1.26): bounded draws are sequential, so a
        fresh generator's size-n draw starts with its size-m draw."""
        longest = fresh_draw(seed, 3, 100_003)
        for count in (0, 1, 2, 3, 17, 4096, 99_999, 100_003):
            np.testing.assert_array_equal(
                longest[:count], fresh_draw(seed, 3, count)
            )

    def test_every_size_equals_a_fresh_draw_across_regrows(self, empty_store):
        # 0, 1, odd, a hit, a doubling regrow, a jump past the doubling.
        for count in (0, 1, 7, 3, 9, 1001, 12, 5000):
            got = make_items(5, 2, count)
            assert got.dtype == np.int32 and got.shape == (count,)
            np.testing.assert_array_equal(got, fresh_draw(5, 2, count))
        info = items_cache_info()
        assert info.streams == 1 and info.regrows >= 3

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_request_order_cannot_change_an_array(self, order):
        counts = [0, 1, 5, 64, 65, 999, 2048, 7777]
        requests = {
            "ascending": counts,
            "descending": counts[::-1],
            "shuffled": [64, 7777, 0, 999, 1, 2048, 65, 5],
        }[order]
        store = _ItemStore(ITEMS_BUDGET_BYTES)
        got = {count: store.get(9, 4, count) for count in requests}
        for count in counts:
            np.testing.assert_array_equal(got[count], fresh_draw(9, 4, count))

    def test_a_regrow_at_least_doubles(self):
        store = _ItemStore(ITEMS_BUDGET_BYTES)
        store.get(0, 0, 100)
        store.get(0, 0, 101)
        store.get(0, 0, 200)
        info = store.info()
        assert (info.draws, info.regrows, info.hits) == (2, 1, 1)
        assert info.integers_drawn == 100 + 200

    @pytest.mark.parametrize("count", [0, 1, 10])
    def test_arrays_are_read_only_views(self, empty_store, count):
        first = make_items(2, 0, count)  # a draw
        again = make_items(2, 0, count)  # a hit, count == capacity
        for arr in (first, again):
            assert arr.flags.owndata is False
            assert arr.flags.writeable is False
        if count:
            with pytest.raises(ValueError, match="read-only"):
                first[0] = 1
            with pytest.raises(ValueError, match="read-only"):
                again.sort()

    def test_copies_taken_by_consumers_are_writable(self):
        arr = make_items(2, 1, 10)
        for private in (arr.astype(np.int64), np.sort(arr), arr.copy()):
            private[0] = 1
        np.testing.assert_array_equal(arr, fresh_draw(2, 1, 10))


class TestItemStoreBudget:
    BUDGET = 4 * 1000 + 5 * _STREAM_OVERHEAD_BYTES

    def test_resident_bytes_never_exceed_the_budget(self):
        store = _ItemStore(self.BUDGET)
        for step in range(200):
            pid, count = step % 7, (step * 37) % 400
            np.testing.assert_array_equal(
                store.get(0, pid, count), fresh_draw(0, pid, count)
            )
            info = store.info()
            assert info.bytes <= self.BUDGET
            assert info.bytes == sum(
                4 * held.size + _STREAM_OVERHEAD_BYTES
                for held in store._streams.values()
            )
        assert store.info().evictions > 0

    def test_least_recently_used_stream_goes_first(self):
        store = _ItemStore(self.BUDGET)
        store.get(0, 0, 400)
        store.get(0, 1, 400)
        store.get(0, 0, 1)  # pid 0 is now the more recent
        store.get(0, 2, 400)  # does not fit beside both
        assert set(store._streams) == {(0, 0), (0, 2)}
        assert store.info().evictions == 1

    def test_values_after_an_eviction_equal_a_fresh_draw(self):
        store = _ItemStore(self.BUDGET)
        store.get(0, 0, 600)
        store.get(0, 1, 600)  # evicts pid 0
        assert (0, 0) not in store._streams
        for count in (3, 601, 0):
            np.testing.assert_array_equal(
                store.get(0, 0, count), fresh_draw(0, 0, count)
            )

    def test_oversize_stream_is_served_but_not_retained(self):
        store = _ItemStore(self.BUDGET)
        small = store.get(0, 0, 10)
        before = store.info()
        big = store.get(0, 1, 5000)  # 20 kB > budget
        np.testing.assert_array_equal(big, fresh_draw(0, 1, 5000))
        assert big.flags.writeable is False and big.flags.owndata is False
        after = store.info()
        assert (after.streams, after.bytes, after.evictions) == (
            before.streams, before.bytes, 0,
        )
        assert after.draws == before.draws + 1
        # ... including when it outgrows a stream that was resident.
        grown = store.get(0, 0, 5000)
        np.testing.assert_array_equal(grown, fresh_draw(0, 0, 5000))
        np.testing.assert_array_equal(store.get(0, 0, 10), small)
        assert store.info().hits == 1

    def test_growth_stops_doubling_at_the_budget(self):
        store = _ItemStore(self.BUDGET)
        store.get(0, 0, 700)
        store.get(0, 0, 701)  # doubling to 1400 would not fit: exact
        assert store._streams[0, 0].size == 701

    def test_ten_thousand_small_streams_stay_resident(self, empty_store):
        """A 10^4-leaf gather's inputs: the second run draws nothing."""
        for pid in range(10_000):
            make_items(3, pid, 5)
        first = items_cache_info()
        assert (first.streams, first.draws, first.evictions) == (10_000, 10_000, 0)
        assert first.bytes <= ITEMS_BUDGET_BYTES
        for pid in range(10_000):
            make_items(3, pid, 5)
        second = items_cache_info()
        assert second.draws == first.draws and second.hits == 10_000
        np.testing.assert_array_equal(make_items(3, 9_999, 5), fresh_draw(3, 9_999, 5))


class TestConcatPayloads:
    def test_empty_list(self):
        out = concat_payloads([])
        assert out.size == 0
        assert out.dtype == np.int32

    def test_order_preserved(self):
        a = np.array([1, 2], dtype=np.int32)
        b = np.array([3], dtype=np.int32)
        np.testing.assert_array_equal(concat_payloads([a, b]), [1, 2, 3])

    def test_handles_empty_members(self):
        a = np.array([], dtype=np.int32)
        b = np.array([7], dtype=np.int32)
        np.testing.assert_array_equal(concat_payloads([a, b]), [7])


class TestMakeRuntime:
    def test_fresh_runtime_each_call(self, testbed_small):
        first = make_runtime(testbed_small)
        second = make_runtime(testbed_small)
        assert first is not second
        assert first.engine is not second.engine

    def test_scores_forwarded(self, testbed_small):
        inverted = {m.name: 1.0 / m.cpu_rate for m in testbed_small.machines}
        runtime = make_runtime(testbed_small, scores=inverted)
        assert (
            runtime.topology.machines[runtime.fastest_pid].name == "sun-classic"
        )


class TestCollectiveOutcome:
    def test_predicted_time_property(self, testbed_small):
        ledger = CostLedger("x")
        ledger.charge("s", level=1, gh=2.0)
        outcome = CollectiveOutcome(
            name="demo",
            time=3.0,
            supersteps=1,
            values={},
            predicted=ledger,
            result=None,  # type: ignore[arg-type]
            runtime=None,  # type: ignore[arg-type]
        )
        assert outcome.predicted_time == 2.0
        assert "demo" in repr(outcome)
