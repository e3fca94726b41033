"""Unit tests for repro.sim.resources."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, Resource, Store


@pytest.fixture
def engine():
    return Engine()


class TestResource:
    def test_capacity_validation(self, engine):
        with pytest.raises(SimulationError):
            Resource(engine, capacity=0)

    def test_grant_when_free(self, engine):
        resource = Resource(engine)
        request = resource.request()
        assert request.triggered
        assert resource.in_use == 1

    def test_release_without_hold_raises(self, engine):
        resource = Resource(engine)
        with pytest.raises(SimulationError, match="idle"):
            resource.release()

    def test_serialises_unit_capacity(self, engine):
        resource = Resource(engine, capacity=1)
        finish = []

        def worker(i):
            yield from resource.occupy(1.0)
            finish.append((i, engine.now))

        for i in range(3):
            engine.process(worker(i))
        engine.run()
        assert finish == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_parallel_capacity(self, engine):
        resource = Resource(engine, capacity=3)
        finish = []

        def worker(i):
            yield from resource.occupy(1.0)
            finish.append(engine.now)

        for i in range(3):
            engine.process(worker(i))
        engine.run()
        assert finish == [1.0, 1.0, 1.0]

    def test_fifo_grant_order(self, engine):
        resource = Resource(engine)
        order = []

        def worker(i):
            yield resource.request()
            order.append(i)
            yield engine.timeout(1.0)
            resource.release()

        for i in range(4):
            engine.process(worker(i))
        engine.run()
        assert order == [0, 1, 2, 3]

    def test_queue_length(self, engine):
        resource = Resource(engine)

        def worker():
            yield from resource.occupy(1.0)

        for _ in range(3):
            engine.process(worker())
        engine.run(until=0.5)
        assert resource.in_use == 1
        assert resource.queue_length == 2

    def test_utilization_full(self, engine):
        resource = Resource(engine)

        def worker():
            yield from resource.occupy(2.0)

        engine.process(worker())
        engine.run()
        assert resource.utilization() == pytest.approx(1.0)

    def test_utilization_half(self, engine):
        resource = Resource(engine)

        def worker():
            yield from resource.occupy(1.0)
            yield engine.timeout(1.0)

        engine.process(worker())
        engine.run()
        assert resource.utilization() == pytest.approx(0.5)

    def test_release_hands_unit_to_waiter(self, engine):
        # release() with a queue grants directly: in_use stays constant.
        resource = Resource(engine)

        def holder():
            yield resource.request()
            yield engine.timeout(1.0)
            resource.release()

        def waiter():
            yield resource.request()
            assert resource.in_use == 1
            resource.release()

        engine.process(holder())
        engine.process(waiter())
        engine.run()
        assert resource.in_use == 0


class TestHold:
    def test_one_event_per_hold(self, engine):
        resource = Resource(engine)
        ends = []
        for duration in (1.0, 2.0):
            resource.hold(duration).add_callback(lambda _e: ends.append(engine.now))
        engine.run()
        assert ends == [1.0, 3.0]
        assert engine.events_processed == 2

    def test_queued_hold_nobody_waits_on_is_skipped(self, engine):
        # The kill rule, stated on its own: at hand-over a queued hold
        # with no waiter is passed over (a running one always ends).
        resource = Resource(engine)
        resource.hold(1.0)
        abandoned = resource.hold(5.0)
        ends = []
        resource.hold(1.0).add_callback(lambda _e: ends.append(engine.now))
        engine.run()
        assert ends == [2.0] and not abandoned.triggered
        assert resource.in_use == 0

    def test_fires_at_end_with_unit_already_released(self, engine):
        resource = Resource(engine)
        seen = []
        resource.hold(1.5).add_callback(lambda _e: seen.append((engine.now, resource.in_use)))
        assert resource.in_use == 1
        engine.run()
        assert seen == [(1.5, 0)]

    def test_fifo_at_equal_instants(self, engine):
        resource = Resource(engine)
        order = []

        def worker(i):
            yield resource.hold(1.0)
            order.append((i, engine.now))

        for i in range(4):
            engine.process(worker(i))
        engine.run()
        assert order == [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]

    def test_fifo_across_requests_and_holds(self, engine):
        resource = Resource(engine)
        order = []

        def requester(i):
            yield resource.request()
            yield engine.timeout(1.0)
            resource.release()
            order.append((i, engine.now))

        def holder(i):
            yield resource.hold(1.0)
            order.append((i, engine.now))

        engine.process(requester(0))
        engine.process(holder(1))
        engine.process(requester(2))
        engine.process(holder(3))
        engine.run()
        assert order == [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]
        assert resource.in_use == 0

    def test_capacity_two(self, engine):
        resource = Resource(engine, capacity=2)
        finish = []

        def worker(i, duration):
            yield resource.hold(duration)
            finish.append((i, engine.now))

        for i, duration in enumerate([3.0, 1.0, 1.0, 1.0]):
            engine.process(worker(i, duration))
        engine.run()
        # 0 and 1 start at once; 2 takes 1's unit at t=1, 3 takes 2's at t=2.
        assert finish == [(1, 1.0), (2, 2.0), (0, 3.0), (3, 3.0)]
        assert resource.in_use == 0

    def test_time_scale_evaluated_when_unit_is_obtained(self, engine):
        resource = Resource(engine)
        calls = []

        def scale(start, nominal):
            calls.append((start, nominal))
            return nominal * (2.0 if start >= 1.0 else 1.0)

        resource.time_scale = scale
        ends = []
        for _ in range(2):  # both queued at t=0; the second starts at t=1
            resource.hold(1.0).add_callback(lambda _e: ends.append(engine.now))
        engine.run()
        assert calls == [(0.0, 1.0), (1.0, 1.0)]
        assert ends == [1.0, 3.0]

    def test_request_is_not_time_scaled(self, engine):
        resource = Resource(engine)
        resource.time_scale = lambda start, nominal: nominal * 10.0

        def hog():
            yield resource.request()
            yield engine.timeout(1.0)
            resource.release()

        engine.process(hog())
        engine.run()
        assert engine.now == 1.0

    def test_negative_duration_rejected(self, engine):
        resource = Resource(engine)
        with pytest.raises(SimulationError, match=">= 0"):
            resource.hold(-1.0)
        assert resource.in_use == 0

    def test_zero_duration(self, engine):
        resource = Resource(engine)
        done = []
        resource.hold(0.0).add_callback(lambda _e: done.append(engine.now))
        engine.run()
        assert done == [0.0] and resource.in_use == 0

    def test_release_precedes_waiter_and_hands_over_at_same_instant(self, engine):
        resource = Resource(engine)
        seen = []

        def first():
            yield resource.hold(1.0)
            # our unit is already the next hold's: still 1 in use, nobody queued
            seen.append((engine.now, resource.in_use, resource.queue_length))

        def second():
            yield resource.hold(1.0)
            seen.append((engine.now, resource.in_use, resource.queue_length))

        engine.process(first())
        engine.process(second())
        engine.run()
        assert seen == [(1.0, 1, 0), (2.0, 0, 0)]

    def test_occupy_is_hold(self, engine):
        resource = Resource(engine)

        def worker():
            yield from resource.occupy(2.0)

        engine.process(worker())
        engine.run()
        # process start + the hold's end + process finish: no grant hop
        assert engine.events_processed == 3

    def test_utilization_unchanged(self, engine):
        resource = Resource(engine, capacity=2)

        def worker(duration):
            yield resource.hold(duration)

        for duration in (1.0, 1.0, 2.0):
            engine.process(worker(duration))
        engine.run()
        # busy integral: 2 units over [0,1], 1 unit over [1,3] -> 4 of 2*3
        assert engine.now == 3.0
        assert resource.utilization() == pytest.approx(4.0 / 6.0)


class TestKill:
    """A killed process must not leak a unit (or keep one it never got)."""

    @staticmethod
    def _occupier(resource, log, name, duration=1.0):
        def body():
            yield from resource.occupy(duration)
            log.append((name, resource.engine.now))

        return body()

    def test_kill_while_queued_skips_the_dead_hold(self, engine):
        resource = Resource(engine, 1, name="cpu")
        log = []
        engine.process(self._occupier(resource, log, "a"))
        b = engine.process(self._occupier(resource, log, "b"))

        def killer():
            yield engine.timeout(0.5)
            b.kill()

        def late():
            yield engine.timeout(1.5)
            yield from resource.occupy(1.0)
            log.append(("c", engine.now))

        engine.process(killer())
        engine.process(late())
        engine.run()  # DeadlockError before: a's release fed b's dead request
        assert log == [("a", 1.0), ("c", 2.5)]
        assert resource.in_use == 0 and resource.queue_length == 0

    def test_kill_while_queued_passes_unit_to_next_live_hold(self, engine):
        resource = Resource(engine)
        log = []
        engine.process(self._occupier(resource, log, "a"))
        b = engine.process(self._occupier(resource, log, "b"))
        engine.process(self._occupier(resource, log, "c"))
        engine.run(until=0.5)
        b.kill()
        engine.run()
        assert log == [("a", 1.0), ("c", 2.0)]
        assert resource.in_use == 0

    def test_kill_during_hold_ends_at_scheduled_time(self, engine):
        resource = Resource(engine)
        log = []
        a = engine.process(self._occupier(resource, log, "a", 2.0))
        engine.process(self._occupier(resource, log, "b"))
        engine.run(until=0.5)
        a.kill()
        assert resource.in_use == 1  # the running hold keeps its unit...
        engine.run()
        assert log == [("b", 3.0)]  # ...until t=2, then b's hold runs
        assert resource.in_use == 0

    def test_kill_detaches_cleanly(self, engine):
        resource = Resource(engine)
        cleanup = []

        def body():
            try:
                yield resource.hold(1.0)
            finally:
                cleanup.append(engine.now)

        process = engine.process(body())
        engine.run(until=0.25)
        process.kill()
        assert cleanup == [0.25]
        assert not process.is_alive
        engine.run()  # the hold's end event fires into no waiter
        assert engine.now == 1.0 and resource.in_use == 0


class TestStore:
    def test_put_then_get(self, engine):
        store = Store(engine)
        store.put("x")
        event = store.get()
        assert event.triggered
        assert event.value == "x"

    def test_get_then_put(self, engine):
        store = Store(engine)
        event = store.get()
        assert not event.triggered
        store.put("y")
        assert event.triggered

    def test_fifo_order(self, engine):
        store = Store(engine)
        store.put(1)
        store.put(2)
        assert store.get().value == 1
        assert store.get().value == 2

    def test_filtered_get_skips_non_matching(self, engine):
        store = Store(engine)
        store.put({"tag": 1})
        store.put({"tag": 2})
        event = store.get(lambda m: m["tag"] == 2)
        assert event.value == {"tag": 2}
        assert store.get().value == {"tag": 1}

    def test_pending_filtered_getter_matched_on_put(self, engine):
        store = Store(engine)
        event = store.get(lambda m: m == "wanted")
        store.put("other")
        assert not event.triggered
        store.put("wanted")
        assert event.triggered
        assert len(store) == 1  # "other" still there

    def test_oldest_matching_getter_wins(self, engine):
        store = Store(engine)
        first = store.get()
        second = store.get()
        store.put("only")
        assert first.triggered and not second.triggered

    def test_len_and_peek(self, engine):
        store = Store(engine)
        store.put("a")
        store.put("b")
        assert len(store) == 2
        assert store.peek_all() == ("a", "b")

    def test_total_put_counter(self, engine):
        store = Store(engine)
        for i in range(5):
            store.put(i)
        assert store.total_put == 5

    def test_close_fails_pending_getters(self, engine):
        store = Store(engine)
        event = store.get()
        event.add_callback(lambda e: None)
        store.close(RuntimeError("closed"))
        assert not event.ok

    def test_put_on_closed_raises(self, engine):
        store = Store(engine)
        store.close(RuntimeError("closed"))
        with pytest.raises(SimulationError, match="closed"):
            store.put("x")

    def test_get_on_closed_fails(self, engine):
        store = Store(engine)
        store.close(RuntimeError("closed"))
        event = store.get()
        event.add_callback(lambda e: None)
        assert not event.ok
