"""Property tests: simulation-engine invariants under random schedules."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Barrier, Engine, Resource, Store


class TestEventOrdering:
    @given(delays=st.lists(st.floats(min_value=0, max_value=100), max_size=30))
    def test_callbacks_fire_in_time_order(self, delays):
        engine = Engine()
        fired = []
        for delay in delays:
            timer = engine.timeout(delay)
            timer.add_callback(lambda _e, d=delay: fired.append(d))
        engine.run()
        assert fired == sorted(fired)
        if delays:
            assert engine.now == max(delays)

    @given(delays=st.lists(st.floats(min_value=0, max_value=100), max_size=30))
    def test_clock_never_goes_backwards(self, delays):
        engine = Engine()
        observed = []
        for delay in delays:
            timer = engine.timeout(delay)
            timer.add_callback(lambda _e: observed.append(engine.now))
        engine.run()
        assert observed == sorted(observed)


class TestResourceInvariants:
    @given(
        capacity=st.integers(min_value=1, max_value=4),
        durations=st.lists(
            st.floats(min_value=0.01, max_value=2.0), min_size=1, max_size=12
        ),
    )
    def test_in_use_never_exceeds_capacity(self, capacity, durations):
        engine = Engine()
        resource = Resource(engine, capacity=capacity)
        max_seen = [0]

        def worker(duration):
            yield resource.request()
            max_seen[0] = max(max_seen[0], resource.in_use)
            try:
                yield engine.timeout(duration)
            finally:
                resource.release()

        for duration in durations:
            engine.process(worker(duration))
        engine.run()
        assert max_seen[0] <= capacity
        assert resource.in_use == 0

    @given(
        durations=st.lists(
            st.floats(min_value=0.01, max_value=2.0), min_size=1, max_size=10
        )
    )
    def test_unit_resource_serialises_total_time(self, durations):
        engine = Engine()
        resource = Resource(engine, capacity=1)

        def worker(duration):
            yield from resource.occupy(duration)

        for duration in durations:
            engine.process(worker(duration))
        engine.run()
        assert abs(engine.now - sum(durations)) < 1e-9


#: A coarse grid, so that arrivals, hold ends and time-scale breakpoints
#: land on exactly equal instants all the time.  Strictly positive: see
#: test_the_one_tie_that_differs.
_GRID = st.sampled_from([0.25, 0.5, 0.5, 1.0, 1.0, 1.5])


class TestHoldMatchesRequestTimeoutRelease:
    """``hold`` is the grant-then-timeout sequence minus the grant hop:
    same completion times, same completion order."""

    def test_the_one_tie_that_differs(self):
        # At hand-over the next hold's end event is scheduled *before*
        # the releasing process continues; the grant hop used to start
        # it just after.  That is visible only when a plain timeout the
        # releaser then creates lands on exactly the next hold's end
        # (0.25 + 0.25 both ways here) AND someone re-requests with
        # zero delay at that instant (worker 1's second step).
        workers = [[(0.0, 0.25), (0.25, 0.25)], [(0.0, 0.25), (0.0, 0.25)]]
        hold, _ = self._run(1, None, workers, True)
        reference, _ = self._run(1, None, workers, False)
        assert hold == [(0, 0, 0.25), (1, 0, 0.5), (1, 1, 0.75), (0, 1, 1.0)]
        assert reference == [(0, 0, 0.25), (1, 0, 0.5), (0, 1, 0.75), (1, 1, 1.0)]

    @staticmethod
    def _run(capacity, scale, workers, use_hold):
        engine = Engine()
        resource = Resource(engine, capacity=capacity)
        if scale is not None:
            breakpoint_, factor = scale
            resource.time_scale = (
                lambda start, nominal: nominal * factor if start >= breakpoint_ else nominal
            )
        log = []

        def reference(duration):
            yield resource.request()
            try:
                if resource.time_scale is not None:
                    duration = resource.time_scale(engine.now, duration)
                yield engine.timeout(duration)
            finally:
                resource.release()

        def worker(i, steps):
            for step, (delay, duration) in enumerate(steps):
                yield engine.timeout(delay)
                if use_hold:
                    yield resource.hold(duration)
                else:
                    yield from reference(duration)
                log.append((i, step, engine.now))

        for i, steps in enumerate(workers):
            engine.process(worker(i, steps))
        engine.run()
        assert resource.in_use == 0 and resource.queue_length == 0
        return log, resource.utilization()

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=3),
        scale=st.none() | st.tuples(_GRID, st.sampled_from([0.5, 2.0, 4.0])),
        workers=st.lists(
            st.lists(st.tuples(_GRID, _GRID), min_size=1, max_size=3),
            min_size=1, max_size=6,
        ),
    )
    def test_same_times_same_order(self, capacity, scale, workers):
        assert self._run(capacity, scale, workers, True) == self._run(
            capacity, scale, workers, False
        )


class TestStoreInvariants:
    @given(items=st.lists(st.integers(), max_size=40))
    def test_fifo_preserved(self, items):
        engine = Engine()
        store = Store(engine)
        for item in items:
            store.put(item)
        out = [store.get().value for _ in items]
        assert out == items

    @given(
        items=st.lists(st.integers(min_value=0, max_value=9), max_size=30),
        wanted=st.integers(min_value=0, max_value=9),
    )
    def test_filtered_gets_preserve_rest(self, items, wanted):
        engine = Engine()
        store = Store(engine)
        for item in items:
            store.put(item)
        matching = [i for i in items if i == wanted]
        got = []
        for _ in matching:
            got.append(store.get(lambda x: x == wanted).value)
        assert got == matching
        assert list(store.peek_all()) == [i for i in items if i != wanted]


class TestBarrierInvariants:
    @given(
        parties=st.integers(min_value=1, max_value=8),
        cycles=st.integers(min_value=1, max_value=5),
        cost=st.floats(min_value=0, max_value=1.0),
    )
    def test_everyone_released_every_cycle(self, parties, cycles, cost):
        engine = Engine()
        barrier = Barrier(engine, parties=parties, cost=cost)
        releases = []

        def worker(i):
            for _ in range(cycles):
                cycle = yield barrier.wait()
                releases.append((cycle, i))

        for i in range(parties):
            engine.process(worker(i))
        engine.run()
        assert len(releases) == parties * cycles
        assert barrier.cycles == cycles
        # Within each cycle, all parties present exactly once.
        for cycle in range(cycles):
            members = sorted(i for c, i in releases if c == cycle)
            assert members == list(range(parties))
        assert abs(engine.now - cycles * cost) < 1e-9


class TestDeterminism:
    @given(
        seed_delays=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=5),
                st.floats(min_value=0, max_value=5),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_identical_schedules_identical_traces(self, seed_delays):
        def run():
            engine = Engine()
            resource = Resource(engine)
            log = []

            def worker(i, d1, d2):
                yield engine.timeout(d1)
                yield from resource.occupy(d2)
                log.append((i, engine.now))

            for i, (d1, d2) in enumerate(seed_delays):
                engine.process(worker(i, d1, d2))
            engine.run()
            return log, engine.now

        assert run() == run()
