"""Unit tests for repro.sim.process."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine
from repro.sim.process import Process


@pytest.fixture
def engine():
    return Engine()


class TestLifecycle:
    def test_return_value_becomes_event_value(self, engine):
        def prog():
            yield engine.timeout(1.0)
            return "result"

        process = engine.process(prog())
        engine.run()
        assert process.value == "result"

    def test_yield_receives_event_value(self, engine):
        def prog():
            got = yield engine.timeout(2.0, value="payload")
            return got

        process = engine.process(prog())
        engine.run()
        assert process.value == "payload"

    def test_is_alive_transitions(self, engine):
        def prog():
            yield engine.timeout(1.0)

        process = engine.process(prog())
        assert process.is_alive
        engine.run()
        assert not process.is_alive

    def test_requires_generator_object(self, engine):
        def not_a_generator():
            return 42

        with pytest.raises(SimulationError, match="generator"):
            Process(engine, not_a_generator())  # type: ignore[arg-type]

    def test_processes_start_in_creation_order(self, engine):
        order = []

        def prog(i):
            order.append(i)
            yield engine.timeout(0.0)

        for i in range(4):
            engine.process(prog(i))
        engine.run()
        assert order == [0, 1, 2, 3]


class TestForkJoin:
    def test_process_waits_for_process(self, engine):
        def child():
            yield engine.timeout(3.0)
            return "child-done"

        def parent():
            result = yield engine.process(child())
            return result

        process = engine.process(parent())
        engine.run()
        assert process.value == "child-done"
        assert engine.now == 3.0

    def test_join_already_finished(self, engine):
        def child():
            yield engine.timeout(1.0)
            return 7

        child_proc = engine.process(child())

        def parent():
            yield engine.timeout(5.0)
            value = yield child_proc
            return value

        parent_proc = engine.process(parent())
        engine.run()
        assert parent_proc.value == 7


class TestFailure:
    def test_exception_fails_process(self, engine):
        def prog():
            yield engine.timeout(1.0)
            raise ValueError("inner")

        process = engine.process(prog())
        process.add_callback(lambda e: None)  # consume
        engine.run()
        assert not process.ok
        assert isinstance(process.exception, ValueError)

    def test_exception_propagates_to_joiner(self, engine):
        def child():
            yield engine.timeout(1.0)
            raise ValueError("child error")

        def parent():
            try:
                yield engine.process(child())
            except ValueError as error:
                return f"caught {error}"

        process = engine.process(parent())
        engine.run()
        assert process.value == "caught child error"

    def test_yielding_non_event_fails(self, engine):
        def prog():
            yield 42

        process = engine.process(prog())
        process.add_callback(lambda e: None)
        engine.run()
        assert not process.ok
        assert "yield" in str(process.exception)


class TestKill:
    def test_kill_blocked_process(self, engine):
        cleaned = []

        def prog():
            try:
                yield engine.timeout(100.0)
            finally:
                cleaned.append(True)

        process = engine.process(prog())
        engine.run(until=1.0)
        process.kill()
        assert cleaned == [True]
        assert not process.is_alive
        engine.run()  # no deadlock, no stray events

    def test_kill_before_start(self, engine):
        def prog():
            yield engine.timeout(1.0)

        process = engine.process(prog())
        process.kill()  # never ran
        engine.run()
        assert not process.is_alive

    def test_kill_is_idempotent(self, engine):
        def prog():
            yield engine.timeout(1.0)

        process = engine.process(prog())
        engine.run()
        process.kill()
        process.kill()

    def test_killed_process_does_not_deadlock_engine(self, engine):
        from repro.sim import Store

        store = Store(engine)

        def stuck():
            yield store.get()

        process = engine.process(stuck())
        engine.run(check_deadlock=False)
        process.kill()
        engine.run()  # clean
