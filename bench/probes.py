"""Isolated throughput probes for the per-event layers.

``Task.send``, ``Engine.step`` and ``HbspContext.sync`` are too cheap
to wrap (the wrapper would cost more than the call), so the traced
pass measures them here instead: small fixed programs driven through
the public API only, sized to run a few tenths of a second each.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
import typing as t

__all__ = [
    "engine_timeouts",
    "engine_stores",
    "engine_resources",
    "pingpong",
    "empty_supersteps",
    "cli_seconds",
    "timed",
]


def timed(call: t.Callable[[], t.Any]) -> tuple[float, t.Any]:
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def _events_per_s(engine: t.Any) -> float:
    seconds, _ = timed(engine.run)
    return engine.events_processed / seconds


def engine_timeouts(count: int = 40_000) -> float:
    """One process yielding ``count`` back-to-back timeouts; events/s."""
    from repro.sim.engine import Engine

    def chain(engine):
        for _ in range(count):
            yield engine.timeout(0.001)

    engine = Engine()
    engine.process(chain(engine))
    return _events_per_s(engine)


def engine_stores(pairs: int = 10, messages: int = 800) -> float:
    """Producer/consumer pairs over ``Store``s; events/s."""
    from repro.sim.engine import Engine
    from repro.sim.resources import Store

    def producer(engine, store):
        for i in range(messages):
            yield engine.timeout(0.001)
            store.put(i)

    def consumer(store):
        for _ in range(messages):
            yield store.get()

    engine = Engine()
    for _ in range(pairs):
        store = Store(engine)
        engine.process(producer(engine, store))
        engine.process(consumer(store))
    return _events_per_s(engine)


def engine_resources(processes: int = 20, holds: int = 400) -> float:
    """Processes contending for one capacity-1 ``Resource``; events/s."""
    from repro.sim.engine import Engine
    from repro.sim.resources import Resource

    def worker(resource):
        for _ in range(holds):
            yield from resource.occupy(0.01)

    engine = Engine()
    cpu = Resource(engine, capacity=1, name="cpu")
    for _ in range(processes):
        engine.process(worker(cpu))
    return _events_per_s(engine)


def pingpong(messages: int = 20_000) -> float:
    """Two tasks bouncing one small payload ``messages`` times; messages/s."""
    import numpy as np

    from repro.cluster.presets import ucf_testbed
    from repro.pvm import VirtualMachine

    vm = VirtualMachine(ucf_testbed(2))
    payload = np.zeros(16, dtype=np.int32)
    half = messages // 2

    def ping(task, peer_tid):
        for _ in range(half):
            yield from task.send(peer_tid, payload)
            yield from task.recv()

    def pong(task):
        for _ in range(half):
            message = yield from task.recv()
            yield from task.send(message.src, payload)

    ponger = vm.spawn(pong, 1)
    vm.spawn(ping, 0, ponger.tid)
    seconds, _ = timed(vm.run)
    return 2 * half / seconds


def empty_supersteps(topology: t.Any, supersteps: int = 50) -> float:
    """Every process of ``topology`` syncing ``supersteps`` times; syncs/s."""
    from repro.hbsplib import HbspRuntime

    def program(ctx):
        for _ in range(supersteps):
            yield from ctx.sync()

    runtime = HbspRuntime(topology, macro=False)
    seconds, result = timed(lambda: runtime.run(program))
    return runtime.nprocs * result.supersteps / seconds


def cli_seconds(argv: list[str], repeats: int = 5) -> float:
    """Median wall time of ``python <argv>`` in a fresh subprocess.

    The child inherits the worker's environment, which is already
    hermetic (``PYTHONPATH``, cache and temp directories)."""
    samples = []
    for _ in range(repeats):
        seconds, _ = timed(
            lambda: subprocess.run(
                [sys.executable, *argv], check=True,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60,
            )
        )
        samples.append(seconds)
    return statistics.median(samples)

