"""The event-by-event path spends one engine event per step of the
message model (DESIGN.md §5) — a deterministic budget, counted with
``Engine.events_processed``.

These are counts of *implementation* events: they may only ever fall.
"""

import numpy as np

from repro.cluster import ucf_testbed
from repro.cluster.discover.generators import fat_tree
from repro.collectives import run_broadcast
from repro.faults import DeliveryPolicy
from repro.hbsplib import HbspRuntime


def events_of_one_superstep(*, send: bool, delivery=None) -> int:
    """Engine events of a two-process superstep, with or without one message."""
    payload = np.zeros(100, dtype=np.int32)  # 400 bytes

    def program(ctx):
        if send and ctx.pid == 0:
            yield from ctx.send(1, payload)
        yield from ctx.sync()
        return len(ctx.messages())

    runtime = HbspRuntime(ucf_testbed(2), macro=False, delivery=delivery)
    result = runtime.run(program)
    assert result.values == {0: 0, 1: 1 if send else 0}
    return runtime.engine.events_processed


class TestEventsPerMessage:
    def test_plain_message_costs_seven_events(self):
        # pack, inject, latency, drain, arrival, the sender's flush
        # AllOf, unpack — 13 before holds and callback chains.
        assert events_of_one_superstep(send=True) - events_of_one_superstep(send=False) == 7

    def test_armed_message_costs_one_more(self):
        # ... plus `done` behind the first arrival; the retry timer is
        # pending when the run stops and starts no process — 17 before.
        policy = DeliveryPolicy.retry(3, timeout=0.25)
        armed = events_of_one_superstep(send=True, delivery=policy)
        assert armed - events_of_one_superstep(send=False, delivery=policy) == 8

    def test_thousand_leaf_broadcast_budget(self):
        outcome = run_broadcast(fat_tree(4, 16, 16, seed=0), 20_000, seed=0, macro=False)
        assert outcome.runtime.engine.events_processed <= 130_000  # 232 248 before
