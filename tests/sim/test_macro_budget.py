"""The macro path's cost is per message and per party-superstep: how
many engine events and Python-level calls it spends on each is a
deterministic budget, counted with ``cProfile`` and the engine's own
counter (the ``tests/pvm/test_event_budget.py`` pattern — no clock is
read).

Counts of *implementation* work: they may only ever fall.
"""

import cProfile
import pstats

from repro.cluster.discover.generators import fat_tree, multi_rack
from repro.collectives import run_broadcast, run_gather


def calls_per_message() -> float:
    """Profiled calls per simulated message of a two-phase broadcast on
    128 leaves (the CI bench job prints this number too)."""
    topology = multi_rack(4, 32, seed=0)
    run_broadcast(topology, 5_000, seed=0)  # fill the per-process memos
    profile = cProfile.Profile()
    profile.enable()
    outcome = run_broadcast(topology, 5_000, seed=0)
    profile.disable()
    assert outcome.runtime.macro is not None
    messages = sum(marks[-1][2] for marks in outcome.runtime.superstep_marks())
    assert messages == 4_107  # the m(m-1) share exchanges of four 32-wide racks
    return pstats.Stats(profile).total_calls / messages


def per_leaf_superstep() -> tuple[float, float]:
    """Engine events and profiled calls (set-up included) per
    leaf-superstep — one party's one sync — of a gather on 256 leaves
    (the CI bench job prints both numbers too)."""
    topology = fat_tree(4, 8, 8, seed=0)
    run_gather(topology, 5_000, seed=0)  # fill the per-process memos
    profile = cProfile.Profile()
    profile.enable()
    outcome = run_gather(topology, 5_000, seed=0)
    profile.disable()
    runtime = outcome.runtime
    assert runtime.macro is not None
    leaf_supersteps = sum(len(marks) for marks in runtime.superstep_marks())
    assert leaf_supersteps == 768  # three levels, 256 parties
    events = runtime.engine.events_processed
    return events / leaf_supersteps, pstats.Stats(profile).total_calls / leaf_supersteps


def test_two_phase_broadcast_calls_per_message():
    # 25.1 on CPython 3.11 (44.8 before the in-flight record became the
    # delivered message and ``send_each`` took one pass per fan-out).
    assert calls_per_message() <= 30.0


def test_gather_events_per_leaf_superstep():
    # 149 events for 768 leaf-supersteps = 0.19: a boundary entry per
    # barrier cycle, a resume batch per release, and the re-armed
    # boundaries, collects and clock stretches.  1 354 = 1.76 while
    # every party was a DES process waiting on one event per sync.
    events, _calls = per_leaf_superstep()
    assert events <= 0.22


def test_gather_calls_per_leaf_superstep():
    # 91.9 on CPython 3.11 (126.9 while every party was a DES process
    # resumed through its waiter event).
    _events, calls = per_leaf_superstep()
    assert calls <= 105.0
