"""The macro path's cost is per message: how many Python-level calls it
makes for each one is a deterministic budget, counted with ``cProfile``
(the ``tests/pvm/test_event_budget.py`` pattern — no clock is read).

A count of *implementation* calls: it may only ever fall.
"""

import cProfile
import pstats

from repro.cluster.discover.generators import multi_rack
from repro.collectives import run_broadcast


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


def test_two_phase_broadcast_calls_per_message():
    # 25.1 on CPython 3.11 (44.8 before the in-flight record became the
    # delivered message and ``send_each`` took one pass per fan-out).
    assert calls_per_message() <= 30.0
