"""Property test: FaultPlan JSON round-trips compile identically.

Generates plans mixing every event kind (seeded, via hypothesis) and
pins two things: ``loads(dumps(plan))`` reproduces the plan value for
value, and running the simulator against the round-tripped plan yields
a bit-identical injector timeline — same makespan, same stochastic
message fates — because the injector is a deterministic function of
``(plan, seed)``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import two_lans
from repro.collectives import run_gather
from repro.faults import (
    BackgroundLoad,
    FaultPlan,
    LinkDegradation,
    MachinePause,
    MachineSlowdown,
    MessageFaults,
)

TOPOLOGY = two_lans()
MACHINES = [m.name for m in TOPOLOGY.machines]
NETWORKS = ["campus-atm", "ethernet-100"]

_starts = st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False)
_durations = st.floats(1e-3, 5.0, allow_nan=False, allow_infinity=False)

_slowdowns = st.builds(
    MachineSlowdown,
    machine=st.sampled_from(MACHINES),
    factor=st.floats(1.1, 16.0),
    start=_starts,
    duration=st.one_of(st.none(), _durations),
)
_pauses = st.builds(
    MachinePause,
    machine=st.sampled_from(MACHINES),
    start=_starts,
    duration=_durations,
)
_links = st.builds(
    LinkDegradation,
    network=st.sampled_from(NETWORKS),
    gap_factor=st.floats(1.0, 8.0),
    extra_latency=st.floats(0.0, 1e-2),
    start=_starts,
    duration=st.one_of(st.none(), _durations),
)
# Message faults stay drop-free: a dropped message without a retrying
# DeliveryPolicy stalls the collective, and this test pins timelines,
# not timeout handling (tests/faults/test_retry.py covers drops).
_messages = st.builds(
    MessageFaults,
    network=st.sampled_from(NETWORKS),
    drop_prob=st.just(0.0),
    delay_prob=st.floats(0.0, 0.5),
    delay_mean=st.floats(1e-5, 1e-3),
    start=_starts,
    duration=st.one_of(st.none(), _durations),
)
_bgloads = st.builds(
    BackgroundLoad,
    machine=st.sampled_from(MACHINES),
    intensity=st.floats(0.05, 0.95),
    start=_starts,
    duration=_durations,
    burst_mean=st.floats(1e-4, 1e-1),
)

_plans = st.lists(
    st.one_of(_slowdowns, _pauses, _links, _messages, _bgloads),
    min_size=0,
    max_size=6,
).map(FaultPlan)


class TestFaultPlanRoundTrip:
    @given(plan=_plans)
    @settings(max_examples=50, deadline=None)
    def test_value_round_trip(self, plan):
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.to_json() == plan.to_json()

    @given(plan=_plans, seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_compiled_timeline_is_bit_identical(self, plan, seed):
        restored = FaultPlan.from_json(plan.to_json())
        original = run_gather(TOPOLOGY, 2000, seed=seed, faults=plan)
        replayed = run_gather(TOPOLOGY, 2000, seed=seed, faults=restored)
        assert replayed.time == original.time
        assert replayed.supersteps == original.supersteps
        a = original.runtime.vm.injector
        b = replayed.runtime.vm.injector
        assert (b.dropped_messages, b.delayed_messages) == (
            a.dropped_messages, a.delayed_messages
        )
