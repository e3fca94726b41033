"""Membership epochs: pure arithmetic, deterministic, exhaustive edges."""

import math

from repro.cluster import two_lans
from repro.dynamics import DynamicPlan, MachineJoin, MachineLeave, membership_epochs

TOPOLOGY = two_lans()
ALL = frozenset(m.name for m in TOPOLOGY.machines)


class TestMembershipEpochs:
    def test_empty_plan_single_epoch(self):
        epochs = membership_epochs(DynamicPlan.empty(), TOPOLOGY)
        assert len(epochs) == 1
        assert epochs[0].start == 0.0
        assert epochs[0].end == math.inf
        assert epochs[0].present == ALL

    def test_leave_and_rejoin(self):
        plan = DynamicPlan(MachineLeave("lan0-m0", start=1.0, duration=2.0))
        epochs = membership_epochs(plan, TOPOLOGY)
        assert [(e.start, e.end) for e in epochs] == [
            (0.0, 1.0), (1.0, 3.0), (3.0, math.inf)
        ]
        assert epochs[0].present == ALL
        assert epochs[1].present == ALL - {"lan0-m0"}
        assert epochs[2].present == ALL

    def test_leave_forever(self):
        plan = DynamicPlan(MachineLeave("lan0-m0", start=2.0))
        epochs = membership_epochs(plan, TOPOLOGY)
        assert len(epochs) == 2
        assert epochs[-1].present == ALL - {"lan0-m0"}
        assert epochs[-1].end == math.inf

    def test_join_absent_before_start(self):
        plan = DynamicPlan(MachineJoin("lan1-m0", start=4.0))
        epochs = membership_epochs(plan, TOPOLOGY)
        assert len(epochs) == 2
        assert epochs[0].present == ALL - {"lan1-m0"}
        assert epochs[1].present == ALL
        assert epochs[1].start == 4.0

    def test_join_at_zero_is_noop(self):
        plan = DynamicPlan(MachineJoin("lan1-m0", start=0.0))
        epochs = membership_epochs(plan, TOPOLOGY)
        assert len(epochs) == 1
        assert epochs[0].present == ALL

    def test_overlapping_absences_merge(self):
        plan = DynamicPlan([
            MachineLeave("lan0-m0", start=1.0, duration=2.0),
            MachineLeave("lan0-m0", start=2.0, duration=3.0),
        ])
        epochs = membership_epochs(plan, TOPOLOGY)
        assert [(e.start, e.end) for e in epochs] == [
            (0.0, 1.0), (1.0, 5.0), (5.0, math.inf)
        ]

    def test_epoch_indices_are_sequential(self):
        plan = DynamicPlan([
            MachineLeave("lan0-m0", start=1.0, duration=1.0),
            MachineLeave("lan0-m1", start=3.0, duration=1.0),
        ])
        epochs = membership_epochs(plan, TOPOLOGY)
        assert [e.index for e in epochs] == list(range(len(epochs)))

    def test_determinism(self):
        plan = DynamicPlan([
            MachineLeave("lan0-m0", start=1.0, duration=1.0),
            MachineJoin("lan1-m1", start=2.5),
        ])
        assert membership_epochs(plan, TOPOLOGY) == membership_epochs(
            plan, TOPOLOGY
        )
