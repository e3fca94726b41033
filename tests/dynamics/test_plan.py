"""Unit tests for declarative dynamic plans and their serialisation."""

import math

import pytest

from repro.cluster import two_lans
from repro.errors import DynamicsError
from repro.dynamics import DynamicPlan, MachineJoin, MachineLeave, churn_plan

ALL_KINDS = [
    MachineJoin("lan0-m0", start=2.0),
    MachineLeave("lan0-m1", start=1.0, duration=0.5),
    MachineLeave("lan1-m0", start=3.0),  # never returns
]


class TestSpecs:
    def test_join_validation(self):
        with pytest.raises(DynamicsError):
            MachineJoin("m", start=-1.0)
        assert MachineJoin("m", start=0.0).start == 0.0

    def test_leave_end(self):
        assert MachineLeave("m", start=1.0, duration=2.0).end == 3.0
        assert MachineLeave("m", start=1.0).end == math.inf
        with pytest.raises(DynamicsError):
            MachineLeave("m", start=0.0, duration=0.0)


class TestPlan:
    def test_empty_plan(self):
        plan = DynamicPlan.empty()
        assert plan.is_empty
        assert len(plan) == 0
        assert "empty" in repr(plan)

    def test_wraps_bare_spec(self):
        plan = DynamicPlan(MachineLeave("m", start=1.0, duration=1.0))
        assert len(plan) == 1

    def test_rejects_non_specs(self):
        with pytest.raises(DynamicsError):
            DynamicPlan(["not a spec"])

    def test_extended(self):
        plan = DynamicPlan(ALL_KINDS[:2]).extended(*ALL_KINDS[2:])
        assert len(plan) == len(ALL_KINDS)

    def test_validate_names(self):
        topology = two_lans()
        DynamicPlan(ALL_KINDS).validate(topology)
        with pytest.raises(DynamicsError):
            DynamicPlan(MachineJoin("no-such", start=1.0)).validate(topology)


class TestSerialisation:
    def test_round_trip_all_kinds(self):
        plan = DynamicPlan(ALL_KINDS)
        restored = DynamicPlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.to_json() == plan.to_json()

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(DynamicsError):
            DynamicPlan.from_dict({"events": [{"kind": "meteor_strike"}]})
        with pytest.raises(DynamicsError):
            DynamicPlan.from_dict({"faults": []})

    def test_from_json_rejects_garbage(self):
        with pytest.raises(DynamicsError):
            DynamicPlan.from_json("{not json")

    def test_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(DynamicPlan(ALL_KINDS).to_json())
        assert DynamicPlan.from_file(str(path)) == DynamicPlan(ALL_KINDS)
        with pytest.raises(DynamicsError):
            DynamicPlan.from_file(str(tmp_path / "missing.json"))


class TestPresets:
    def test_churn_plan_deterministic(self):
        names = [m.name for m in two_lans().machines]
        a = churn_plan(names, rate=0.5, duration=20.0, seed=7)
        b = churn_plan(names, rate=0.5, duration=20.0, seed=7)
        assert a == b
        assert not a.is_empty
        assert all(isinstance(e, MachineLeave) for e in a)
        assert all(0.0 <= e.start < 20.0 for e in a)

    def test_churn_plan_seed_matters(self):
        names = [m.name for m in two_lans().machines]
        a = churn_plan(names, rate=1.0, duration=20.0, seed=1)
        b = churn_plan(names, rate=1.0, duration=20.0, seed=2)
        assert a != b

    def test_churn_rate_zero_is_empty(self):
        assert churn_plan(["m"], rate=0.0, duration=10.0).is_empty

    def test_churn_validation(self):
        with pytest.raises(DynamicsError):
            churn_plan([], rate=1.0, duration=10.0)
        with pytest.raises(DynamicsError):
            churn_plan(["m"], rate=-1.0, duration=10.0)
        with pytest.raises(DynamicsError):
            churn_plan(["m"], rate=1.0, duration=0.0)
        with pytest.raises(DynamicsError):
            churn_plan(["m"], rate=1.0, duration=10.0, outage_mean=0.0)
