"""The spec codec: round-trips, byte-identity goldens, field-path errors.

``codec_goldens.json`` holds ``to_json()`` / ``dumps`` output captured
at the commit *before* the hand-written ``to_dict``/``from_dict`` bodies
were replaced by :mod:`repro.util.codec`; the codec must reproduce every
byte of it.  One edit since: ``topology_v2`` lost its always-empty
``pair_multipliers`` key when per-pair multipliers were removed.
"""

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import MachineSpec, NetworkSpec, dumps, loads, two_lans
from repro.cluster.discover import ProbeMatrix
from repro.dynamics import DynamicPlan, MachineJoin, MachineLeave, churn_plan
from repro.errors import (
    CollectiveError,
    DiscoveryError,
    DynamicsError,
    FaultPlanError,
    ReproError,
    ServeError,
    TopologyError,
)
from repro.experiments.serving import serving_config
from repro.faults import (
    BackgroundLoad,
    FaultPlan,
    LinkDegradation,
    MachinePause,
    MachineSlowdown,
    MessageFaults,
    congestion_plan,
    flaky_network_plan,
    straggler_plan,
)
from repro.model import calibrate
from repro.serve import ArrivalSpec, PolicySpec, RequestKind, ServiceConfig, default_config
from repro.serve.config import STAGE_OPS, StageSpec
from repro.tuning.cache import DecisionCache, TunedDecision
from repro.tuning.plan import LevelSchedule, SchedulePlan
from repro.util.codec import decode, encode

# -- strategies: one per spec class -------------------------------------------
_names = st.text("abcdefghij-0123456789", min_size=1, max_size=8)
_positive = st.floats(1e-6, 1e6, allow_nan=False)
_start = st.floats(0.0, 50.0, allow_nan=False)
_window = st.one_of(st.none(), st.floats(1e-3, 50.0, allow_nan=False))
_finite = st.floats(1e-3, 50.0, allow_nan=False)
_prob = st.floats(0.0, 1.0, allow_nan=False)

_fault_specs = st.one_of(
    st.builds(MachineSlowdown, _names, _positive, _start, _window),
    st.builds(MachinePause, _names, _start, _finite),
    st.builds(LinkDegradation, _names, st.floats(1.0, 9.0), st.floats(0.0, 1.0),
              _start, _window),
    st.builds(MessageFaults, st.one_of(st.none(), _names), _prob, _prob,
              st.floats(1e-6, 1.0), _start, _window),
    st.builds(BackgroundLoad, _names, st.floats(0.01, 0.99), _start, _finite,
              _positive),
)
_dynamic_specs = st.one_of(
    st.builds(MachineJoin, _names, _start),
    st.builds(MachineLeave, _names, _start, _window),
)
_stages = st.builds(StageSpec, st.sampled_from(STAGE_OPS), _positive)
_kinds = st.builds(
    RequestKind, _names, st.lists(_stages, min_size=1, max_size=3).map(tuple),
    st.integers(1, 10**6), _positive,
)
# A poisson document carries no curve shape (period/amplitude are not
# emitted), so only the defaults of those two fields can round-trip.
_arrivals = st.one_of(
    st.builds(ArrivalSpec, st.just("poisson"), _positive),
    st.builds(ArrivalSpec, st.just("diurnal"), _positive, _positive, st.floats(0.0, 0.9)),
)
_policies = st.builds(
    PolicySpec, st.one_of(st.none(), st.integers(0, 500)), st.integers(1, 16),
    st.sampled_from(["subtrees", "whole"]), st.sampled_from(["default", "tuned"]),
    st.one_of(st.none(), _positive), st.integers(0, 5),
)
_configs = st.builds(
    ServiceConfig, _names, _arrivals,
    st.lists(_kinds, min_size=1, max_size=3, unique_by=lambda k: k.name).map(tuple),
    _policies, _positive, st.integers(0, 2**31),
)
_gather_levels = st.one_of(
    st.builds(LevelSchedule, st.just("flat"), st.integers(1, 8)),
    st.just(LevelSchedule("binomial")),
)
_plans = st.builds(
    SchedulePlan, st.just("gather"), st.lists(_gather_levels, max_size=4).map(tuple)
)
_decisions = st.builds(
    TunedDecision, st.just("gather"), st.text("0123456789abcdef", min_size=64, max_size=64),
    st.integers(1, 10**7), st.integers(0, 99), _plans,
    _positive, _positive, _positive, st.integers(1, 500), st.integers(1, 8),
)
_machines = st.builds(MachineSpec, _names, _positive, _positive, _positive, _positive,
                      _positive)
_networks = st.builds(NetworkSpec, _names, _positive, _positive, _positive, _positive)

_EVERY_SPEC = st.one_of(
    st.lists(_fault_specs, max_size=5).map(FaultPlan),
    st.lists(_dynamic_specs, max_size=5).map(DynamicPlan),
    _stages, _kinds, _arrivals, _policies, _configs,
    _gather_levels, _plans, _decisions, _machines, _networks,
)


class TestRoundTrip:
    @given(spec=_EVERY_SPEC)
    @settings(max_examples=300, deadline=None)
    def test_decode_inverts_encode_through_json(self, spec):
        document = json.loads(json.dumps(encode(spec)))  # JSON-serialisable
        assert decode(type(spec), document, error=ReproError) == spec

    def test_poisson_arrival_omits_the_curve_fields(self):
        assert ArrivalSpec(rate=3.0).to_dict() == {"process": "poisson", "rate": 3.0}
        assert set(ArrivalSpec("diurnal").to_dict()) == {
            "process", "rate", "period", "amplitude"
        }

    def test_input_sugar_is_not_a_field(self):
        kind = RequestKind.from_dict(
            {"name": "k", "stages": ["gather", {"op": "matvec", "scale": 2}], "n": 9}
        )
        assert kind.stages == (StageSpec("gather"), StageSpec("matvec", 2.0))
        templated = RequestKind.from_dict({"template": "sort", "n": 9})
        assert (templated.name, templated.stages) == ("sort", (StageSpec("sample_sort"),))
        assert "template" not in templated.to_dict()


# -- goldens ------------------------------------------------------------------
_MACHINES = ("sun-ultra5-a", "sgi-o2-b", "sgi-octane")
_DECISION = TunedDecision(
    op="gather", topology_hash="ab" * 32, n=25600, root=3,
    plan=SchedulePlan("gather", (LevelSchedule("flat", 4), LevelSchedule("binomial"))),
    predicted_time=0.0123, simulated_time=0.0145, default_time=0.02,
    candidates=16, validated=4,
)
_GOLDEN_SOURCES = {
    "straggler_plan": lambda: straggler_plan("sgi-octane", factor=4.0).to_json(),
    "congestion_plan": lambda: congestion_plan("ethernet-100", duration=1.5).to_json(),
    "flaky_network_plan": lambda: flaky_network_plan().to_json(),
    "churn_plan": lambda: churn_plan(_MACHINES, rate=0.25, duration=20.0, seed=0).to_json(),
    "default_config": lambda: default_config().to_json(),
    "serving_config": lambda: serving_config(8.0, seed=3, process="diurnal").to_json(),
    "tuned_decision": lambda: json.dumps(_DECISION.to_dict(), indent=2),
    "topology_v2": lambda: dumps(two_lans(3), params=calibrate(two_lans(3))),
}
_GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "codec_goldens.json").read_text()
)


class TestGoldens:
    def test_every_golden_has_a_source(self):
        assert set(_GOLDENS) == set(_GOLDEN_SOURCES)

    @pytest.mark.parametrize("name", sorted(_GOLDEN_SOURCES))
    def test_output_is_byte_identical_to_the_hand_written_codec(self, name):
        assert _GOLDEN_SOURCES[name]() == _GOLDENS[name]

    @pytest.mark.parametrize("name,cls", [
        ("straggler_plan", FaultPlan), ("congestion_plan", FaultPlan),
        ("flaky_network_plan", FaultPlan), ("churn_plan", DynamicPlan),
        ("default_config", ServiceConfig), ("serving_config", ServiceConfig),
        ("tuned_decision", TunedDecision),
    ])
    def test_goldens_decode_and_re_encode_unchanged(self, name, cls):
        document = json.loads(_GOLDENS[name])
        assert cls.from_dict(document).to_dict() == document

    def test_a_version_1_topology_document_still_loads(self):
        document = {
            "schema": "repro.cluster/1",
            "root": {
                "kind": "cluster", "name": "lan",
                "network": {"name": "eth", "gap": 8e-8},
                "children": [
                    {"kind": "machine", "name": "a", "cpu_rate": 100000000},
                    {"kind": "machine", "name": "b"},
                ],
            },
        }
        topology = loads(json.dumps(document))
        assert [m.name for m in topology.machines] == ["a", "b"]
        assert topology.machines[0].cpu_rate == 1e8
        assert topology.clusters[0].network == NetworkSpec("eth", gap=8e-8)


# -- malformed input: the owning module's error, with the field path ----------
def _fault_doc(**changes):
    record = {"kind": "machine_slowdown", "machine": "m", "factor": 2.0, **changes}
    return {"faults": [straggler_plan("a").to_dict()["faults"][0], record]}


def _service_doc(**changes):
    return {**default_config().to_dict(), **changes}


_CASES = [
    (FaultPlan, FaultPlanError, _fault_doc(start="soon"),
     "faults[1].start: bad machine_slowdown specification: expected a number, got 'soon'"),
    (FaultPlan, FaultPlanError, _fault_doc(factor=-1),
     "faults[1]: bad machine_slowdown specification: slowdown factor must be > 0"),
    (FaultPlan, FaultPlanError, _fault_doc(colour="red"),
     "faults[1]: bad machine_slowdown specification: unknown key 'colour'; known: "
     "duration, factor, machine, start"),
    (FaultPlan, FaultPlanError, {"faults": [{"kind": "gremlin"}]},
     "faults[0]: unknown fault kind 'gremlin'; known: background_load,"),
    (DynamicPlan, DynamicsError, {"events": [{"kind": "machine_leave", "machine": 7,
                                              "start": 0}]},
     "events[0].machine: bad machine_leave specification: expected a string, got 7"),
    (DynamicPlan, DynamicsError, {"events": "none"}, "events: expected a list, got 'none'"),
    (ServiceConfig, ServeError, _service_doc(policy={"max_batch": "four"}),
     "policy.max_batch: expected an integer, got 'four'"),
    (ServiceConfig, ServeError, _service_doc(policy={"max_batch": True}),
     "policy.max_batch: expected an integer, got True"),
    (ServiceConfig, ServeError, _service_doc(policy={"max_batch": 0}),
     "policy: max_batch must be >= 1, got 0"),
    (ServiceConfig, ServeError, _service_doc(polcy={}),
     "unknown key 'polcy'; known: arrival, cluster, duration, policy, seed, workload"),
    (ServiceConfig, ServeError, _service_doc(workload=[{"template": "sort", "n": 5},
                                                       {"template": "video", "n": 5}]),
     "workload[1]: unknown request template 'video'; known: analytics,"),
    (ServiceConfig, ServeError,
     _service_doc(workload=[{"name": "k", "n": 5, "stages": ["gather", "fft"]}]),
     "workload[0].stages[1]: unknown stage op 'fft'; known: histogram,"),
    (ServiceConfig, ServeError, _service_doc(seed=None), "seed: expected an integer, got None"),
    (TunedDecision, CollectiveError,
     {**_DECISION.to_dict(), "plan": {"op": "gather", "levels": [{"algorithm": "flat",
                                                                  "segments": 1.5}]}},
     "plan.levels[0].segments: expected an integer, got 1.5"),
    (SchedulePlan, CollectiveError, {"op": "gather", "levels": [{"algorithm": "two"}]},
     "unknown gather level algorithm 'two'"),
]


class TestMalformed:
    @pytest.mark.parametrize("cls,error,document,message", _CASES)
    def test_error_class_and_field_path(self, cls, error, document, message):
        with pytest.raises(error) as caught:
            cls.from_dict(document)
        assert type(caught.value) is error
        assert str(caught.value).startswith(message), str(caught.value)

    def test_from_file_names_the_file_then_the_path(self, tmp_path):
        path = tmp_path / "svc.json"
        path.write_text(json.dumps(_service_doc(duration="long")))
        with pytest.raises(ServeError) as caught:
            ServiceConfig.from_file(path)
        assert str(caught.value) == f"{path}: duration: expected a number, got 'long'"

    def test_topology_leaves_fail_under_their_tree_path(self):
        document = json.loads(dumps(two_lans(2)))
        document["root"]["children"][1]["children"][0]["cpu_rate"] = "fast"
        with pytest.raises(TopologyError) as caught:
            loads(json.dumps(document))
        assert str(caught.value) == (
            "root.children[1].children[0].cpu_rate: expected a number, got 'fast'"
        )
        document["root"]["children"][1]["children"][0]["cpu_rate"] = -1.0
        with pytest.raises(TopologyError, match=r"root\.children\[1\]\.children\[0\]: cpu_rate"):
            loads(json.dumps(document))
        del document["root"]["children"][0]["network"]
        with pytest.raises(TopologyError, match="missing key 'network'"):
            loads(json.dumps(document))
        with pytest.raises(TopologyError, match="not valid JSON"):
            loads("{nope")

    def test_probe_matrix_records_fail_typed(self, tmp_path):
        path = tmp_path / "probe.json"
        path.write_text(json.dumps({"schema": "repro.probe-matrix/1", "names": ["a"]}))
        with pytest.raises(DiscoveryError, match="probe matrix: missing key 'latency'"):
            ProbeMatrix.load(path)
        path.write_text("[1, 2]")
        with pytest.raises(DiscoveryError, match="probe matrix"):
            ProbeMatrix.load(path)
        with pytest.raises(DiscoveryError, match="cannot read probe matrix"):
            ProbeMatrix.load(tmp_path / "missing.json")


class TestDecisionCacheStaysLenient:
    """A record the codec rejects is a *miss*, never an error."""

    @pytest.mark.parametrize("damage", [
        lambda record: record.pop("validated"),
        lambda record: record.update(flavour="mint"),
        lambda record: record["plan"].update(levels="flat"),
    ])
    def test_malformed_record_is_a_miss(self, tmp_path, damage):
        cache = DecisionCache(tmp_path)
        cache.put(_DECISION)
        key = (_DECISION.op, _DECISION.topology_hash, _DECISION.n, _DECISION.root)
        assert DecisionCache(tmp_path).get(*key) == _DECISION
        (entry,) = [p for p in tmp_path.rglob("*.json")]
        record = json.loads(entry.read_text())
        damage(record)
        entry.write_text(json.dumps(record))
        assert DecisionCache(tmp_path).get(*key) is None
