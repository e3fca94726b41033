"""Tests for cluster topology serialization."""

import json

import pytest

from repro.cluster import (
    dumps,
    flat_cluster,
    grid_three_level,
    loads,
    loads_with_params,
    params_from_dict,
    params_to_dict,
    smp_sgi_lan,
    topology_from_dict,
    topology_hash,
    topology_to_dict,
    ucf_testbed,
)
from repro.errors import TopologyError
from repro.model import calibrate


@pytest.mark.parametrize(
    "factory",
    [lambda: ucf_testbed(10), smp_sgi_lan, lambda: grid_three_level(), lambda: flat_cluster(3)],
    ids=["testbed", "fig1", "grid", "flat"],
)
class TestRoundTrip:
    def test_structure_preserved(self, factory):
        original = factory()
        restored = loads(dumps(original))
        assert restored.height == original.height
        assert [m.name for m in restored.machines] == [
            m.name for m in original.machines
        ]
        assert [c.name for c in restored.clusters] == [
            c.name for c in original.clusters
        ]

    def test_specs_preserved_exactly(self, factory):
        original = factory()
        restored = loads(dumps(original))
        for a, b in zip(original.machines, restored.machines):
            assert a == b
        for a, b in zip(original.clusters, restored.clusters):
            assert a.network == b.network

    def test_calibration_identical(self, factory):
        original = factory()
        restored = loads(dumps(original))
        p_original = calibrate(original)
        p_restored = calibrate(restored)
        assert p_original.g == p_restored.g
        assert p_original.r == p_restored.r
        assert p_original.L == p_restored.L

    def test_routing_identical(self, factory):
        original = factory()
        restored = loads(dumps(original))
        for a in range(original.num_machines):
            for b in range(original.num_machines):
                if a != b:
                    assert (
                        restored.route(a, b)[0].name == original.route(a, b)[0].name
                    )


class TestDetails:
    def test_pair_multipliers_rejected(self):
        # Between two machines the tree alone sets the cost; a document
        # asking for more is refused, naming the field.
        data = topology_to_dict(ucf_testbed(4))
        data["pair_multipliers"] = [
            {"a": data["root"]["children"][0]["name"],
             "b": data["root"]["children"][3]["name"], "factor": 2}
        ]
        with pytest.raises(TopologyError, match="pair_multipliers"):
            topology_from_dict(data)
        with pytest.raises(TopologyError, match="pair_multipliers"):
            topology_hash(data)

    def test_empty_pair_multipliers_still_load(self):
        # Every earlier writer emitted an empty list.
        topology = ucf_testbed(4)
        data = topology_to_dict(topology)
        assert "pair_multipliers" not in data
        data["pair_multipliers"] = []
        assert dumps(topology_from_dict(data)) == dumps(topology)
        assert topology_hash(data) == topology_hash(dumps(topology))

    def test_json_is_valid_and_stable(self):
        text = dumps(ucf_testbed(3))
        data = json.loads(text)
        assert data["schema"] == "repro.cluster/2"
        assert dumps(loads(text)) == text  # fixpoint

    def test_v1_documents_still_load(self):
        # Documents written before the params extension carry /1 and no
        # "params" key; the loader must keep accepting them unchanged.
        data = topology_to_dict(ucf_testbed(3))
        data["schema"] = "repro.cluster/1"
        restored = topology_from_dict(data)
        assert restored.num_machines == 3

    def test_unknown_schema_rejected(self):
        data = topology_to_dict(ucf_testbed(2))
        data["schema"] = "something/else"
        with pytest.raises(TopologyError, match="schema"):
            topology_from_dict(data)

    def test_unknown_node_kind_rejected(self):
        data = topology_to_dict(ucf_testbed(2))
        data["root"]["children"][0]["kind"] = "mystery"
        with pytest.raises(TopologyError, match="kind"):
            topology_from_dict(data)


class TestTopologyHash:
    def test_hex_and_deterministic(self):
        digest = topology_hash(ucf_testbed(4))
        assert digest == topology_hash(ucf_testbed(4))
        assert len(digest) == 64
        int(digest, 16)

    def test_all_source_spellings_agree(self):
        topology = grid_three_level()
        as_dict = topology_to_dict(topology)
        as_text = dumps(topology)
        assert topology_hash(topology) == topology_hash(as_dict)
        assert topology_hash(topology) == topology_hash(as_text)

    def test_dict_key_order_never_matters(self):
        data = topology_to_dict(ucf_testbed(3))
        shuffled = json.loads(
            json.dumps(data, sort_keys=True)
        )  # different insertion order than the writer's
        reversed_order = dict(reversed(list(data.items())))
        assert topology_hash(data) == topology_hash(shuffled)
        assert topology_hash(data) == topology_hash(reversed_order)

    def test_schema_version_never_matters(self):
        # A v1 document and its v2 re-serialisation describe the same
        # machine.
        data = topology_to_dict(ucf_testbed(3))
        v1 = dict(data, schema="repro.cluster/1")
        assert topology_hash(v1) == topology_hash(data)

    def test_structure_discriminates(self):
        hashes = {
            topology_hash(ucf_testbed(3)),
            topology_hash(ucf_testbed(4)),
            topology_hash(flat_cluster(3)),
            topology_hash(grid_three_level()),
        }
        assert len(hashes) == 4

    def test_embedded_params_discriminate(self):
        topology = ucf_testbed(4)
        params = calibrate(topology)
        assert topology_hash(topology) != topology_hash(topology, params=params)

    def test_params_only_with_live_topology(self):
        data = topology_to_dict(ucf_testbed(2))
        with pytest.raises(TopologyError, match="params"):
            topology_hash(data, params=calibrate(ucf_testbed(2)))

    def test_unknown_schema_rejected(self):
        data = topology_to_dict(ucf_testbed(2))
        data["schema"] = "something/else"
        with pytest.raises(TopologyError, match="schema"):
            topology_hash(data)


class TestParamsRoundTrip:
    def test_embedded_params_roundtrip(self):
        topology = ucf_testbed(4)
        params = calibrate(topology)
        restored_topology, restored = loads_with_params(
            dumps(topology, params=params)
        )
        assert restored is not None
        assert restored_topology.num_machines == topology.num_machines
        assert restored.p == params.p
        assert restored.k == params.k
        assert restored.g == params.g
        assert restored.r == params.r
        assert restored.L == params.L
        assert restored.c == params.c
        assert restored.m == params.m

    def test_loads_with_params_none_when_absent(self):
        topology, params = loads_with_params(dumps(ucf_testbed(2)))
        assert params is None
        assert topology.num_machines == 2

    def test_params_dict_is_json_safe(self):
        params = calibrate(grid_three_level())
        data = params_to_dict(params)
        text = json.dumps(data)  # must not choke on tuple keys
        assert params_from_dict(json.loads(text)).L == params.L
