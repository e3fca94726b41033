"""Unit tests for repro.cluster.topology."""

import pytest

from repro.cluster import Cluster, ClusterTopology, MachineSpec, NetworkSpec
from repro.cluster.presets import ETHERNET_100, SMP_BUS, CAMPUS_ATM
from repro.errors import RoutingError, TopologyError


def machines(*names, **kwargs):
    return [MachineSpec(name, **kwargs) for name in names]


@pytest.fixture
def flat():
    return ClusterTopology(Cluster("lan", ETHERNET_100, machines("a", "b", "c")))


@pytest.fixture
def nested():
    inner0 = Cluster("smp", SMP_BUS, machines("s0", "s1"))
    inner1 = Cluster("lan", ETHERNET_100, machines("l0", "l1", "l2"))
    return ClusterTopology(Cluster("campus", CAMPUS_ATM, [inner0, inner1]))


class TestConstruction:
    def test_flat_height_one(self, flat):
        assert flat.height == 1
        assert flat.num_machines == 3

    def test_nested_height_two(self, nested):
        assert nested.height == 2
        assert nested.num_machines == 5

    def test_bare_machine_wrapped(self):
        topo = ClusterTopology(MachineSpec("solo"))
        assert topo.num_machines == 1
        assert topo.height == 1

    def test_empty_cluster_rejected(self):
        with pytest.raises(TopologyError, match="no children"):
            Cluster("empty", ETHERNET_100, [])

    def test_duplicate_machine_names_rejected(self):
        with pytest.raises(TopologyError, match="duplicate machine"):
            ClusterTopology(Cluster("lan", ETHERNET_100, machines("a", "a")))

    def test_duplicate_cluster_names_rejected(self):
        c0 = Cluster("same", ETHERNET_100, machines("a"))
        c1 = Cluster("same", ETHERNET_100, machines("b"))
        with pytest.raises(TopologyError, match="duplicate cluster"):
            ClusterTopology(Cluster("root", CAMPUS_ATM, [c0, c1]))

    def test_invalid_child_type_rejected(self):
        with pytest.raises(TopologyError, match="invalid child"):
            Cluster("lan", ETHERNET_100, ["not-a-machine"])  # type: ignore[list-item]

    def test_invalid_network_rejected(self):
        with pytest.raises(TopologyError, match="NetworkSpec"):
            Cluster("lan", "ethernet", machines("a"))  # type: ignore[arg-type]

    def test_machine_order_is_declaration_order(self, nested):
        assert [m.name for m in nested.machines] == ["s0", "s1", "l0", "l1", "l2"]


class TestLookup:
    def test_machine_id_roundtrip(self, nested):
        for i, machine in enumerate(nested.machines):
            assert nested.machine_id(machine.name) == i

    def test_machine_id_unknown_raises(self, flat):
        with pytest.raises(TopologyError, match="no machine"):
            flat.machine_id("ghost")

    def test_cluster_id_unknown_raises(self, flat):
        with pytest.raises(TopologyError, match="no cluster"):
            flat.cluster_id("ghost")

    def test_members_of_root_is_everything(self, nested):
        assert nested.members("campus") == (0, 1, 2, 3, 4)

    def test_members_of_inner(self, nested):
        assert nested.members("smp") == (0, 1)
        assert nested.members("lan") == (2, 3, 4)

    def test_cluster_level(self, nested):
        assert nested.cluster_level("campus") == 2
        assert nested.cluster_level("smp") == 1

    def test_child_clusters(self, nested):
        root = nested.cluster_id("campus")
        children = nested.child_clusters(root)
        assert [nested.clusters[c].name for c in children] == ["smp", "lan"]

    def test_machine_cluster(self, nested):
        assert nested.clusters[nested.machine_cluster(0)].name == "smp"
        assert nested.clusters[nested.machine_cluster(4)].name == "lan"

    def test_ancestors_root_first(self, nested):
        chain = nested.ancestors(3)
        names = [nested.clusters[c].name for c in chain]
        assert names == ["campus", "lan"]


class TestSpeedQueries:
    def test_fastest_by_cpu(self):
        topo = ClusterTopology(
            Cluster(
                "lan",
                ETHERNET_100,
                [MachineSpec("slow", cpu_rate=1e7), MachineSpec("fast", cpu_rate=1e8)],
            )
        )
        assert topo.machines[topo.fastest()].name == "fast"
        assert topo.machines[topo.slowest()].name == "slow"

    def test_tie_broken_by_nic_then_name(self):
        topo = ClusterTopology(
            Cluster(
                "lan",
                ETHERNET_100,
                [
                    MachineSpec("b", cpu_rate=1e8, nic_gap=1e-7),
                    MachineSpec("a", cpu_rate=1e8, nic_gap=1e-7),
                    MachineSpec("c", cpu_rate=1e8, nic_gap=9e-8),
                ],
            )
        )
        assert topo.machines[topo.fastest()].name == "c"  # faster NIC wins tie
        assert topo.speed_ranking()[1] == topo.machine_id("a")  # then name order

    def test_fastest_within_cluster(self, nested):
        lan_fastest = nested.fastest("lan")
        assert lan_fastest in nested.members("lan")

    def test_coordinator_is_fastest_member(self, nested):
        assert nested.coordinator("lan") == nested.fastest("lan")

    def test_speed_ranking_is_permutation(self, nested):
        assert sorted(nested.speed_ranking()) == list(range(5))

    def test_min_nic_gap(self, nested):
        assert nested.min_nic_gap() == min(m.nic_gap for m in nested.machines)


class TestRouting:
    def test_same_cluster_uses_local_network(self, nested):
        net, level = nested.route(0, 1)
        assert net.name == "smp-bus"
        assert level == 1

    def test_cross_cluster_uses_backbone(self, nested):
        net, level = nested.route(0, 2)
        assert net.name == "campus-atm"
        assert level == 2

    def test_route_symmetric(self, nested):
        assert nested.route(1, 4) == nested.route(4, 1)

    def test_lca_of_same_machine_is_own_cluster(self, nested):
        assert nested.clusters[nested.lca_cluster(2, 2)].name == "lan"

    def test_route_out_of_range_raises(self, nested):
        with pytest.raises(RoutingError):
            nested.lca_cluster(0, 99)


class TestNormalized:
    def test_flat_is_unchanged_in_shape(self, flat):
        norm = flat.normalized()
        assert norm.height == flat.height
        assert [m.name for m in norm.machines] == [m.name for m in flat.machines]

    def test_irregular_leaf_gets_wrapped(self):
        # A machine attached directly at the top level (like Fig. 1's SGI).
        inner = Cluster("lan", ETHERNET_100, machines("l0", "l1"))
        topo = ClusterTopology(
            Cluster("campus", CAMPUS_ATM, [inner, MachineSpec("sgi")])
        )
        norm = topo.normalized()
        sgi = norm.machine_id("sgi")
        chain = norm.ancestors(sgi)
        assert len(chain) == 2  # campus + the singleton wrapper
        wrapper = norm.clusters[chain[-1]]
        assert wrapper.network.sync_cost(1) == 0.0  # self network is free

    def test_normalized_preserves_machine_order(self):
        inner = Cluster("lan", ETHERNET_100, machines("l0", "l1"))
        topo = ClusterTopology(
            Cluster("campus", CAMPUS_ATM, [MachineSpec("front"), inner])
        )
        norm = topo.normalized()
        assert [m.name for m in norm.machines] == ["front", "l0", "l1"]

    def test_normalized_preserves_routing(self):
        inner = Cluster("lan", ETHERNET_100, machines("l0", "l1"))
        topo = ClusterTopology(
            Cluster("campus", CAMPUS_ATM, [inner, MachineSpec("sgi")])
        )
        norm = topo.normalized()
        a, b = norm.machine_id("l0"), norm.machine_id("sgi")
        net, level = norm.route(a, b)
        assert net.name == "campus-atm"
        assert level == 2


class TestExports:
    def test_describe_mentions_everything(self, nested):
        text = nested.describe()
        for machine in nested.machines:
            assert machine.name in text
        for cluster in nested.clusters:
            assert cluster.name in text
