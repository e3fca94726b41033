"""Unit tests for repro.model.tree."""

import pytest

from repro.errors import ModelError
from repro.model import HBSPTree


class TestFlatTree:
    def test_k_and_p(self, testbed):
        tree = HBSPTree(testbed)
        assert tree.k == 1
        assert tree.num_processors == 10

    def test_m_counts(self, testbed):
        tree = HBSPTree(testbed)
        assert tree.m(0) == 10
        assert tree.m(1) == 1

    def test_root_is_level_k(self, testbed):
        tree = HBSPTree(testbed)
        assert tree.root.level == 1
        assert tree.root.fan_out == 10

    def test_leaf_indexing_left_to_right(self, testbed):
        tree = HBSPTree(testbed)
        for j, node in enumerate(tree.level_nodes(0)):
            assert node.index == j
            assert node.machine == j

    def test_labels(self, testbed):
        tree = HBSPTree(testbed)
        assert tree.root.label == "M_{1,0}"
        assert tree.node(0, 3).label == "M_{0,3}"

    def test_root_coordinator_is_fastest_machine(self, testbed):
        tree = HBSPTree(testbed)
        assert tree.root.coordinator == testbed.fastest()


class TestFig1Tree:
    """The tree of Figure 2: an HBSP^2 machine with an irregular leaf."""

    def test_k_two(self, fig1_machine):
        tree = HBSPTree(fig1_machine)
        assert tree.k == 2

    def test_level_counts_match_figure(self, fig1_machine):
        tree = HBSPTree(fig1_machine)
        assert tree.m(2) == 1
        assert tree.m(1) == 3  # SMP, wrapped SGI, LAN
        assert tree.m(0) == 9

    def test_sgi_plays_two_roles(self, fig1_machine):
        """The lone SGI appears as an HBSP^1 node *and* a level-0 node."""
        tree = HBSPTree(fig1_machine)
        sgi_mid = tree.topology.machine_id("sgi-octane")
        level1_coords = [node.coordinator for node in tree.level_nodes(1)]
        assert sgi_mid in level1_coords
        assert tree.processor_node(sgi_mid).level == 0

    def test_coordinators_are_fastest_members(self, fig1_machine):
        tree = HBSPTree(fig1_machine)
        for node in tree.walk():
            members = node.members
            speeds = {
                mid: tree.topology.machines[mid].cpu_rate for mid in members
            }
            assert speeds[node.coordinator] == max(speeds.values())

    def test_parent_links(self, fig1_machine):
        tree = HBSPTree(fig1_machine)
        for node in tree.level_nodes(1):
            assert tree.parent(node) is tree.root
        assert tree.parent(tree.root) is None

    def test_members_partition_at_each_level(self, fig1_machine):
        tree = HBSPTree(fig1_machine)
        for level in range(1, tree.k + 1):
            all_members: list[int] = []
            for node in tree.level_nodes(level):
                all_members.extend(node.members)
            assert sorted(all_members) == list(range(tree.num_processors))

    def test_walk_visits_all_nodes_once(self, fig1_machine):
        tree = HBSPTree(fig1_machine)
        visited = list(tree.walk())
        assert len(visited) == sum(tree.m(level) for level in range(tree.k + 1))
        assert len(set(id(node) for node in visited)) == len(visited)


class TestMachineClasses:
    def test_containment_chain(self, grid):
        """HBSP^0 ⊂ HBSP^1 ⊂ ... ⊂ HBSP^k (Section 3.1)."""
        tree = HBSPTree(grid)
        for outer in range(tree.k + 1):
            for inner in range(outer + 1):
                assert tree.contains_class(outer, inner)
        assert not tree.contains_class(0, 1)

    def test_machine_class_is_level(self, grid):
        tree = HBSPTree(grid)
        for node in tree.walk():
            assert tree.machine_class(node) == node.level

    def test_negative_class_rejected(self, grid):
        with pytest.raises(ModelError):
            HBSPTree(grid).contains_class(-1, 0)


class TestErrors:
    def test_bad_level_rejected(self, testbed):
        tree = HBSPTree(testbed)
        with pytest.raises(ModelError):
            tree.level_nodes(5)
        with pytest.raises(ModelError):
            tree.level_nodes(-1)

    def test_bad_index_rejected(self, testbed):
        tree = HBSPTree(testbed)
        with pytest.raises(ModelError):
            tree.node(0, 99)

    def test_unknown_machine_rejected(self, testbed):
        tree = HBSPTree(testbed)
        with pytest.raises(ModelError):
            tree.processor_node(999)


class TestDescribe:
    def test_mentions_labels_and_coordinators(self, fig1_machine):
        tree = HBSPTree(fig1_machine)
        text = tree.describe()
        assert "M_{2,0}" in text
        assert "sgi-octane" in text
