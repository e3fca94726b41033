"""Tests for hierarchy inference, scoring, and topology reconstruction."""

import numpy as np
import pytest

from repro.cluster import loads, dumps
from repro.cluster.discover import (
    DiscoveryResult,
    discover,
    exact_recovery,
    hierarchy_distance,
    level_bands,
    rand_index,
    reconstruct_topology,
    synthesize,
    topology_partitions,
)
from repro.cluster.discover import infer
from repro.cluster.discover.generators import GENERATORS
from repro.cluster.discover.matrix import ProbeMatrix
from repro.errors import DiscoveryError

#: Small instances of every generator family (seconds to run, same
#: structure as the big ones).
SMALL_SPECS = {
    "fat_tree": {"pods": 2, "racks_per_pod": 3, "hosts_per_rack": 4},
    "multi_rack": {"racks": 4, "hosts_per_rack": 5},
    "cloud_spot_mix": {
        "regions": 2, "zones_per_region": 2, "instances_per_zone": 4,
    },
    "multicore_nodes": {
        "racks": 2, "nodes_per_rack": 3, "cores_per_node": 3,
    },
}

#: What noiseless recovery is asserted on: every small family, plus the
#: 1 024-leaf fat tree — the full float64 matrix with gap columns, the
#: size the calibration-grade linkage path is meant for (~0.2 s a case).
RECOVERY_SPECS = {
    **{family: (family, spec) for family, spec in SMALL_SPECS.items()},
    "fat_tree_1k": (
        "fat_tree", {"pods": 4, "racks_per_pod": 16, "hosts_per_rack": 16},
    ),
}


class TestLevelBands:
    def test_order_of_magnitude_levels_separate(self):
        values = np.array([1e-5, 1.1e-5, 1e-4, 1.2e-4, 1e-3])
        bands = level_bands(values)
        assert len(bands) == 3
        assert bands[0] == (1e-5, 1.1e-5)

    def test_chained_values_merge(self):
        # Each value within 30% of the previous: one band.
        values = np.array([1.0, 1.2, 1.5, 1.9])
        assert len(level_bands(values)) == 1

    def test_negative_tolerance_rejected(self):
        with pytest.raises(DiscoveryError, match="tolerances"):
            level_bands(np.array([1.0]), rel_tol=-0.1)


class TestExactRecovery:
    @pytest.mark.parametrize("case", sorted(RECOVERY_SPECS))
    @pytest.mark.parametrize("method", ["linkage", "bands"])
    def test_noiseless_families_recover_exactly(self, case, method, monkeypatch):
        """Size picks the backend; a zero linkage limit forces bands."""
        if method == "bands":
            monkeypatch.setattr(infer, "LINKAGE_LIMIT", 0)
        family, spec = RECOVERY_SPECS[case]
        topology = GENERATORS[family](seed=11, **spec)
        result = discover(synthesize(topology))
        truth = topology_partitions(topology)
        assert exact_recovery(truth, result.partitions)
        assert result.method == method

    def test_single_machine(self):
        m = ProbeMatrix(names=("solo",), latency=np.zeros((1, 1)))
        result = discover(m)
        assert result.k == 1
        assert result.partitions == ((0,),)
        assert result.topology.num_machines == 1

    def test_max_levels_caps_hierarchy(self, monkeypatch):
        monkeypatch.setattr(infer, "MAX_LEVELS", 2)
        topology = GENERATORS["fat_tree"](seed=0, **SMALL_SPECS["fat_tree"])
        result = discover(synthesize(topology))
        assert result.k <= 2


class TestDiscoveryResult:
    @pytest.fixture(scope="class")
    def result(self) -> DiscoveryResult:
        topology = GENERATORS["fat_tree"](seed=1, **SMALL_SPECS["fat_tree"])
        return discover(synthesize(topology))

    def test_partitions_are_canonical_and_nested(self, result):
        for labels in result.partitions:
            seen: list[int] = []
            for label in labels:
                if label not in seen:
                    seen.append(label)
            assert seen == sorted(seen)  # first-seen order
        assert len(set(result.partitions[-1])) == 1

    def test_clusters_per_level_decreasing(self, result):
        counts = result.clusters_per_level()
        assert list(counts) == sorted(counts, reverse=True)
        assert counts[-1] == 1

    def test_describe_mentions_method_and_levels(self, result):
        text = result.describe()
        assert f"HBSP^{result.k}" in text
        assert result.method in text

    def test_params_match_topology(self, result):
        assert result.params.p == result.topology.num_machines
        assert result.params.k == result.k

    def test_recovered_topology_serializes(self, result):
        restored = loads(dumps(result.topology, params=result.params))
        assert restored.num_machines == result.topology.num_machines
        assert restored.height == result.topology.height


class TestReconstruct:
    def test_partition_stack_validated(self):
        m = ProbeMatrix(names=("a", "b"), latency=np.ones((2, 2)) * 1e-4)
        with pytest.raises(DiscoveryError, match="at least one"):
            reconstruct_topology(m, [])
        with pytest.raises(DiscoveryError, match="label all"):
            reconstruct_topology(m, [(0,)])
        with pytest.raises(DiscoveryError, match="single cluster"):
            reconstruct_topology(m, [(0, 1)])
        with pytest.raises(DiscoveryError, match="coarsen"):
            reconstruct_topology(m, [(0, 0), (0, 1), (0, 0)])

    def test_speeds_and_nics_carried_into_specs(self):
        topology = GENERATORS["multi_rack"](seed=4, **SMALL_SPECS["multi_rack"])
        result = discover(synthesize(topology))
        recovered = result.topology
        assert [m.cpu_rate for m in recovered.machines] == [
            m.cpu_rate for m in topology.machines
        ]
        # NIC gaps are estimated from the gap matrix: positive and
        # within an order of magnitude of the declared ones.
        for declared, estimated in zip(
            topology.machines, recovered.machines
        ):
            assert estimated.nic_gap > 0
            assert 0.1 < estimated.nic_gap / declared.nic_gap < 10

    def test_network_latency_estimates_match_truth(self):
        topology = GENERATORS["multi_rack"](seed=4, **SMALL_SPECS["multi_rack"])
        result = discover(synthesize(topology))
        for a in range(topology.num_machines):
            for b in range(a + 1, topology.num_machines):
                true_net, _ = topology.route(a, b)
                est_net, _ = result.topology.route(a, b)
                assert est_net.latency == pytest.approx(
                    true_net.latency, rel=1e-6
                )


class TestScoring:
    def test_rand_index_bounds(self):
        same = (0, 0, 1, 1)
        assert rand_index(same, same) == 1.0
        assert rand_index((0, 0, 0, 0), (0, 1, 2, 3)) == 0.0
        assert 0.0 <= rand_index((0, 0, 1, 1), (0, 1, 0, 1)) <= 1.0

    def test_rand_index_label_invariant(self):
        a = (0, 0, 1, 1, 2)
        b = (5, 5, 9, 9, 7)
        assert rand_index(a, b) == 1.0

    def test_hierarchy_distance_zero_iff_equal(self):
        truth = [(0, 0, 1, 1), (0, 0, 0, 0)]
        assert hierarchy_distance(truth, truth) == 0.0
        off = [(0, 1, 1, 0), (0, 0, 0, 0)]
        assert hierarchy_distance(truth, off) > 0.0

    def test_exact_recovery_requires_same_level_count(self):
        truth = [(0, 0, 1, 1), (0, 0, 0, 0)]
        missing = [(0, 0, 0, 0)]
        assert not exact_recovery(truth, missing)
        assert exact_recovery(truth, [(0, 0, 1, 1), (0, 0, 0, 0)])

    def test_topology_partitions_roundtrip_on_declared_tree(self):
        topology = GENERATORS["fat_tree"](seed=0, **SMALL_SPECS["fat_tree"])
        parts = topology_partitions(topology)
        assert len(parts) == topology.height
        assert len(set(parts[-1])) == 1
        assert len(set(parts[0])) == 2 * 3  # one label per rack
