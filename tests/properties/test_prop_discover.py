"""Property tests: discovery recovers random hierarchies exactly.

The core guarantee of the subsystem (and of the level-cut heuristic):
on a *noiseless* matrix synthesized from any tree whose per-level
latencies are separated beyond the band tolerance, ``discover()``
returns the generating partition at every level, for both backends.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterTopology, MachineSpec, NetworkSpec
from repro.cluster.discover import (
    discover,
    exact_recovery,
    synthesize,
    topology_partitions,
)
from repro.cluster.discover import infer

# ---------------------------------------------------------------------------
# Strategy: random trees of height <= 3 with well-separated level latencies
# ---------------------------------------------------------------------------

#: Per-level wire latencies, an order of magnitude apart (the regime the
#: paper assumes; level_bands' default 30% tolerance cannot merge them).
LEVEL_LATENCY = {1: 1e-5, 2: 1.5e-4, 3: 2e-3}

#: Leaf budget per generated tree.
MAX_LEAVES = 64

_counter = 0


def _fresh(prefix: str) -> str:
    global _counter
    _counter += 1
    return f"{prefix}{_counter}"


def _network(level: int) -> NetworkSpec:
    latency = LEVEL_LATENCY[level]
    return NetworkSpec(
        _fresh("net"),
        gap=1e-7 * level,
        latency=latency,
        sync_base=5 * latency,
        sync_per_member=latency,
    )


@st.composite
def machine_strategy(draw):
    return MachineSpec(
        _fresh("m"),
        cpu_rate=draw(st.floats(min_value=1e6, max_value=1e9)),
        nic_gap=draw(st.floats(min_value=1e-8, max_value=1e-6)),
    )


@st.composite
def balanced_tree_strategy(draw):
    """A random tree: every leaf at the same depth, uniform nets per level.

    Equal leaf depth plus one shared NetworkSpec per level keeps the
    synthesized matrix exactly ultrametric with one distance value per
    level — the setting in which exact recovery is the specified
    behaviour (a level whose latency coincides with another's would
    *correctly* merge, which strict partition equality would flag).
    """
    height = draw(st.integers(min_value=1, max_value=3))
    # Fan-outs per level, innermost first; capped so leaves <= MAX_LEAVES.
    fans = []
    leaves = 1
    for _level in range(height):
        fan = draw(st.integers(min_value=2, max_value=4))
        fan = min(fan, max(2, MAX_LEAVES // max(1, leaves * 2)))
        fans.append(fan)
        leaves *= fan
    nets = {level: _network(level) for level in range(1, height + 1)}

    def build(level: int):
        if level == 0:
            return draw(machine_strategy())
        children = [build(level - 1) for _ in range(fans[level - 1])]
        return Cluster(_fresh("c"), nets[level], children)

    return ClusterTopology(build(height))


class TestExactRecovery:
    @given(topology=balanced_tree_strategy())
    @settings(max_examples=30, deadline=None)
    def test_noiseless_linkage_recovers_partitions(self, topology):
        result = discover(synthesize(topology))
        assert result.method == "linkage"
        assert exact_recovery(topology_partitions(topology), result.partitions)

    @given(topology=balanced_tree_strategy())
    @settings(max_examples=30, deadline=None)
    def test_noiseless_bands_recovers_partitions(self, topology):
        with pytest.MonkeyPatch.context() as patch:  # size alone picks bands
            patch.setattr(infer, "LINKAGE_LIMIT", 0)
            result = discover(synthesize(topology))
        assert result.method == "bands"
        assert exact_recovery(topology_partitions(topology), result.partitions)

    @given(topology=balanced_tree_strategy())
    @settings(max_examples=20, deadline=None)
    def test_recovered_topology_routes_like_truth(self, topology):
        """Reconstruction preserves which pairs share which level."""
        result = discover(synthesize(topology))
        p = topology.num_machines
        for a in range(p):
            for b in range(a + 1, p):
                _, true_level = topology.route(a, b)
                _, est_level = result.topology.normalized().route(a, b)
                assert est_level == true_level


class TestNoiseRobustness:
    def test_fixed_seed_noise_survives(self):
        """Realistic ping jitter (sigma = 0.1, ~10%) cannot merge bands
        an order of magnitude apart: recovery stays exact."""
        from repro.cluster.discover.generators import GENERATORS

        specs = {
            "fat_tree": {"pods": 2, "racks_per_pod": 3, "hosts_per_rack": 4},
            "multi_rack": {"racks": 4, "hosts_per_rack": 6},
            "cloud_spot_mix": {
                "regions": 2, "zones_per_region": 2, "instances_per_zone": 5,
            },
            "multicore_nodes": {
                "racks": 2, "nodes_per_rack": 3, "cores_per_node": 3,
            },
        }
        for family, spec in specs.items():
            topology = GENERATORS[family](seed=13, **spec)
            matrix = synthesize(topology, noise=0.1, seed=99)
            result = discover(matrix)
            assert exact_recovery(
                topology_partitions(topology), result.partitions
            ), f"{family} lost exact recovery at sigma=0.1"
