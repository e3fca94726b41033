"""Discovery above the linkage limit (CI bench job: ``pytest -m scale``).

Size alone picks the discovery backend, so the public API reaches the
banded connected-components path only above ``LINKAGE_LIMIT`` (4 096)
machines; this is the one test that runs it there.
"""

import pytest

from repro.cluster.discover import (
    discover,
    exact_recovery,
    synthesize,
    topology_partitions,
)
from repro.cluster.discover.generators import fat_tree
from repro.cluster.discover.infer import LINKAGE_LIMIT

pytestmark = pytest.mark.scale


def test_noiseless_fat_tree_above_the_linkage_limit_recovers_exactly():
    topology = fat_tree(8, 8, 80, seed=1)  # 5 120 leaves
    assert topology.num_machines > LINKAGE_LIMIT
    result = discover(synthesize(topology))
    assert result.method == "bands"
    assert exact_recovery(topology_partitions(topology), result.partitions)
