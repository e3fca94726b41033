"""The model coordinates each cluster where the program does.

Programs coordinate a cluster on ``HBSPTree``'s coordinator, the
topology's fastest member (highest ``cpu_rate``, then NIC), and
``calibrate`` reads the cluster's ``r`` off that machine.  The model
writes its coordinator rule once, in ``params.table``
(``model.params.fastest_of_runs``): the member with the smallest
``r_{0,j}``, the NIC gap.  The scalar predictors
(``predict._coordinator_leaf``) and both kernels read that one table.
Both rules agree on every preset; on generated machines they do not,
which is ROADMAP item 12's open coordinator bug.
"""

import pytest

from repro.cluster.discover.generators import GENERATORS
from repro.cluster.presets import PRESETS, build_preset
from repro.model.kernels import BroadcastKernel, GatherKernel
from repro.model.params import calibrate
from repro.model.predict import _coordinator_leaf
from repro.model.tree import HBSPTree

_UNFIXED = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 12: the model picks coordinators by NIC gap, "
    "the program by cpu_rate",
)


def _assert_model_uses_the_tree_coordinators(topology):
    tree = HBSPTree(topology)
    params = calibrate(topology)
    table = params.table
    assert GatherKernel(params).table is table
    assert BroadcastKernel(params).table is table
    leaf_of = {node.machine: node.index for node in tree.level_nodes(0)}
    for level in range(1, tree.k + 1):
        program = [leaf_of[node.coordinator] for node in tree.level_nodes(level)]
        scalar = [
            _coordinator_leaf(params, (level, j), None) for j in range(params.m[level])
        ]
        assert scalar == table.levels[level].coord.tolist(), f"level {level}"
        assert scalar == program, f"level {level}"


def test_one_table_per_params():
    params = calibrate(build_preset("fig1"))
    assert params.table is params.table
    assert GatherKernel(params).table is BroadcastKernel(params).table is params.table


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_presets(preset):
    _assert_model_uses_the_tree_coordinators(build_preset(preset))


@pytest.mark.parametrize("family", [
    pytest.param(family, marks=_UNFIXED) for family in sorted(GENERATORS)
])
def test_generator_families(family):
    _assert_model_uses_the_tree_coordinators(GENERATORS[family](seed=0))
