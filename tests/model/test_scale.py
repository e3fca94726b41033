"""The model at 10^4 leaves (``-m scale``; excluded from the tier-1 run).

Both kernels read the parameter set's one cluster table, whose arrays
are per level (no ``m_level x p`` masks), so compiling them on the
10^4-leaf fat tree retains about half a megabyte.  The CI bench job
runs ``pytest -m scale`` explicitly.
"""

import tracemalloc

import pytest

from repro.cluster.discover.generators import fat_tree
from repro.model import BroadcastKernel, GatherKernel, calibrate, rank_plans
from repro.model.predict import predict_broadcast_plan
from repro.tuning.space import enumerate_plans

pytestmark = pytest.mark.scale


@pytest.fixture(scope="module")
def params_10k():
    return calibrate(fat_tree(25, 25, 16, seed=0))


def test_compiling_both_kernels_retains_little(params_10k):
    tracemalloc.start()
    try:
        kernels = (GatherKernel(params_10k), BroadcastKernel(params_10k))
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained <= 4 * 2**20, f"{retained / 2**20:.1f} MB retained"
    assert kernels[0].table is kernels[1].table is params_10k.table


def test_rank_plans_matches_the_scalar_predictor(params_10k):
    plans = enumerate_plans("broadcast", params_10k.k)
    ranked = rank_plans(params_10k, 20_000, plans, top=3)
    assert len(ranked) == 3
    for plan, total in ranked:
        assert total == predict_broadcast_plan(params_10k, 20_000, plan).total
