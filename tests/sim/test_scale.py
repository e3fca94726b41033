"""10^4-leaf scale runs (``-m scale``; excluded from the tier-1 run).

One macro-engine run per collective on the 10^4-leaf fat tree — the
ISSUE's headline scale.  These take seconds each, so the default test
run skips them; the CI bench job runs ``pytest -m scale`` explicitly.
Numerical equivalence is held at 10^3 leaves by ``bench/``'s
``macro_equals_*`` checks (``des_object_1k``) and on random machines by
``tests/properties/test_macro_equivalence.py``.
"""

import pytest

from repro.cluster.discover.generators import fat_tree
from repro.collectives import run_broadcast, run_gather

pytestmark = pytest.mark.scale

LEAVES_10K = dict(pods=25, racks_per_pod=25, hosts_per_rack=16)


@pytest.mark.parametrize("runner", [run_broadcast, run_gather])
def test_ten_thousand_leaves_macro(runner):
    topology = fat_tree(seed=0, **LEAVES_10K)
    outcome = runner(topology, 50_000, seed=1, macro=True)
    assert outcome.runtime.macro is not None
    assert outcome.runtime.nprocs == 10_000
    assert outcome.time > 0.0
    assert outcome.supersteps >= 2
    # Every leaf ran the program to completion.
    assert len(outcome.values) == 10_000
