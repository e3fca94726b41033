"""Property test: the item-stream store is invisible in the values.

Whatever sizes are asked of whatever streams in whatever order, under
whatever byte budget, ``make_items``'s store returns exactly what a
fresh generator draws for that size, read-only, and never holds more
than its budget.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.base import _ItemStore
from repro.util.rng import RngStream

_requests = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # seed
        st.integers(min_value=0, max_value=4),  # pid
        st.integers(min_value=0, max_value=3000),  # count
    ),
    min_size=1,
    max_size=40,
)


@given(requests=_requests, budget=st.integers(min_value=0, max_value=40_000))
@settings(max_examples=60, deadline=None)
def test_store_serves_fresh_draws_within_its_budget(requests, budget):
    store = _ItemStore(budget)
    for seed, pid, count in requests:
        got = store.get(seed, pid, count)
        fresh = RngStream(seed, "items", pid).uniform_ints(count).astype(np.int32)
        assert got.dtype == np.int32
        assert not got.flags.writeable and not got.flags.owndata
        np.testing.assert_array_equal(got, fresh)
        assert store.info().bytes <= budget
    info = store.info()
    assert info.hits + info.draws == len(requests)
    assert info.regrows + info.evictions <= info.draws
