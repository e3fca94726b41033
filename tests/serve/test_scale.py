"""Serving at 10^3 leaves (CI bench job: ``pytest -m scale``).

Every stage simulation, app stages included, takes the macro-event
fast path.
"""

import time

import pytest

from repro.serve import (
    ArrivalSpec,
    PolicySpec,
    RequestKind,
    ServiceConfig,
    carve_slices,
    run_service,
)
from repro.serve.service import resolve_cluster

pytestmark = pytest.mark.scale


def _big_config(seed: int = 0) -> ServiceConfig:
    return ServiceConfig(
        cluster="multi_rack:racks=25,hosts_per_rack=40",  # 1000 leaves
        arrival=ArrivalSpec(process="poisson", rate=3.0),
        workload=(
            RequestKind.from_dict(
                {"template": "fanout", "n": 100_000, "weight": 2}
            ),
            RequestKind.from_dict(
                {"template": "fanout", "name": "smallfan", "n": 20_000}
            ),
            RequestKind.from_dict({"template": "analytics", "n": 20_000}),
            RequestKind.from_dict({"template": "sort", "n": 20_000}),
        ),
        policy=PolicySpec(queue_limit=64, max_batch=2),
        duration=10.0,
        seed=seed,
    )


class TestThousandLeafServing:
    def test_session_runs_and_spreads_load(self):
        config = _big_config()
        topology = resolve_cluster(config.cluster)
        assert topology.num_machines == 1000
        slices = carve_slices(topology, config.policy.placement)
        assert len(slices) == 25

        started = time.perf_counter()
        report = run_service(config)
        elapsed = time.perf_counter() - started

        assert report.completed == report.offered > 0
        assert report.shed == 0
        assert sum(report.slice_completed) == report.completed
        # 25 idle racks vs ~30 requests: load spreads beyond one slice.
        assert sum(1 for count in report.slice_completed if count) > 1
        # Macro fast path: the whole session (universe prewarm included)
        # stays interactive even at 10^3 machines.
        assert elapsed < 120.0

    def test_bit_identical_across_repeats(self):
        first = run_service(_big_config(seed=5))
        second = run_service(_big_config(seed=5))
        assert first.latencies == second.latencies
        assert first.slice_completed == second.slice_completed
