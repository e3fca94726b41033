"""Churn at 10^3 leaves (CI bench job: ``pytest -m scale``).

A 1000-machine cluster under machine churn: the epoch engine, slice
variant expansion, and re-dispatch machinery must stay deterministic
and interactive when the membership timeline covers hundreds of
machines.  Requests stay on the ``fanout`` macro fast path, matching
``tests/serve/test_scale.py``.
"""

import time

import pytest

from repro.dynamics import churn_plan, membership_epochs
from repro.serve import (
    ArrivalSpec,
    PolicySpec,
    RequestKind,
    ServiceConfig,
    run_service,
)
from repro.serve.service import resolve_cluster
from tests.serve.test_session import step_checked

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
        ),
        policy=PolicySpec(queue_limit=64, max_batch=2),
        duration=10.0,
        seed=seed,
    )


def _churned(config: ServiceConfig, rate: float, seed: int = 0):
    topology = resolve_cluster(config.cluster)
    return churn_plan(
        [m.name for m in topology.machines],
        rate=rate,
        duration=config.duration,
        seed=seed,
    )


class TestThousandLeafChurn:
    def test_churned_session_degrades_gracefully(self):
        config = _big_config()
        plan = _churned(config, rate=2.0)
        epochs = membership_epochs(plan, resolve_cluster(config.cluster))
        assert len(epochs) > 1

        started = time.perf_counter()
        report = run_service(config, dynamics=plan)
        elapsed = time.perf_counter() - started

        # Conservation: every offered request is accounted for exactly
        # once, churn or not.
        assert report.completed + report.shed + report.degraded_shed == (
            report.offered
        )
        assert report.offered > 0
        assert report.epochs == len(epochs)
        # The session survives churn with most work still landing.
        assert report.completed > 0
        assert elapsed < 180.0

    def test_churned_session_is_bit_identical(self):
        config = _big_config(seed=5)
        plan = _churned(config, rate=2.0, seed=5)
        first = run_service(config, dynamics=plan)
        second = run_service(config, dynamics=plan)
        assert first == second
        assert first.latencies == second.latencies
        assert first.slice_completed == second.slice_completed

    def test_every_event_conserves_requests(self):
        config = _big_config()
        report = step_checked(config, _churned(config, rate=2.0))
        assert report.epochs > 1

    def test_zero_churn_matches_static_at_scale(self):
        config = _big_config(seed=2)
        plan = _churned(config, rate=0.0)
        assert run_service(config, dynamics=plan) == run_service(config)
