"""Acceptance property: empty/absent dynamic plans are exact no-ops.

The tentpole guarantee of ``repro.dynamics`` is that *carrying* the
machinery costs nothing: a session handed ``dynamics=None``,
``DynamicPlan.empty()``, or a zero-rate ``churn_plan`` must be
bit-identical — every float in the report, not approximately equal —
to one that never heard of dynamics.  Hypothesis drives seeds and
offered rates so the property holds across sessions, not just the
default one.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics import DynamicPlan, churn_plan
from repro.serve import default_config, run_service


def _session(seed: int, rate: float):
    config = dataclasses.replace(default_config(), duration=2.0, seed=seed)
    return dataclasses.replace(
        config, arrival=dataclasses.replace(config.arrival, rate=rate)
    )


class TestServeNoOpPlans:
    @given(seed=st.integers(0, 2**16), rate=st.sampled_from([2.0, 8.0, 32.0]))
    @settings(max_examples=6, deadline=None)
    def test_empty_plan_is_bit_identical(self, seed, rate):
        config = _session(seed, rate)
        baseline = run_service(config)
        as_none = run_service(config, dynamics=None)
        as_empty = run_service(config, dynamics=DynamicPlan.empty())
        as_zero_churn = run_service(
            config,
            dynamics=churn_plan(["lan0-m0"], rate=0.0, duration=config.duration),
        )
        assert as_none == baseline
        assert as_empty == baseline
        assert as_zero_churn == baseline
        assert as_empty.to_jsonable() == baseline.to_jsonable()

    def test_empty_plan_report_is_static(self):
        report = run_service(_session(0, 4.0), dynamics=DynamicPlan.empty())
        assert report.epochs == 1
        assert report.redispatched == 0
        assert report.degraded == 0
        assert report.degraded_shed == 0
