"""ServeSession: request conservation at every event, pinned export bytes.

Three sessions cover every way a request leaves the queue: an
overloaded static session (admission sheds), a churned session whose
small ``max_redispatch`` sheds interrupted batches as degraded, and a
plan where every machine leaves for good (the backlog is shed as
degraded).
"""

import dataclasses
import hashlib

import pytest

from repro.dynamics import DynamicPlan, MachineLeave, churn_plan
from repro.obs import observe
from repro.obs.export import chrome_trace, prometheus_text
from repro.serve import ServeSession, default_config, run_service
from repro.serve.service import resolve_cluster


def _names(config):
    return [m.name for m in resolve_cluster(config.cluster).machines]


def _overloaded():
    return default_config(seed=1, duration=5.0, rate=1000.0), None


def _churned_small_retry():
    config = default_config(seed=1, duration=5.0, rate=400.0)
    config = dataclasses.replace(
        config, policy=dataclasses.replace(config.policy, max_redispatch=1)
    )
    plan = churn_plan(_names(config), rate=20.0, duration=config.duration, seed=3)
    return config, plan


def _all_leave():
    config = default_config(seed=1, duration=5.0)
    plan = DynamicPlan([MachineLeave(n, start=1e-9) for n in _names(config)])
    return config, plan


SESSIONS = {
    "overloaded": _overloaded,
    "churned": _churned_small_retry,
    "all_leave": _all_leave,
}


def step_checked(config, plan):
    """Play a session one event at a time, checking conservation."""
    session = ServeSession(config, dynamics=plan)
    max_batch = config.policy.max_batch
    events = 0
    while session.step():
        events += 1
        busy = session.idle.count(False)
        in_flight = session.in_flight()
        assert 0 <= in_flight <= busy * max_batch
        assert (in_flight == 0) == (busy == 0)
    report = session.run()
    assert events > 0
    assert report.offered == report.completed + report.shed + report.degraded_shed
    assert report.admitted == report.offered - report.shed
    return report


class TestConservation:
    @pytest.mark.parametrize("name", sorted(SESSIONS))
    def test_every_event_conserves_requests(self, name):
        config, plan = SESSIONS[name]()
        report = step_checked(config, plan)
        assert report == run_service(config, dynamics=plan)

    def test_sessions_reach_every_exit(self):
        reports = {}
        for name, make in SESSIONS.items():
            config, plan = make()
            reports[name] = run_service(config, dynamics=plan)
        assert reports["overloaded"].shed > 0
        churned = reports["churned"]
        assert churned.redispatched > 0 and churned.degraded_shed > 0
        gone = reports["all_leave"]
        assert gone.completed == 0 and gone.degraded_shed == gone.admitted > 0


#: sha256 of ``prometheus_text`` and ``chrome_trace`` for each session
#: under ``observe(spans=True)``, taken from the closure-nest loop that
#: ServeSession replaced; folding the counters in at the end must not
#: move a byte.
EXPORT_SHA256 = {
    "overloaded": (
        "5cdae6ee902b8206654a4219d793a1bf6ffdd7aa623e464aa9273ec2ec5cdd15",
        "086aa8191b1056212174b0183f7b760c2e021a739ae9b91ba6b52e8cd679074c",
    ),
    "churned": (
        "d9d31dd13637dd59cda101b5ce482d9d45ec149a991bbaba13f966b234f9e1fa",
        "b7f9cde7c31d7ffec167bd0d7dfd308f6f7710770ce5e5e138785c9f27cd7803",
    ),
    "all_leave": (
        "a711a36353903c3c560965f021d171f509765708fcff46e90dd520016566f4f4",
        "cb69184a7cf0f37ba1bedce8a8498f15a5e7afc1c388e8b095d87172100c1979",
    ),
}


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_export_bytes_are_pinned(name):
    config, plan = SESSIONS[name]()
    with observe(spans=True) as observation:
        run_service(config, dynamics=plan)
    digests = tuple(
        hashlib.sha256(text.encode()).hexdigest()
        for text in (
            prometheus_text(observation.metrics),
            chrome_trace(observation.tracer),
        )
    )
    assert digests == EXPORT_SHA256[name]
