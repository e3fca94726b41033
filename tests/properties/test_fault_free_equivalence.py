"""The central fault-injection guarantee: an *empty* plan is a no-op.

Attaching an injector with an empty :class:`~repro.faults.FaultPlan`
must reproduce the fault-free simulation **bit-for-bit** — same
makespans, same traces — on every preset machine.  This is what makes
robustness experiments comparable against the paper's fault-free
figures: the baseline series *is* the original experiment.

Also covered: the determinism contract — same (plan, seed) pairs give
identical makespans.
"""

import pytest

from repro.cli import build_preset
from repro.collectives import run_broadcast, run_gather
from repro.faults import DeliveryPolicy, FaultPlan, flaky_network_plan, straggler_plan
from repro.obs import observe

#: Every preset family, at small sizes so the sweep stays fast.
PRESET_SPECS = [
    "testbed:4",
    "flat:4",
    "fig1",
    "two-lans:2",
    "multi-lan:2",
    "grid",
    "deep:2",
]

N = 2560  # 10 KB of int32 items


def _run(collective, topology, **kwargs):
    """The run and its spans, group aside: ``(outcome, spans)``."""
    runner = run_gather if collective == "gather" else run_broadcast
    with observe(spans=True) as observation:
        outcome = runner(topology, N, seed=1, **kwargs)
    spans = [
        (s.category, s.name, s.actor, s.start, s.end, s.args)
        for s in observation.tracer.spans
    ]
    return outcome, spans


class TestEmptyPlanIsBitIdentical:
    @pytest.mark.parametrize("preset", PRESET_SPECS)
    @pytest.mark.parametrize("collective", ["gather", "broadcast"])
    def test_makespan_and_trace_identical(self, preset, collective):
        topology = build_preset(preset)
        bare, bare_spans = _run(collective, topology)
        empty, empty_spans = _run(collective, topology, faults=FaultPlan.empty())
        assert empty.time == bare.time  # bit-identical, not approx
        assert empty_spans == bare_spans and bare_spans
        assert empty.result.values == bare.result.values

    def test_empty_plan_attaches_a_real_injector(self):
        # The guarantee is about an *attached* injector being inert,
        # not about skipping attachment.
        outcome, _ = _run("gather", build_preset("testbed:4"), faults=FaultPlan.empty())
        assert outcome.runtime.vm.injector is not None


class TestSameSeedSamePlan:
    @pytest.mark.parametrize("plan_name", ["straggler", "flaky"])
    def test_identical_hbsp_result_time(self, plan_name):
        topology = build_preset("testbed:4")
        if plan_name == "straggler":
            plan = straggler_plan(topology.machines[0].name, factor=4.0)
            delivery = None
        else:
            plan = flaky_network_plan(drop_prob=0.05, delay_prob=0.1,
                                      delay_mean=2e-3)
            delivery = DeliveryPolicy.retry(3, timeout=0.05)
        results = [
            run_gather(topology, N, seed=2, faults=plan, delivery=delivery).result
            for _ in range(2)
        ]
        assert results[0].time == results[1].time

    def test_different_seed_flaky_differs(self):
        topology = build_preset("testbed:4")
        plan = flaky_network_plan(drop_prob=0.2, delay_prob=0.3, delay_mean=2e-3)
        delivery = DeliveryPolicy.retry(3, timeout=0.05)
        a = run_gather(topology, N, seed=1, faults=plan, delivery=delivery).time
        b = run_gather(topology, N, seed=2, faults=plan, delivery=delivery).time
        assert a != b
