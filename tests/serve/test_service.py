"""Tests for slicing, the cost model, and the serving loop itself."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.obs import observe
from repro.serve import (
    StageCostModel,
    carve_slices,
    default_config,
    percentile,
    pick_slice,
    run_service,
)
from repro.serve.placement import rank_slices
from repro.serve.service import resolve_cluster


def _with_policy(config, **kwargs):
    return dataclasses.replace(
        config, policy=dataclasses.replace(config.policy, **kwargs)
    )


def _with_rate(config, rate):
    return dataclasses.replace(
        config, arrival=dataclasses.replace(config.arrival, rate=rate)
    )


class TestPlacement:
    def test_two_lans_carves_two_slices(self):
        topology = resolve_cluster("two-lans:3")
        slices = carve_slices(topology, "subtrees")
        assert len(slices) == 2
        assert all(s.topology.num_machines == 3 for s in slices)
        assert all(s.capacity > 0 for s in slices)

    def test_whole_placement_is_one_slice(self):
        topology = resolve_cluster("two-lans:3")
        (whole,) = carve_slices(topology, "whole")
        assert whole.topology.num_machines == 6

    def test_flat_cluster_degenerates_to_whole(self):
        # flat's root holds bare machines -> >= 2 children, each its
        # own singleton slice; testbed with one LAN child degenerates.
        topology = resolve_cluster("flat:4")
        slices = carve_slices(topology, "subtrees")
        assert len(slices) in (1, 4)

    def test_pick_slice_prefers_cheapest_then_capacity(self):
        topology = resolve_cluster("two-lans:3")
        slices = carve_slices(topology, "subtrees")
        assert pick_slice([0, 1], [1.0, 2.0], slices) == 0
        assert pick_slice([0, 1], [2.0, 1.0], slices) == 1
        # Equal costs: higher capacity wins, then lower index.
        tie = pick_slice([0, 1], [1.0, 1.0], slices)
        best = max(range(2), key=lambda j: (slices[j].capacity, -j))
        assert tie == best

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_ranked_pick_equals_pick_slice(self, data):
        # The dispatcher ranks every live slice once per (kind, batch)
        # and takes the first idle one; that must be pick_slice over
        # the idle ones, ties (few distinct costs/capacities) included.
        base = carve_slices(resolve_cluster("two-lans:3"), "subtrees")[0]
        n = data.draw(st.integers(min_value=1, max_value=6))
        costs = data.draw(st.lists(st.sampled_from((1.0, 2.0, 3.0)), min_size=n, max_size=n))
        capacities = data.draw(st.lists(st.sampled_from((1.0, 2.0)), min_size=n, max_size=n))
        idle = data.draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
        slices = [base._replace(index=j, capacity=c) for j, c in enumerate(capacities)]
        ranking = rank_slices([(j, j) for j in range(n)], costs, slices)
        ranked = next(j for j, _ in ranking if idle[j])
        assert ranked == pick_slice([j for j in range(n) if idle[j]], costs, slices)

    def test_pick_slice_needs_an_idle_slice(self):
        topology = resolve_cluster("two-lans:3")
        slices = carve_slices(topology, "subtrees")
        with pytest.raises(ServeError, match="idle"):
            pick_slice([], [1.0, 1.0], slices)


class TestStageCostModel:
    def test_universe_covers_all_shapes(self):
        config = default_config()
        slices = carve_slices(
            resolve_cluster(config.cluster), config.policy.placement
        )
        model = StageCostModel(config, slices)
        stages = sum(len(kind.stages) for kind in config.workload)
        expected = stages * len(slices) * config.policy.max_batch
        assert len(model.universe()) == expected
        assert len(model.jobs()) == expected

    def test_prewarm_fills_every_key_and_is_idempotent(self):
        config = default_config()
        slices = carve_slices(
            resolve_cluster(config.cluster), config.policy.placement
        )
        model = StageCostModel(config, slices)
        first = model.prewarm()
        assert first == len(model.universe())
        assert model.prewarm() == 0
        for key in model.universe():
            assert model.stage_cost(key) > 0

    def test_batching_costs_less_than_separate_requests(self):
        # One batch of 4 simulates fewer supersteps than 4 singletons.
        config = default_config()
        slices = carve_slices(
            resolve_cluster(config.cluster), config.policy.placement
        )
        model = StageCostModel(config, slices)
        model.prewarm()
        one = model.request_costs(0, 1)[0]
        four = model.request_costs(0, 4)[0]
        assert one < four < 4 * one


class TestRunService:
    def test_session_completes_everything_at_low_load(self):
        report = run_service(default_config(seed=0, duration=20.0, rate=1.0))
        assert report.offered > 0
        assert report.completed == report.admitted == report.offered
        assert report.shed == 0
        assert len(report.latencies) == report.completed
        assert report.latency_p99 >= report.latency_p50 > 0

    def test_overload_sheds_and_keeps_queue_bounded(self):
        config = _with_policy(
            _with_rate(default_config(seed=0, duration=20.0), 500.0),
            queue_limit=8,
        )
        report = run_service(config)
        assert report.shed > 0
        assert report.queue_depth_max <= 8
        assert report.completed + report.shed <= report.offered

    def test_unbounded_queue_never_sheds(self):
        config = _with_policy(
            _with_rate(default_config(seed=0, duration=10.0), 100.0),
            queue_limit=None,
        )
        report = run_service(config)
        assert report.shed == 0
        assert report.completed == report.offered

    def test_batching_reduces_batch_count(self):
        # Load far past saturation so the queue actually holds
        # same-kind neighbours for the dispatcher to coalesce.
        base = _with_rate(default_config(seed=0, duration=10.0), 400.0)
        batched = run_service(_with_policy(base, max_batch=4, queue_limit=None))
        single = run_service(_with_policy(base, max_batch=1, queue_limit=None))
        assert batched.completed == single.completed
        assert batched.batches < single.batches
        assert batched.makespan < single.makespan

    def test_both_slices_absorb_work_under_load(self):
        report = run_service(default_config(seed=0, duration=20.0, rate=30.0))
        assert all(count > 0 for count in report.slice_completed)
        assert sum(report.slice_completed) == report.completed

    def test_slo_goodput_counts_conformant_only(self):
        config = default_config(seed=0, duration=20.0, rate=2.0)
        with_slo = _with_policy(config, slo=1e-6)  # nothing conforms
        assert run_service(with_slo).goodput == 0.0
        without = run_service(config)
        assert without.goodput == pytest.approx(
            without.completed / config.duration
        )

    def test_shared_cost_model_rejects_mismatched_config(self):
        config = default_config(seed=0, duration=10.0)
        slices = carve_slices(
            resolve_cluster(config.cluster), config.policy.placement
        )
        model = StageCostModel(config, slices)
        other = default_config(seed=1, duration=10.0)
        with pytest.raises(ServeError, match="different session shape"):
            run_service(other, costs=model)

    def test_shared_cost_model_allows_arrival_changes(self):
        config = default_config(seed=0, duration=10.0)
        slices = carve_slices(
            resolve_cluster(config.cluster), config.policy.placement
        )
        model = StageCostModel(config, slices)
        report = run_service(_with_rate(config, 8.0), costs=model)
        assert report.completed > 0

    def test_report_renders_and_dumps(self):
        report = run_service(default_config(seed=0, duration=10.0))
        text = report.render()
        assert "serving session on two-lans:3" in text
        assert "goodput" in text
        data = report.to_jsonable()
        assert data["completed"] == report.completed
        import json

        json.dumps(data)  # must be JSON-serialisable as-is


class TestObservability:
    def test_metrics_emitted(self):
        with observe() as observation:
            report = run_service(default_config(seed=0, duration=10.0))
        metrics = observation.metrics
        assert metrics.counter_sum("repro_serve_requests_total") == report.offered
        assert metrics.counter_sum("repro_serve_completed_total") == report.completed
        assert metrics.counter_sum("repro_serve_batches_total") == report.batches
        (histogram,) = [
            state for (name, _), state in metrics.histograms.items()
            if name == "repro_serve_latency_seconds"
        ]
        assert histogram.count == report.completed

    def test_spans_one_per_request(self):
        with observe(spans=True) as observation:
            report = run_service(default_config(seed=0, duration=10.0))
        serve_spans = [
            span for span in observation.tracer.spans
            if span.category == "serve"
        ]
        assert len(serve_spans) == report.completed
        assert all(span.end >= span.start for span in serve_spans)


class TestPercentile:
    def test_nearest_rank(self):
        values = [0.1, 0.2, 0.3, 0.4]
        assert percentile(values, 0.50) == 0.2
        assert percentile(values, 0.99) == 0.4
        assert percentile(values, 1.0) == 0.4
        assert percentile([], 0.5) == 0.0

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestServeExperiment:
    def test_registered_and_runs_small(self):
        from repro.experiments import EXPERIMENTS
        from repro.experiments.serving import serving_curves

        assert EXPERIMENTS["serve"] is serving_curves
        report = serving_curves(rates=(2.0, 8.0), seed=0)
        assert report.experiment_id == "serve"
        goodput = report.series["goodput (req/s)"]
        assert set(goodput) == {2.0, 8.0}
        assert goodput[8.0] > goodput[2.0]

    def test_default_curve_climbs_to_its_knee_and_holds_reference_p99(self):
        """Open-loop serving that loses goodput *before* saturating means
        admission control or placement regressed; both numbers are
        simulated, so the same on any host."""
        from repro.experiments.serving import serving_curves

        report = serving_curves()
        goodput = list(report.series["goodput (req/s)"].values())
        to_knee = goodput[: goodput.index(max(goodput)) + 1]
        assert to_knee == sorted(to_knee)
        assert len(to_knee) > 1  # the sweep reaches past rates[0]
        assert report.series["p99 latency (s)"][8.0] <= 0.6  # 0.29 today
