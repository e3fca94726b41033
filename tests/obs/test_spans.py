"""Span tracing: nesting, timing, and the disabled-tracer no-op.

The structural contract the Chrome-trace exporter relies on: every
(group, actor) track is a well-nested forest of intervals, superstep
spans contain their barrier and phase spans, and all simulated times
land inside the run's makespan.  A disabled tracer must record nothing
and cost nothing observable.
"""

from __future__ import annotations

import json

from repro.cluster.presets import smp_sgi_lan, ucf_testbed
from repro.collectives import run_gather
from repro.obs import NULL_TRACER, Tracer, chrome_trace, collect_run_obs, observe


class TestTracerUnit:
    def test_begin_finish_nests_on_one_track(self):
        tracer = Tracer(clock=lambda: 0.0)
        outer = tracer.begin("a", "outer", group="g", actor="m", start=0.0)
        inner = tracer.begin("a", "inner", group="g", actor="m", start=1.0)
        tracer.finish(inner, 2.0)
        tracer.finish(outer, 3.0)
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.duration == 1.0 and outer.duration == 3.0

    def test_add_parents_under_enclosing_open_span(self):
        tracer = Tracer()
        outer = tracer.begin("a", "outer", group="g", actor="m", start=0.0)
        leaf = tracer.add("b", "leaf", group="g", actor="m", start=0.5, end=0.75)
        assert leaf.parent_id == outer.span_id
        # A span that started before the open one cannot be its child.
        orphan = tracer.add("b", "orphan", group="g", actor="m", start=-1.0, end=-0.5)
        assert orphan.parent_id is None
        tracer.finish(outer, 1.0)

    def test_tracks_are_independent(self):
        tracer = Tracer()
        a = tracer.begin("c", "a", group="g", actor="m1", start=0.0)
        b = tracer.add("c", "b", group="g", actor="m2", start=0.1, end=0.2)
        assert b.parent_id is None
        tracer.finish(a, 1.0)

    def test_span_context_manager_uses_clock(self):
        ticks = iter([10.0, 12.5])
        tracer = Tracer(clock=lambda: next(ticks))
        with tracer.span("harness", "work") as span:
            pass
        assert (span.start, span.end) == (10.0, 12.5)
        assert span.duration == 2.5

    def test_args_and_filter(self):
        tracer = Tracer()
        tracer.add("x", "one", group="g1", actor="m", start=0.0, end=1.0, n=5)
        tracer.add("y", "two", group="g2", actor="m", start=0.0, end=1.0)
        assert tracer.filter("x")[0].args == {"n": 5}
        assert len(tracer.filter(group="g2")) == 1
        assert tracer.groups() == ["g1", "g2"]

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        assert tracer.begin("a", "x", group="g", actor="m", start=0.0) is None
        assert tracer.add("a", "x", group="g", actor="m", start=0.0, end=1.0) is None
        with tracer.span("a", "x") as span:
            assert span is None
        tracer.finish(None, 1.0)
        assert len(tracer) == 0
        assert len(NULL_TRACER) == 0

    def test_wrap_decorator(self):
        tracer = Tracer(clock=lambda: 0.0)

        @tracer.wrap("harness")
        def work() -> int:
            return 7

        assert work() == 7
        assert tracer.spans[0].name == "work"


class TestRunSpans:
    """Span structure of real simulated runs."""

    def _spans_of(self, topology, n=1024):
        with observe(spans=True) as observation:
            outcome = run_gather(topology, n)
        return observation, outcome

    def test_two_level_gather_has_superstep_and_barrier_spans(self):
        observation, outcome = self._spans_of(smp_sgi_lan())
        tracer = observation.tracer
        supersteps = tracer.filter("superstep")
        barriers = tracer.filter("barrier")
        phases = tracer.filter("phase")
        assert supersteps and barriers and phases
        # k=2 gather: every pid syncs twice.
        machines = {s.actor for s in supersteps}
        assert len(machines) == outcome.runtime.nprocs
        for actor in machines:
            assert len([s for s in supersteps if s.actor == actor]) == 2

    def test_barrier_spans_nest_inside_superstep_spans(self):
        observation, _ = self._spans_of(smp_sgi_lan())
        tracer = observation.tracer
        by_id = {s.span_id: s for s in tracer.spans}
        for barrier in tracer.filter("barrier"):
            parent = by_id.get(barrier.parent_id)
            assert parent is not None and parent.category == "superstep"
            assert parent.start <= barrier.start
            assert barrier.end <= parent.end

    def test_span_times_lie_inside_the_makespan(self):
        observation, outcome = self._spans_of(ucf_testbed(4))
        for span in observation.tracer.spans:
            assert 0.0 <= span.start <= span.end <= outcome.time + 1e-12

    def test_all_run_spans_share_one_group_with_label(self):
        observation, outcome = self._spans_of(ucf_testbed(4))
        groups = observation.tracer.groups()
        assert groups == ["run1"]
        assert observation.tracer.group_labels["run1"] == outcome.name

    def test_library_run_records_every_message_timing_span(self):
        """A plain library call under ``observe(spans=True)`` records
        message timing live: one inject and one drain per sent message,
        in a Chrome process named after the run."""
        with observe(spans=True) as observation:
            outcome = run_gather(ucf_testbed(4), 1000, seed=1)
            observation.record_run(collect_run_obs(outcome))
        tracer = observation.tracer
        sent = observation.metrics.counter_sum("repro_messages_sent_total")
        assert sent > 0
        assert len(tracer.filter("inject")) == len(tracer.filter("drain")) == sent
        assert tracer.filter("pack") and tracer.filter("unpack")
        machines = {m.name for m in outcome.runtime.topology.machines}
        assert {s.actor for s in tracer.filter("drain")} <= machines
        process = json.loads(chrome_trace(tracer))["traceEvents"][0]
        assert process["name"] == "process_name"
        assert process["args"]["name"] == outcome.name

    def test_no_observation_means_no_recording(self):
        outcome = run_gather(ucf_testbed(4), 1024)
        assert outcome.runtime.obs_tracer is None
        assert outcome.runtime.engine.obs_tracer is None

    def test_metrics_only_observation_records_no_spans(self):
        with observe() as observation:
            outcome = run_gather(ucf_testbed(4), 1024)
            observation.record_run(collect_run_obs(outcome))
        assert len(observation.tracer) == 0
        assert outcome.runtime.obs_tracer is None
        assert len(observation.ledgers) == 1  # metrics still flow

    def test_observing_never_changes_what_an_experiment_renders(self):
        from repro.experiments import run_experiment

        unobserved = run_experiment("fig3a").render()
        with observe() as metered:
            with_metrics = run_experiment("fig3a").render()
        with observe(spans=True) as traced:
            with_spans = run_experiment("fig3a").render()
        assert metered.ledgers and len(traced.tracer) > 0  # both really observed
        assert with_metrics == unobserved
        assert with_spans == unobserved
