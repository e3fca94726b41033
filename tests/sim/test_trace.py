"""The simulator's one timeline recorder: the span tracer's record/query
surface that message timing (pack/inject/drain/unpack/compute) uses."""

from repro.obs import Tracer


def add(tracer, category, actor, start, end, **args):
    return tracer.add(category, category, group="run1", actor=actor,
                      start=start, end=end, **args)


class TestTrace:
    def test_disabled_is_noop(self):
        tracer = Tracer(enabled=False)
        add(tracer, "compute", "m0", 0.5, 1.0)
        assert len(tracer) == 0

    def test_emit_records(self):
        tracer = Tracer()
        add(tracer, "compute", "m0", 0.5, 1.0, work=100)
        assert len(tracer) == 1
        span = tracer.spans[0]
        assert span.end == 1.0
        assert span.category == "compute"
        assert span.actor == "m0"
        assert span.duration == 0.5
        assert span.args["work"] == 100

    def test_filter_by_category(self):
        tracer = Tracer()
        add(tracer, "pack", "a", 0.9, 1.0)
        add(tracer, "drain", "b", 1.8, 2.0)
        add(tracer, "pack", "b", 2.7, 3.0)
        assert len(tracer.filter("pack")) == 2
        assert len(tracer.filter("drain")) == 1

    def test_filter_by_actor(self):
        tracer = Tracer()
        add(tracer, "pack", "a", 0.9, 1.0)
        add(tracer, "pack", "b", 1.8, 2.0)
        assert len(tracer.filter(actor="a")) == 1

    def test_filter_both(self):
        tracer = Tracer()
        add(tracer, "pack", "a", 0.9, 1.0)
        add(tracer, "drain", "a", 1.8, 2.0)
        assert len(tracer.filter("pack", actor="a")) == 1

    def test_iterable(self):
        tracer = Tracer()
        add(tracer, "x", "a", 1.0, 1.0)
        assert [s.category for s in tracer] == ["x"]

    def test_point_events_have_zero_duration(self):
        tracer = Tracer()
        add(tracer, "mark", "a", 1.0, 1.0)
        assert tracer.spans[0].duration == 0.0
