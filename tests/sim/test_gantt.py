"""Tests for the ASCII Gantt renderer (``repro.obs.gantt``)."""

from repro.obs import Tracer, gantt


def make_spans():
    tracer = Tracer()
    # actor "a": compute [0, 1], pack [1, 1.5]
    tracer.add("compute", "compute", group="g", actor="a", start=0.0, end=1.0)
    tracer.add("pack", "pack", group="g", actor="a", start=1.0, end=1.5)
    # actor "b": drain [0.5, 2.0]
    tracer.add("drain", "drain", group="g", actor="b", start=0.5, end=2.0)
    return tracer.spans


class TestGantt:
    def test_empty_trace(self):
        assert "no traced intervals" in gantt([])

    def test_rows_per_actor(self):
        out = gantt(make_spans(), width=20)
        lines = out.splitlines()
        assert any(line.strip().startswith("a |") for line in lines)
        assert any(line.strip().startswith("b |") for line in lines)

    def test_legend_present(self):
        assert "legend:" in gantt(make_spans())

    def test_cells_show_dominant_category(self):
        out = gantt(make_spans(), width=20)
        row_a = next(l for l in out.splitlines() if l.strip().startswith("a |"))
        cells = row_a.split("|")[1]
        # First half of actor a's row is compute.
        assert cells[0] == "c"
        assert "p" in cells

    def test_idle_is_dot(self):
        out = gantt(make_spans(), width=20)
        row_a = next(l for l in out.splitlines() if l.strip().startswith("a |"))
        cells = row_a.split("|")[1]
        assert cells[-1] == "."  # a is idle at the end

    def test_actor_filter(self):
        out = gantt(make_spans(), width=20, actors=["a"])
        assert " b |" not in out

    def test_category_filter(self):
        out = gantt(make_spans(), width=20, categories=("compute",))
        row_a = next(l for l in out.splitlines() if l.strip().startswith("a |"))
        assert "p" not in row_a.split("|")[1]

    def test_point_events_ignored(self):
        tracer = Tracer()
        tracer.add("compute", "compute", group="g", actor="a", start=1.0, end=1.0)
        tracer.begin("compute", "open", group="g", actor="a", start=0.0)  # never closed
        assert "no traced intervals" in gantt(tracer.spans)

    def test_row_width_respected(self):
        out = gantt(make_spans(), width=33)
        row_a = next(l for l in out.splitlines() if l.strip().startswith("a |"))
        assert len(row_a.split("|")[1]) == 33

    def test_gather_root_shows_drain_run(self):
        """Integration: the gather root's row (its machine) is dominated by drains."""
        from repro.cluster import ucf_testbed
        from repro.collectives import run_gather
        from repro.obs import observe

        with observe(spans=True) as observation:
            outcome = run_gather(ucf_testbed(5), 100_000)
        root = outcome.runtime.topology.machines[outcome.runtime.fastest_pid].name
        out = gantt(observation.tracer, width=50, actors=[root])
        cells = out.splitlines()[1].split("|")[1]
        assert cells.count("d") > 20
