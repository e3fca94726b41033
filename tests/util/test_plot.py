"""Tests for the ASCII line-plot renderer."""

from repro.util import ascii_plot


def simple_series():
    return {
        "a": {2: 1.0, 4: 2.0, 6: 3.0},
        "b": {2: 3.0, 4: 2.0, 6: 1.0},
    }


class TestAsciiPlot:
    def test_empty_series(self):
        assert "no data" in ascii_plot({})
        assert "no data" in ascii_plot({"a": {}})

    def test_title_and_legend(self):
        out = ascii_plot(simple_series(), title="demo")
        assert out.startswith("demo")
        assert "*=a" in out
        assert "o=b" in out

    def test_markers_present(self):
        out = ascii_plot(simple_series())
        assert out.count("*") >= 3  # three points for series a
        assert out.count("o") >= 3

    def test_axis_labels(self):
        out = ascii_plot(simple_series(), x_name="p", y_name="factor")
        assert "p" in out
        assert "factor" in out

    def test_x_ticks_rendered(self):
        out = ascii_plot(simple_series())
        for tick in ("2", "4", "6"):
            assert tick in out

    def test_y_range_labels(self):
        out = ascii_plot(simple_series())
        # Headroom-padded bounds around [1, 3].
        assert "3." in out
        assert "0.9" in out

    def test_rows_match_height(self):
        out = ascii_plot(simple_series(), height=10, title="")
        body_rows = [line for line in out.splitlines() if "|" in line]
        assert len(body_rows) == 10

    def test_width_respected(self):
        out = ascii_plot(simple_series(), width=30)
        body_row = next(line for line in out.splitlines() if "|" in line)
        inner = body_row.split("|")[1]
        assert len(inner) == 30

    def test_monotone_series_monotone_rows(self):
        """An increasing series' markers must appear at decreasing row
        indices (up the plot)."""
        out = ascii_plot({"up": {1: 1.0, 2: 2.0, 3: 3.0}}, height=12, title="")
        rows_with_marker = [
            i for i, line in enumerate(out.splitlines()) if "*" in line
        ]
        assert rows_with_marker == sorted(rows_with_marker)
        # Leftmost marker is in a later (lower) row than the rightmost.
        lines = out.splitlines()
        first_cols = [line.find("*") for line in lines if "*" in line]
        assert first_cols[0] > first_cols[-1]

    def test_flat_series_handled(self):
        out = ascii_plot({"flat": {1: 2.0, 2: 2.0}})
        assert "*" in out

    def test_single_point(self):
        out = ascii_plot({"dot": {5: 1.5}})
        assert "*" in out

    def test_nan_points_skipped(self):
        out = ascii_plot({"a": {1: 1.0, 2: float("nan"), 3: 2.0}})
        assert "*" in out


class TestReportPlotIntegration:
    def test_report_render_plot(self):
        from repro.experiments import ExperimentReport

        report = ExperimentReport(
            experiment_id="demo",
            title="Demo",
            x_name="p",
            series={"s": {2: 1.0, 4: 1.5}},
            notes=["a note"],
        )
        out = report.render(plot=True)
        assert "[demo]" in out
        assert "|" in out  # plot frame
        assert "a note" in out
