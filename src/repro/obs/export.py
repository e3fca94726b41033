"""Exporters: Chrome trace-event JSON, Prometheus text, summary table.

* :func:`chrome_trace` — the ``trace_event`` JSON format understood by
  ``chrome://tracing`` and https://ui.perfetto.dev: one trace *process*
  per span group (one simulated run), one *thread* per actor (one track
  per machine), complete ("X") events with microsecond timestamps.
* :func:`prometheus_text` — the Prometheus text exposition format
  (``# HELP``/``# TYPE`` + samples; histograms expand to cumulative
  ``_bucket``/``_sum``/``_count`` series).
* :func:`summary` — a plain-text roll-up: headline counters plus the
  per-superstep predicted-vs-simulated ledger across observed runs.
* :func:`gantt` — an ASCII Gantt chart of message-timing spans, one
  row per machine (``repro run --gantt``).

All four are pure functions of their input and emit
deterministic output (sorted metric families, first-seen span order),
so cold- and warm-cache runs export byte-identical text.
"""

from __future__ import annotations

import json
import math
import typing as t

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, Tracer

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.observe import Observation

__all__ = ["chrome_trace", "gantt", "prometheus_text", "runs_json", "summary"]


# -- Chrome trace_event -------------------------------------------------------
def chrome_trace(tracer: Tracer) -> str:
    """Serialise a tracer's spans as Chrome ``trace_event`` JSON."""
    events: list[dict[str, t.Any]] = []
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    for span in tracer.spans:
        pid = pids.get(span.group)
        if pid is None:
            pid = pids[span.group] = len(pids) + 1
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": tracer.group_labels.get(span.group, span.group)},
            })
        track = (span.group, span.actor)
        tid = tids.get(track)
        if tid is None:
            tid = tids[track] = sum(1 for g, _ in tids if g == span.group) + 1
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": span.actor},
            })
        end = span.start if span.end is None else span.end
        event: dict[str, t.Any] = {
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": (end - span.start) * 1e6,
            "pid": pid,
            "tid": tid,
        }
        if span.args:
            event["args"] = {key: _jsonable(value) for key, value in span.args.items()}
        events.append(event)
    return json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}, separators=(",", ":")
    )


def _jsonable(value: t.Any) -> t.Any:
    """Coerce span args to JSON-safe values (trace viewers are strict)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


# -- Prometheus text exposition ----------------------------------------------
def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_text(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape_label(value)}"' for key, value in labels)
    return "{" + inner + "}"


def _sample_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def _le_text(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else repr(bound)


def prometheus_text(metrics: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for name, mtype, help_text in metrics.families():
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {mtype}")
        if mtype == "histogram":
            samples = sorted(
                (labels, hist)
                for (sample_name, labels), hist in metrics.histograms.items()
                if sample_name == name
            )
            for labels, hist in samples:
                for bound, cumulative in hist.cumulative():
                    bucket_labels = (*labels, ("le", _le_text(bound)))
                    lines.append(
                        f"{name}_bucket{_label_text(bucket_labels)} {cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_label_text(labels)} {_sample_value(hist.total)}"
                )
                lines.append(f"{name}_count{_label_text(labels)} {hist.count}")
            continue
        store = metrics.counters if mtype == "counter" else metrics.gauges
        for (sample_name, labels), value in sorted(store.items()):
            if sample_name == name:
                lines.append(f"{name}{_label_text(labels)} {_sample_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


# -- run records (calibration input) -----------------------------------------
def runs_json(observation: "Observation", *, indent: int | None = None) -> str:
    """Serialise the observation's run records as calibration input.

    One :class:`~repro.obs.accounting.RunObs` JSON object per observed
    run, in observation order — exactly what ``repro calibrate --fit``
    and :func:`repro.calib.load_runs` consume.
    """
    return json.dumps(
        {
            "schema": "repro.obs.runs/1",
            "runs": [ledger.run.to_jsonable() for ledger in observation.ledgers],
        },
        indent=indent,
        separators=None if indent else (",", ":"),
    )


# -- plain-text summary -------------------------------------------------------
def summary(observation: "Observation", *, max_rows: int = 40) -> str:
    """Headline counters + the joined per-superstep ledger table."""
    from repro.util.tables import AsciiTable

    metrics = observation.metrics
    runs = int(metrics.value("repro_runs_total"))
    supersteps = int(metrics.value("repro_supersteps_total"))
    simulated = metrics.value("repro_simulated_seconds_total")
    parts = [
        "== observability summary ==",
        f"runs: {runs}   supersteps: {supersteps}   "
        f"simulated: {simulated:.6g}s   spans: {len(observation.tracer)}",
    ]
    if metrics.counters:
        counter_table = AsciiTable("counters", ["metric", "value"])
        for (name, labels), value in sorted(metrics.counters.items()):
            label_text = _label_text(labels)
            counter_table.add_row([f"{name}{label_text}", f"{value:g}"])
        parts.append(counter_table.render())
    ledger_rows = [
        (ledger, row) for ledger in observation.ledgers for row in ledger.rows
    ]
    if ledger_rows:
        table = AsciiTable(
            "per-superstep ledger (simulated vs predicted)",
            ["run", "step", "level", "predicted", "simulated", "sim/pred",
             "critical machine"],
        )
        for ledger, row in ledger_rows[:max_rows]:
            table.add_row([
                _truncate(ledger.run.name, 36),
                f"{row.step}: {_truncate(row.label, 28)}",
                "" if row.level is None else row.level,
                "" if row.predicted is None else f"{row.predicted:.6g}",
                f"{row.simulated:.6g}",
                "" if row.ratio is None else f"{row.ratio:.4g}",
                "" if row.critical is None else row.critical.machine,
            ])
        parts.append(table.render())
        if len(ledger_rows) > max_rows:
            parts.append(
                f"({len(ledger_rows) - max_rows} more superstep row(s) "
                f"across {len(observation.ledgers)} run(s) not shown)"
            )
        divergences = [
            ledger.divergence
            for ledger in observation.ledgers
            if ledger.divergence is not None and math.isfinite(ledger.divergence)
        ]
        if divergences:
            ordered = sorted(divergences)
            median = ordered[len(ordered) // 2]
            parts.append(
                f"divergence (sim/pred) over {len(divergences)} predicted "
                f"run(s): min {ordered[0]:.4g}, median {median:.4g}, "
                f"max {ordered[-1]:.4g}"
            )
    return "\n".join(parts)


def _truncate(text: str, limit: int) -> str:
    return text if len(text) <= limit else text[: limit - 1] + "…"


# -- ASCII Gantt chart --------------------------------------------------------
def gantt(
    spans: t.Iterable[Span],
    *,
    width: int = 72,
    categories: t.Sequence[str] = ("compute", "pack", "inject", "drain", "unpack"),
    actors: t.Sequence[str] | None = None,
) -> str:
    """Render an ASCII Gantt chart of closed spans per actor.

    Each actor gets one row of ``width`` character cells spanning
    [0, makespan]; a cell shows the first letter of the category
    that occupied most of its time slice (``.`` for idle).  Useful
    for eyeballing where a collective's time goes — e.g. the root's
    solid run of ``d``/``u`` cells during a gather.  ``actors`` fixes
    the rows and their order (default: every actor seen, sorted).
    """
    intervals = [
        s for s in spans
        if s.end is not None and s.end > s.start and s.category in categories
    ]
    horizon = max((s.end for s in intervals), default=0.0)
    if horizon <= 0:
        return "(no traced intervals)"
    if actors is None:
        actors = sorted({s.actor for s in intervals})
    rows = [f"gantt [0 .. {horizon:.6g}s], cell = {horizon / width:.3g}s"]
    for actor in actors:
        cells: list[dict[str, float]] = [{} for _ in range(width)]
        for span in intervals:
            if span.actor != actor:
                continue
            lo = int(span.start / horizon * width)
            hi = int(span.end / horizon * width)
            for cell in range(max(0, lo), min(width, hi + 1)):
                overlap = (
                    min(span.end, (cell + 1) * horizon / width)
                    - max(span.start, cell * horizon / width)
                )
                if overlap > 0:
                    cells[cell][span.category] = cells[cell].get(span.category, 0.0) + overlap
        line = "".join(max(cell, key=cell.get)[0] if cell else "." for cell in cells)
        rows.append(f"{actor:>24s} |{line}|")
    rows.append("legend: " + ", ".join(f"{c[0]}={c}" for c in categories) + ", .=idle")
    return "\n".join(rows)
