"""Per-layer metrics every workload shares, read off the traced rounds.

Counts are per traced round (every round runs the same ops on the same
inputs, so the quotient is exact); times are host seconds per traced
round.  Workload-specific ratios and probes are added by the
workload's own ``layer_metrics``.
"""

from __future__ import annotations

import dataclasses
import statistics
import typing as t

from bench.spec import EXPERIMENT_IDS

__all__ = ["LayerContext", "common_layer_metrics"]


@dataclasses.dataclass
class LayerContext:
    """The traced pass as the metric code sees it."""

    tracer: t.Any
    rounds: int  # traced rounds
    untraced_p50: float  # median untraced round of the same pass, seconds

    def __post_init__(self) -> None:
        self.summary = self.tracer.summary()

    def total(self, *names: str) -> float:
        """Seconds per round inside the named spans."""
        return sum(self.summary.get(n, {}).get("total_s", 0.0) for n in names) / self.rounds

    def self_s(self, *names: str) -> float:
        """Self seconds per round of the named spans."""
        return sum(self.summary.get(n, {}).get("self_s", 0.0) for n in names) / self.rounds

    def count(self, name: str) -> float:
        """A hook counter, per round."""
        return self.tracer.counters.get(name, 0) / self.rounds

    def op(self, name: str) -> float:
        """Median seconds of one op over the traced rounds."""
        return statistics.median(self.tracer.durations(f"op:{name}"))

    def under(self, ancestor: str, *span_names: str) -> list[float]:
        """Durations of the named spans that ran inside an ``ancestor`` span."""
        return [
            seconds
            for span_name in span_names
            for seconds in self.tracer.durations(span_name, under=ancestor)
        ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def common_layer_metrics(ctx: LayerContext) -> dict[str, float]:
    """Metrics read from the spans and boundary counters alone."""
    engine_s = ctx.total("Engine.run", "Engine.run_until")
    events = ctx.count("sim.engine.events")
    messages = ctx.count("pvm.messages")
    submitted = ctx.count("perf.jobs_submitted")
    metrics = {
        "sim.engine.events": events,
        "sim.engine.run_s": engine_s,
        "sim.engine.events_per_s": _ratio(events, engine_s),
        "sim.macro.engaged_frac": _ratio(
            ctx.count("sim.macro.runs"), ctx.count("sim.macro.eligible")
        ),
        "sim.macro.boundary_events": ctx.count("sim.macro.boundary_events"),
        "pvm.messages": messages,
        "pvm.bytes": ctx.count("pvm.bytes"),
        "pvm.msgs_per_s": _ratio(messages, ctx.total("HbspRuntime.run")),
        "hbsplib.supersteps": ctx.count("hbsplib.supersteps"),
        "hbsplib.make_runtime_s": ctx.self_s("make_runtime"),
        "hbsplib.run_self_s": ctx.self_s("HbspRuntime.run"),
        "collectives.gather_self_s": ctx.self_s("run_gather"),
        "collectives.broadcast_self_s": ctx.self_s("run_broadcast"),
        "collectives.plan_runs": ctx.count("collectives.plan_runs"),
        "model.plans_priced": ctx.count("model.plans_priced"),
        "perf.jobs_submitted": submitted,
        "perf.jobs_computed": ctx.count("perf.jobs_computed"),
        "perf.memo_hits": ctx.count("perf.memo_hits"),
        "perf.disk_hits": ctx.count("perf.disk_hits"),
        "perf.hit_ratio": _ratio(
            ctx.count("perf.memo_hits") + ctx.count("perf.disk_hits"), submitted
        ),
        "perf.hash_s": ctx.total("SimJob.content_hash"),
        "perf.evaluate_self_s": ctx.self_s("SweepExecutor.evaluate"),
        "perf.disk_get_s": ctx.total("DiskCache.get"),
        "perf.disk_put_s": ctx.total("DiskCache.put"),
        "experiments.render_s": ctx.total("ExperimentReport.render"),
    }
    for name in ("pvm.send_retries", "pvm.send_timeouts", "pvm.sends_failed",
                 "faults.dropped", "faults.delayed"):
        metrics[name] = ctx.count(name)
    for eid in EXPERIMENT_IDS:
        if f"op:{eid}" in ctx.summary:
            metrics[f"experiments.{eid}_s"] = ctx.op(eid)
    return metrics
