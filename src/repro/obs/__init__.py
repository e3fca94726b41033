"""repro.obs — the unified observability layer.

Three coordinated pieces (see ``docs/observability.md``):

* :mod:`repro.obs.spans` — hierarchical span tracing on simulated (or
  wall) time, near-zero overhead when disabled;
* :mod:`repro.obs.metrics` — a process-local metrics registry with
  deterministic counters/gauges/fixed-bucket histograms;
* :mod:`repro.obs.accounting` — per-superstep simulated-vs-predicted
  cost ledgers joining the DES against the analytic HBSP^k model;
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON, Prometheus
  text format, a plain-text summary and an ASCII Gantt chart.

Typical use::

    from repro.obs import observe, chrome_trace, prometheus_text, summary

    with observe(spans=True) as obs:
        run_gather(ucf_testbed(8), 25600)
    print(summary(obs))
    Path("t.json").write_text(chrome_trace(obs.tracer))
    Path("m.prom").write_text(prometheus_text(obs.metrics))
"""

from repro.obs.accounting import (
    LedgerRow,
    MachineRow,
    RunObs,
    SuperstepLedger,
    collect_run_obs,
)
from repro.obs.export import chrome_trace, gantt, prometheus_text, runs_json, summary
from repro.obs.metrics import METRIC_HELP, MetricsRegistry
from repro.obs.observe import Observation, current_observation, observe, observe_to
from repro.obs.spans import NULL_TRACER, Span, Tracer

__all__ = [
    "Span",
    "Tracer",
    "NULL_TRACER",
    "MetricsRegistry",
    "METRIC_HELP",
    "RunObs",
    "LedgerRow",
    "MachineRow",
    "SuperstepLedger",
    "collect_run_obs",
    "Observation",
    "observe",
    "observe_to",
    "current_observation",
    "chrome_trace",
    "gantt",
    "prometheus_text",
    "runs_json",
    "summary",
]
