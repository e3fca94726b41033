"""The observation context: one bundle of tracer + metrics + ledgers.

Mirrors :func:`repro.perf.sweep`: ``observe()`` installs an
:class:`Observation` for its dynamic extent, and the runtime layers
pick it up through :func:`current_observation` — no parameter threading
through eight collectives and four experiment layers.

Determinism: metrics and ledgers are fed exclusively from the compact
:class:`~repro.obs.accounting.RunObs` records that
:meth:`~repro.perf.job.SimJob.run` returns, merged by the sweep executor
in submission order.  Worker processes and the persistent disk cache
therefore produce byte-identical exports to a serial cold run.  Span
tracing (``spans=True``) additionally records full timelines, which
forces simulations inline into the observing process.
"""

from __future__ import annotations

import argparse
import contextlib
import typing as t
from pathlib import Path

from repro.obs.accounting import RunObs, SuperstepLedger
from repro.obs.export import chrome_trace, prometheus_text, runs_json, summary
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer

__all__ = [
    "Observation",
    "observe",
    "observe_to",
    "add_obs_flags",
    "current_observation",
]


class Observation:
    """Everything one observed extent accumulates.

    Attributes
    ----------
    tracer:
        The span tracer (disabled unless ``spans=True``).
    metrics:
        The aggregated metrics registry.
    ledgers:
        One :class:`SuperstepLedger` per observed run, in observation
        order (duplicated grid points appear once per occurrence).
    """

    def __init__(self, *, spans: bool = False) -> None:
        self.tracer = Tracer(enabled=spans)
        self.metrics = MetricsRegistry()
        self.ledgers: list[SuperstepLedger] = []
        self._groups = 0

    # -- group bookkeeping (chrome-trace processes) --------------------------
    def take_group(self) -> str:
        """A fresh span group id for one simulated run."""
        self._groups += 1
        return f"run{self._groups}"

    # -- feeding -------------------------------------------------------------
    def record_run(self, run: RunObs) -> SuperstepLedger:
        """Fold one run's compact record into metrics and ledgers."""
        metrics = self.metrics
        metrics.merge_counters(run.counters)
        metrics.inc("repro_runs_total")
        metrics.inc("repro_supersteps_total", float(run.supersteps))
        metrics.inc("repro_simulated_seconds_total", run.time)
        ledger = SuperstepLedger(run)
        for row in ledger.rows:
            metrics.observe("repro_superstep_seconds", row.simulated)
            if row.critical is not None:
                metrics.observe("repro_h_relation_bytes", float(row.critical.h))
            for machine_row in row.machines:
                metrics.observe(
                    "repro_barrier_wait_seconds",
                    machine_row.wait,
                    labels=(("machine", machine_row.machine),),
                )
        self.ledgers.append(ledger)
        return ledger

    def __repr__(self) -> str:
        return (
            f"Observation({len(self.ledgers)} runs, {len(self.tracer)} spans, "
            f"{len(self.metrics)} metrics)"
        )


#: The active observation installed by :func:`observe` (None = off).
_current: Observation | None = None


def current_observation() -> Observation | None:
    """The observation installed by the innermost active :func:`observe`."""
    return _current


@contextlib.contextmanager
def observe(*, spans: bool = False) -> t.Iterator[Observation]:
    """Install an :class:`Observation` for the dynamic extent.

    Runtimes constructed inside the block feed its metrics registry
    and ledgers; with ``spans=True`` every virtual machine built inside
    it also records its full span timeline live, message timing
    included (which disables the sweep pool for the extent — spans
    cannot cross process boundaries).
    """
    global _current
    previous = _current
    observation = Observation(spans=spans)
    _current = observation
    try:
        yield observation
    finally:
        _current = previous


@contextlib.contextmanager
def _unobserved() -> t.Iterator[None]:
    """Hide the current observation for the dynamic extent.

    For simulations the library runs on its own account, not the
    caller's (the tuner's shortlist validations): they feed no metrics,
    ledgers or spans, and a span tracer cannot push them off the macro
    path.
    """
    global _current
    previous = _current
    _current = None
    try:
        yield
    finally:
        _current = previous


def add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Declare the four flags :func:`observe_to` consumes (docs/observability.md)."""
    parser.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write a Chrome trace_event JSON timeline of the runs "
        "(open in chrome://tracing or ui.perfetto.dev); forces serial "
        "simulation",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write aggregated metrics in Prometheus text format",
    )
    parser.add_argument(
        "--obs-summary", action="store_true",
        help="print the per-superstep predicted-vs-simulated ledger "
        "after the command's own output",
    )
    parser.add_argument(
        "--runs-out", metavar="FILE", default=None,
        help="write the observed run records as JSON — the input "
        "format of 'repro calibrate --fit' (docs/calibration.md)",
    )


@contextlib.contextmanager
def observe_to(
    trace_out: str | None = None,
    metrics_out: str | None = None,
    obs_summary: bool = False,
    runs_out: str | None = None,
) -> t.Iterator[Observation | None]:
    """The ``--trace-out/--metrics-out/--obs-summary/--runs-out`` block.

    With no output requested nothing is observed and ``None`` is
    yielded.  Otherwise the body runs under :func:`observe` (spans only
    when a trace file is wanted) and, if it finishes, each requested
    file is written and the summary printed last.
    """
    if not (trace_out or metrics_out or obs_summary or runs_out):
        yield None
        return
    with observe(spans=trace_out is not None) as observation:
        yield observation
    if trace_out:
        Path(trace_out).write_text(chrome_trace(observation.tracer))
    if metrics_out:
        Path(metrics_out).write_text(prometheus_text(observation.metrics))
    if runs_out:
        Path(runs_out).write_text(runs_json(observation))
    if obs_summary:
        print(summary(observation))
