"""Spans at layer boundaries, recorded from outside the program.

:class:`Tracer` wraps — at run time, in the benchmark's own process,
without touching a source file — a fixed table of ``repro``'s public
callables (:data:`TARGETS`), one per layer boundary.  Each call becomes
a span ``(name, layer, start, end, parent, round)`` kept in memory; a
layer's *self time* is its spans' duration minus the part their child
spans cover.  A few boundaries also read the public counters of the
object that crosses them (:data:`HOOKS`): engine events, VM message
counters, superstep counts, executor cache hits.

Per-event callables (``Task.send``, ``Engine.step``,
``HbspContext.sync``) are deliberately not wrapped: the wrapper would
cost more than the call.  Those layers get exact counts here and
isolated ``probe_*`` throughputs in :mod:`bench.probes`.

``install`` swaps every reference to a target that ``repro``'s loaded
modules hold (``from x import f`` copies and registry dicts such as
``repro.perf.job._RUNNERS`` included); ``uninstall`` swaps them back,
so untraced rounds of the same process run the unwrapped program.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import json
import sys
import time
import typing as t

__all__ = ["TARGETS", "Tracer"]

#: (layer, module, qualified name[, kind]) — kind "context" marks a
#: ``@contextmanager`` function, whose span covers the ``with`` body.
TARGETS: tuple[tuple[str, ...], ...] = (
    ("experiments", "repro.experiments.runner", "run_experiment"),
    ("experiments", "repro.experiments.improvement", "ExperimentReport.render"),
    ("perf", "repro.perf.executor", "SweepExecutor.evaluate"),
    ("perf", "repro.perf.job", "SimJob.content_hash"),
    ("perf", "repro.perf.job", "SimJob.run"),
    ("perf", "repro.perf.diskcache", "DiskCache.get"),
    ("perf", "repro.perf.diskcache", "DiskCache.put"),
    ("collectives", "repro.collectives.gather", "run_gather"),
    ("collectives", "repro.collectives.broadcast", "run_broadcast"),
    ("hbsplib", "repro.collectives.base", "make_runtime"),
    ("hbsplib", "repro.hbsplib.runtime", "HbspRuntime.run"),
    ("sim", "repro.sim.engine", "Engine.run"),
    ("sim", "repro.sim.engine", "Engine.run_until"),
    ("model", "repro.model.params", "calibrate"),
    ("model", "repro.model.predict", "predict_gather"),
    ("model", "repro.model.predict", "predict_broadcast"),
    ("model", "repro.model.predict", "predict_gather_plan"),
    ("model", "repro.model.predict", "predict_broadcast_plan"),
    ("model", "repro.model.kernels", "GatherKernel.__init__"),
    ("model", "repro.model.kernels", "GatherKernel.evaluate"),
    ("model", "repro.model.kernels", "GatherKernel.evaluate_plans"),
    ("model", "repro.model.kernels", "BroadcastKernel.__init__"),
    ("model", "repro.model.kernels", "BroadcastKernel.evaluate"),
    ("model", "repro.model.kernels", "BroadcastKernel.evaluate_plans"),
    ("model", "repro.model.planner", "rank_plans"),
    ("model", "repro.model.planner", "best_root"),
    ("model", "repro.model.planner", "best_broadcast_phases"),
    ("tuning", "repro.tuning.tuner", "tune"),
    ("tuning", "repro.tuning.space", "enumerate_plans"),
    ("tuning", "repro.tuning.cache", "DecisionCache.get"),
    ("tuning", "repro.tuning.cache", "DecisionCache.put"),
    ("cluster", "repro.cluster.serialization", "topology_hash"),
    ("cluster", "repro.cluster.discover.generators", "fat_tree"),
    ("cluster", "repro.cluster.discover.generators", "multi_rack"),
    ("cluster", "repro.cluster.discover.generators", "cloud_spot_mix"),
    ("cluster", "repro.cluster.discover.generators", "multicore_nodes"),
    ("cluster", "repro.cluster.discover.matrix", "synthesize"),
    ("cluster", "repro.cluster.discover.infer", "discover"),
    ("serve", "repro.serve.service", "run_service"),
    ("serve", "repro.serve.costs", "StageCostModel.prewarm"),
    ("serve", "repro.serve.arrivals", "generate_arrivals"),
    ("serve", "repro.serve.placement", "carve_slices"),
    ("dynamics", "repro.dynamics.plan", "churn_plan"),
    ("dynamics", "repro.dynamics.epochs", "membership_epochs"),
    ("obs", "repro.obs.observe", "observe", "context"),
)


# -- counters read where an object crosses a boundary --------------------------
def _engine_before(args: tuple) -> int:
    return args[0].events_processed


def _engine_after(counters, before, args, kwargs, result) -> None:
    counters["sim.engine.events"] += args[0].events_processed - before


def _runtime_after(counters, before, args, kwargs, result) -> None:
    runtime = args[0]
    metrics = runtime.vm.metrics
    counters["hbsplib.runs"] += 1
    counters["hbsplib.supersteps"] += result.supersteps
    counters["hbsplib.leaf_supersteps"] += runtime.nprocs * result.supersteps
    counters["pvm.messages"] += int(metrics.counter_sum("repro_messages_sent_total"))
    counters["pvm.bytes"] += int(metrics.counter_sum("repro_bytes_sent_total"))
    for short, family in (
        ("pvm.send_retries", "repro_send_retries_total"),
        ("pvm.send_timeouts", "repro_send_timeouts_total"),
        ("pvm.sends_failed", "repro_sends_failed_total"),
        ("faults.dropped", "repro_messages_dropped_total"),
        ("faults.delayed", "repro_messages_delayed_total"),
    ):
        counters[short] += int(metrics.counter_sum(family))
    # Fault-free, untraced machines are the ones the macro path may take.
    if runtime.vm.macro_capable and runtime.obs_tracer is None:
        counters["sim.macro.eligible"] += 1
    if runtime.macro is not None:
        counters["sim.macro.runs"] += 1
        counters["sim.macro.boundary_events"] += runtime.engine.events_processed


def _collective_after(counters, before, args, kwargs, result) -> None:
    if kwargs.get("plan") is not None:
        counters["collectives.plan_runs"] += 1


def _executor_before(args: tuple) -> tuple[int, int, int]:
    executor = args[0]
    return executor.cache_hits, executor.disk_hits, executor.cache_misses


def _executor_after(counters, before, args, kwargs, result) -> None:
    executor = args[0]
    counters["perf.jobs_submitted"] += len(result)
    counters["perf.memo_hits"] += executor.cache_hits - before[0]
    counters["perf.disk_hits"] += executor.disk_hits - before[1]
    counters["perf.jobs_computed"] += executor.cache_misses - before[2]


def _rank_after(counters, before, args, kwargs, result) -> None:
    counters["model.plans_priced"] += len(args[2])


#: target name -> (before(args) | None, after(counters, before, args, kwargs, result)).
HOOKS: dict[str, tuple[t.Callable | None, t.Callable]] = {
    "Engine.run": (_engine_before, _engine_after),
    "Engine.run_until": (_engine_before, _engine_after),
    "HbspRuntime.run": (None, _runtime_after),
    "run_gather": (None, _collective_after),
    "run_broadcast": (None, _collective_after),
    "SweepExecutor.evaluate": (_executor_before, _executor_after),
    "rank_plans": (None, _rank_after),
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: (name, layer, start, end, parent index | -1, round id)
        self.spans: list[tuple[str, str, float, float, int, int]] = []
        self.counters: collections.Counter[str] = collections.Counter()
        self.round = -1
        self._stack: list[int] = []
        self._undo: list[t.Callable[[], None]] = []
        self._origin = time.perf_counter()

    # -- recording -----------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> t.Iterator[None]:
        """Record the ``with`` body as one span."""
        index = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, name, layer, start, time.perf_counter())

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)  # type: ignore[arg-type]  # filled by _close
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, layer: str, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else -1
        origin = self._origin
        self.spans[index] = (name, layer, start - origin, end - origin, parent, self.round)

    def _timed(self, name: str, layer: str, fn: t.Callable) -> t.Callable:
        before_hook, after_hook = HOOKS.get(name, (None, None))
        open_, close, counters, clock = self._open, self._close, self.counters, time.perf_counter

        if after_hook is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = open_()
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(index, name, layer, start, clock())

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                before = before_hook(args) if before_hook is not None else None
                index = open_()
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(index, name, layer, start, clock())
                after_hook(counters, before, args, kwargs, result)
                return result

        return wrapper

    def _timed_context(self, name: str, layer: str, fn: t.Callable) -> t.Callable:
        @functools.wraps(fn)
        @contextlib.contextmanager
        def wrapper(*args, **kwargs):
            with self.span(name, layer), fn(*args, **kwargs) as value:
                yield value

        return wrapper

    # -- wrapping ------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target; references held by loaded modules included."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        swaps: dict[int, t.Any] = {}
        restores: dict[int, t.Any] = {}
        for layer, module_name, qualname, *kind in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if not owner_name:
                original = getattr(module, attr)
                make = self._timed_context if kind else self._timed
                wrapped = make(qualname, layer, original)
                swaps[id(original)] = wrapped
                restores[id(wrapped)] = original
                continue
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, functools.cached_property):
                wrapped = functools.cached_property(self._timed(qualname, layer, raw.func))
                wrapped.__set_name__(owner, attr)
            else:
                wrapped = self._timed(qualname, layer, raw)
            setattr(owner, attr, wrapped)
            self._undo.append(functools.partial(setattr, owner, attr, raw))
        _swap_references(swaps)
        self._undo.append(functools.partial(_swap_references, restores))

    def uninstall(self) -> None:
        """Put every original back."""
        while self._undo:
            self._undo.pop()()

    # -- results -------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: its duration minus what its direct children cover."""
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, dict[str, t.Any]]:
        """``name -> {layer, count, total_s, self_s}`` over spans inside rounds."""
        own = self.self_times()
        out: dict[str, dict[str, t.Any]] = {}
        for (name, layer, start, end, _, round_id), self_s in zip(self.spans, own):
            if round_id < 0:
                continue
            row = out.setdefault(name, {"layer": layer, "count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
        return out

    def durations(self, name: str, under: str | None = None) -> list[float]:
        """Every in-round duration of one span name, in call order.

        ``under`` keeps only spans with an ancestor of that name.
        """
        spans = self.spans

        def inside(parent: int) -> bool:
            while parent >= 0:
                if spans[parent][0] == under:
                    return True
                parent = spans[parent][4]
            return False

        return [
            end - start
            for span_name, _, start, end, parent, round_id in spans
            if span_name == name and round_id >= 0 and (under is None or inside(parent))
        ]

    def dump(self, path: str, *, workload: str) -> None:
        """Write the spans (columnar, names interned) as one JSON file."""
        names: dict[tuple[str, str], int] = {}
        rows = []
        for name, layer, start, end, parent, round_id in self.spans:
            key = names.setdefault((name, layer), len(names))
            rows.append([key, round(start, 9), round(end, 9), parent, round_id])
        document = {
            "schema": "repro.bench.trace/1",
            "workload": workload,
            "columns": ["name", "start_s", "end_s", "parent", "round"],
            "names": [{"name": name, "layer": layer} for name, layer in names],
            "spans": rows,
            "counters": dict(sorted(self.counters.items())),
        }
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))


def _swap_references(swaps: dict[int, t.Any]) -> None:
    """Rebind module attributes (and module-level dict values) by identity."""
    if not swaps:
        return
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if attr == "__builtins__":
                continue
            replacement = swaps.get(id(value))
            if replacement is not None:
                namespace[attr] = replacement
            elif type(value) is dict:
                for key, item in value.items():
                    replacement = swaps.get(id(item))
                    if replacement is not None:
                        value[key] = replacement
