"""The open-loop serving loop on the discrete-event engine.

``run_service`` plays one :class:`~repro.serve.config.ServiceConfig`
session: seeded arrivals hit a bounded admission queue, a dispatcher
coalesces same-kind neighbours into batches and places each batch on
the idle topology slice that finishes it soonest (the proportional
``c_{i,j}`` rule lifted to subtrees — see :mod:`repro.serve.placement`),
and per-stage makespans come from real kernel simulations through
:class:`~repro.serve.costs.StageCostModel`.

Two clocks, one determinism story:

* the *service clock* is a fresh :class:`~repro.sim.engine.Engine`
  whose events are arrivals and batch completions — thousands of
  events, microseconds of wall-clock;
* the *kernel clock* lives inside the stage simulations, which were
  prewarmed through :func:`repro.perf.evaluate` in one batch — so a
  ``sweep(jobs=N)`` context parallelises the expensive part while the
  loop stays serial, and the whole session is bit-identical at any
  ``N``.

A :class:`~repro.dynamics.DynamicPlan` makes the session *churn
tolerant*: membership epochs (machines joining and leaving) re-plan
placement — each base slice gets per-epoch degraded variants carved
from the machines still present, batches in flight when their slice
loses a machine are interrupted and re-queued (bounded by
``policy.max_redispatch``, then shed as degraded), and the report and
``repro_serve_degraded_*`` metrics record how gracefully the session
absorbed the churn.  A ``None`` or empty plan is the one-epoch case —
a single all-present epoch whose live map is the identity — so a
static session runs the same loop and is bit-identical by
construction.

A :class:`ServeSession` holds one session's state; its counters are
the report's counters.  When a :func:`repro.obs.observe` observation is
active the session samples the ``repro_serve_queue_depth`` histogram
at each admission and, once it finishes, folds its counters and
latencies into the ``repro_serve_*`` metrics (a session that raises
part-way records none of them).  With spans on it adds one span per
request and one per membership epoch — so the Chrome-trace and
Prometheus exporters work on serving sessions for free.
"""

from __future__ import annotations

import math
import typing as t
from collections import deque
from functools import partial

from repro.cluster.presets import build_any
from repro.cluster.topology import ClusterTopology
from repro.dynamics.epochs import Epoch, membership_epochs
from repro.dynamics.plan import DynamicPlan
from repro.errors import ServeError
from repro.obs.observe import current_observation
from repro.serve.arrivals import Arrival, generate_arrivals, kind_counts, offered_rate
from repro.serve.config import ServiceConfig
from repro.serve.costs import StageCostModel
from repro.serve.placement import Slice, carve_slices, pick_slice, slice_variants
from repro.serve.report import ServiceReport
from repro.sim.engine import Engine
from repro.util.lifetime import gc_paused

__all__ = ["ServeSession", "run_service", "resolve_cluster", "serve_slices"]


def resolve_cluster(spec: str) -> ClusterTopology:
    """Build the shared cluster from a preset name or generator spec."""
    return build_any(spec)


def serve_slices(
    config: ServiceConfig, dynamics: DynamicPlan | None = None
) -> tuple[tuple[Slice, ...], tuple[tuple[Epoch, ...], dict, int]]:
    """The slice table a session serves on, plus its membership timeline.

    Returns ``(expanded, (epochs, live, n_base))``: the base slices
    followed by every distinct degraded variant any epoch induces, the
    membership epochs, the ``live[(slice, epoch)]`` map and the number
    of base slices — the same expansion :func:`run_service` uses,
    exposed so a shared :class:`StageCostModel` can be prewarmed
    against it.  ``None`` and the empty plan give one all-present epoch
    whose live map is the identity, so ``expanded`` is the base table.
    """
    topology = resolve_cluster(config.cluster)
    base = carve_slices(topology, config.policy.placement)
    epochs = membership_epochs(dynamics or DynamicPlan.empty(), topology)
    expanded, live = slice_variants(base, epochs)
    return expanded, (epochs, live, len(base))


def _check_shared_model(
    model: StageCostModel, config: ServiceConfig, slices: t.Sequence[Slice]
) -> None:
    """A shared cost model must describe the same traffic shapes."""
    ours = (config.cluster, config.workload, config.policy, config.seed)
    theirs = (
        model.config.cluster,
        model.config.workload,
        model.config.policy,
        model.config.seed,
    )
    if ours != theirs:
        raise ServeError(
            "shared StageCostModel was built for a different session shape "
            "(cluster/workload/policy/seed must match; only arrival and "
            "duration may differ)"
        )
    if tuple(s.name for s in model.slices) != tuple(s.name for s in slices):
        raise ServeError(
            "shared StageCostModel was built for a different slice table "
            "(placement and dynamic plan must match)"
        )


@gc_paused()
def run_service(
    config: ServiceConfig,
    *,
    dynamics: DynamicPlan | None = None,
    costs: StageCostModel | None = None,
) -> ServiceReport:
    """Simulate one serving session and return its report.

    ``dynamics`` subjects the session to membership churn (see the
    module docstring); ``None`` and the empty plan are the one-epoch
    session.  ``costs`` shares a prewarmed :class:`StageCostModel`
    across sessions that differ only in arrival process/duration (the
    goodput-vs-offered-load sweeps); by default the session builds and
    prewarms its own.
    """
    return ServeSession(config, dynamics=dynamics, costs=costs).run()


class ServeSession:
    """One serving session: its queue, slices and counters.

    Construction carves the slice table, prewarms the cost model and
    schedules every arrival; :meth:`run` plays the session to the end
    and returns its :class:`ServiceReport`, and :meth:`step` plays it
    one engine event at a time.  Between events ``in_flight()`` lies in
    ``[0, busy slices * max_batch]`` and is 0 exactly when every slice
    is idle; at the end ``offered == completed + shed + degraded_shed``.
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        dynamics: DynamicPlan | None = None,
        costs: StageCostModel | None = None,
    ) -> None:
        slices, (epochs, live, n_base) = serve_slices(config, dynamics)
        if costs is None:
            costs = StageCostModel(config, slices)
        else:
            _check_shared_model(costs, config, slices)
        costs.prewarm()
        observation = current_observation()
        self.metrics = observation.metrics if observation is not None else None
        self.tracer = (
            observation.tracer
            if observation is not None and observation.tracer.enabled
            else None
        )
        self.config = config
        self.dynamics = dynamics
        self.model = costs
        self.slices = slices
        self.epochs = epochs
        self.n_base = n_base
        self.limit = config.policy.queue_limit
        self.max_batch = config.policy.max_batch
        self.slice_members = [
            frozenset(m.name for m in s.topology.machines) for s in slices
        ]
        # Epoch starts with an ``inf`` sentinel: simulated time is
        # monotone, so the covering epoch is one index advanced in
        # place and the next boundary is always ``starts[epoch + 1]``.
        self.starts = [e.start for e in epochs] + [math.inf]
        self.epoch = 0
        self.live_rows = [
            [live.get((j, e)) for j in range(n_base)] for e in range(len(epochs))
        ]

        self.engine = Engine()
        self.arrivals = generate_arrivals(config)
        self.queue: deque[Arrival] = deque()
        self.idle = [True] * n_base
        self.busy_time = [0.0] * len(slices)
        self.slice_completed = [0] * len(slices)
        self.kind_completed = [0] * len(config.workload)
        self.latencies: list[float] = []
        self.retries: dict[int, int] = {}
        self.retry_pending = False
        self.admitted = 0
        self.shed = 0
        self.batches = 0
        self.redispatched = 0
        self.degraded = 0
        self.degraded_shed = 0
        self.depth_max = 0
        for arrival in self.arrivals:
            self.engine.call_at(arrival.time, partial(self._admit, arrival))

    def in_flight(self) -> int:
        """Requests dispatched to a slice and not yet completed or shed."""
        return (
            self.admitted - len(self.queue) - len(self.latencies)
            - self.degraded_shed
        )

    def step(self) -> bool:
        """Process one engine event; ``False`` once nothing is queued."""
        if not self.engine._heap:
            return False
        self.engine.step()
        return True

    def run(self) -> ServiceReport:
        """Play the remaining events, emit the session's metrics and
        spans, and return its report."""
        makespan = self.engine.run()
        config = self.config
        slo = config.policy.slo
        latencies = self.latencies
        good = (
            sum(1 for latency in latencies if latency <= slo)
            if slo is not None
            else len(latencies)
        )
        report = ServiceReport(
            cluster=config.cluster,
            seed=config.seed,
            duration=config.duration,
            offered=len(self.arrivals),
            offered_rate=offered_rate(config),
            admitted=self.admitted,
            completed=len(latencies),
            shed=self.shed,
            batches=self.batches,
            goodput=good / config.duration,
            slo=slo,
            makespan=makespan,
            queue_depth_max=self.depth_max,
            latencies=tuple(latencies),
            slice_names=tuple(s.name for s in self.slices),
            slice_busy=tuple(self.busy_time),
            slice_completed=tuple(self.slice_completed),
            kind_completed=tuple(
                (kind.name, self.kind_completed[i])
                for i, kind in enumerate(config.workload)
            ),
            epochs=len(self.epochs),
            redispatched=self.redispatched,
            degraded=self.degraded,
            degraded_shed=self.degraded_shed,
        )
        metrics = self.metrics
        if metrics is not None:
            # Only non-zero counts are added, so the registry gets
            # exactly the keys that one increment per event would make.
            for kind, count in kind_counts(config, self.arrivals).items():
                if count:
                    metrics.inc(
                        "repro_serve_requests_total", count, labels=(("kind", kind),)
                    )
            for name, count in (
                ("repro_serve_shed_total", report.shed),
                ("repro_serve_batches_total", report.batches),
                ("repro_serve_completed_total", report.completed),
                ("repro_serve_redispatched_total", report.redispatched),
                ("repro_serve_degraded_requests_total", report.degraded),
                ("repro_serve_degraded_shed_total", report.degraded_shed),
            ):
                if count:
                    metrics.inc(name, count)
            for latency in latencies:
                metrics.observe("repro_serve_latency_seconds", latency)
            metrics.set_gauge("repro_serve_goodput", report.goodput)
            metrics.set_gauge("repro_serve_queue_depth_max", float(self.depth_max))
            if self.dynamics:
                metrics.set_gauge("repro_serve_epochs", float(len(self.epochs)))
        if self.dynamics and self.tracer is not None:
            horizon = max(makespan, config.duration)
            for epoch in self.epochs:
                if epoch.start >= horizon:
                    continue
                self.tracer.add(
                    "serve", f"epoch {epoch.index}",
                    group="serve", actor="membership",
                    start=epoch.start, end=min(epoch.end, horizon),
                    present=len(epoch.present),
                )
        return report

    def _admit(self, arrival: Arrival) -> None:
        queue = self.queue
        limit = self.limit
        if limit is not None and len(queue) >= limit:
            self.shed += 1
            return
        queue.append(arrival)
        self.admitted += 1
        depth = len(queue)
        if depth > self.depth_max:
            self.depth_max = depth
        if self.metrics is not None:
            self.metrics.observe("repro_serve_queue_depth", float(depth))
        self._dispatch()

    def _dispatch(self) -> None:
        queue = self.queue
        idle = self.idle
        if not queue or True not in idle:
            return
        engine = self.engine
        starts = self.starts
        now = engine.now
        while starts[self.epoch + 1] <= now:
            self.epoch += 1
        row = self.live_rows[self.epoch]
        n_base = self.n_base
        slices = self.slices
        while queue:
            placeable = [
                (j, row[j]) for j in range(n_base)
                if idle[j] and row[j] is not None
            ]
            if not placeable:
                if not all(idle):
                    return  # a completion will re-dispatch
                boundary = starts[self.epoch + 1]
                if boundary == math.inf:
                    # The surviving membership can never host a request
                    # again: shed the backlog as degraded.
                    self.degraded_shed += len(queue)
                    queue.clear()
                elif not self.retry_pending:
                    self.retry_pending = True
                    engine.call_at(boundary, self._retry)
                return
            kind = queue[0].kind
            size = 1
            while (
                size < self.max_batch
                and size < len(queue)
                and queue[size].kind == kind
            ):
                size += 1
            variant_of = dict(placeable)
            costs = {j: self.model.request_cost(kind, v, size) for j, v in placeable}
            target = pick_slice(
                list(variant_of), costs, {j: slices[v] for j, v in placeable}
            )
            variant, cost = variant_of[target], costs[target]
            batch = [queue.popleft() for _ in range(size)]
            idle[target] = False
            self.batches += 1
            end = now + cost
            # The first boundary inside the batch that takes a machine
            # away from its variant interrupts it.
            i = self.epoch + 1
            while (
                starts[i] < end
                and self.slice_members[variant] <= self.epochs[i].present
            ):
                i += 1
            if starts[i] < end:
                engine.call_at(
                    starts[i], partial(self._interrupt, target, variant, batch, now)
                )
            else:
                engine.call_at(
                    end, partial(self._complete, target, variant, batch, now, cost)
                )

    def _retry(self) -> None:
        self.retry_pending = False
        self._dispatch()

    def _interrupt(
        self, target: int, variant: int, batch: list[Arrival], start: float
    ) -> None:
        """The dispatched slice lost a machine: requeue or shed the batch."""
        self.idle[target] = True
        self.busy_time[variant] += self.engine.now - start
        kept: list[Arrival] = []
        for request in batch:
            attempts = self.retries.get(request.request_id, 0) + 1
            self.retries[request.request_id] = attempts
            if attempts > self.config.policy.max_redispatch:
                self.degraded_shed += 1
            else:
                kept.append(request)
        self.redispatched += len(kept)
        self.queue.extendleft(reversed(kept))  # keep arrival order at the front
        self.depth_max = max(self.depth_max, len(self.queue))
        self._dispatch()

    def _complete(
        self, target: int, variant: int, batch: list[Arrival], start: float, cost: float
    ) -> None:
        self.idle[target] = True
        self.busy_time[variant] += cost
        self.slice_completed[variant] += len(batch)
        if variant >= self.n_base:
            self.degraded += len(batch)
        tracer = self.tracer
        workload = self.config.workload
        for request in batch:
            # Queue wait + service time, not (now - arrival): for a
            # request dispatched the instant it arrived this is the
            # batch-runner makespan *exactly* (no float round-trip
            # through the event clock), which the vanishing-load
            # degeneration tests assert bit-for-bit.
            self.latencies.append((start - request.time) + cost)
            self.kind_completed[request.kind] += 1
            if tracer is not None:
                tracer.add(
                    "serve", workload[request.kind].name,
                    group="serve", actor=f"slice {self.slices[variant].name}",
                    start=request.time, end=self.engine.now,
                    request=request.request_id, batch=len(batch),
                )
        self._dispatch()
