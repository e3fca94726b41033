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

When a :func:`repro.obs.observe` observation is active the session
emits ``repro_serve_*`` metrics (arrival/shed/batch counters, latency
and queue-depth histograms) and, with spans on, one span per request
plus one per membership epoch — so the Chrome-trace and Prometheus
exporters work on serving sessions for free.
"""

from __future__ import annotations

import bisect
import math
import typing as t
from collections import deque

from repro.cluster.presets import build_any
from repro.cluster.topology import ClusterTopology
from repro.dynamics.epochs import Epoch, membership_epochs
from repro.dynamics.plan import DynamicPlan
from repro.errors import ServeError
from repro.obs.observe import current_observation
from repro.serve.arrivals import Arrival, generate_arrivals, offered_rate
from repro.serve.config import ServiceConfig
from repro.serve.costs import StageCostModel
from repro.serve.placement import Slice, carve_slices, pick_slice, slice_variants
from repro.serve.report import ServiceReport
from repro.sim.engine import Engine
from repro.util.lifetime import gc_paused

__all__ = ["run_service", "resolve_cluster", "serve_slices"]


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
    slices, (epochs, live, n_base) = serve_slices(config, dynamics)
    if costs is None:
        model = StageCostModel(config, slices)
    else:
        _check_shared_model(costs, config, slices)
        model = costs
    model.prewarm()

    observation = current_observation()
    metrics = observation.metrics if observation is not None else None
    tracer = (
        observation.tracer
        if observation is not None and observation.tracer.enabled
        else None
    )

    arrivals = generate_arrivals(config)
    engine = Engine()
    queue: deque[Arrival] = deque()
    idle = [True] * n_base
    busy_time = [0.0] * len(slices)
    slice_completed = [0] * len(slices)
    kind_completed = [0] * len(config.workload)
    latencies: list[float] = []
    state = {
        "admitted": 0, "shed": 0, "batches": 0, "depth_max": 0,
        "redispatched": 0, "degraded": 0, "degraded_shed": 0,
    }
    retries: dict[int, int] = {}
    retry_pending = [False]
    limit = config.policy.queue_limit
    max_batch = config.policy.max_batch
    max_redispatch = config.policy.max_redispatch
    slice_members = [
        frozenset(m.name for m in s.topology.machines) for s in slices
    ]
    # Flattened membership timeline: epoch lookups, live-variant reads,
    # and interrupt scans run per dispatch, so they must not hash tuple
    # keys or walk the whole epoch list.  Simulated time is monotone,
    # so a cursor advanced in place makes the epoch lookup amortised
    # O(1) across the session.
    epoch_starts = [e.start for e in epochs]
    n_epochs = len(epochs)
    live_rows = [
        [live.get((j, e)) for j in range(n_base)] for e in range(n_epochs)
    ]
    # (current epoch index, start of the next epoch) — the second field
    # lets dispatch's hot path decide "no boundary ahead of this batch"
    # with one float comparison.
    epoch_cursor = [0, epoch_starts[1] if n_epochs > 1 else math.inf]
    # Epochs whose live map is the identity (every base slice hosts
    # itself) skip the live-row lookup in dispatch.
    identity_rows = [
        all(row[j] == j for j in range(n_base)) for row in live_rows
    ]

    def _epoch_index(t_now: float) -> int:
        i = epoch_cursor[0]
        while i + 1 < n_epochs and epoch_starts[i + 1] <= t_now:
            i += 1
        epoch_cursor[0] = i
        epoch_cursor[1] = epoch_starts[i + 1] if i + 1 < n_epochs else math.inf
        return i

    def _next_boundary(t_now: float) -> float | None:
        i = bisect.bisect_right(epoch_starts, t_now)
        return epoch_starts[i] if i < len(epoch_starts) else None

    def _interrupt_time(variant: int, start: float, cost: float) -> float | None:
        """First epoch boundary in ``(start, start+cost)`` that takes a
        machine away from the dispatched variant, if any."""
        members = slice_members[variant]
        end = start + cost
        # Dispatch advances the cursor to the epoch covering ``start``
        # just before calling this, so the candidate boundaries begin
        # at the next epoch (their starts strictly increase).
        for i in range(epoch_cursor[0] + 1, n_epochs):
            boundary = epoch_starts[i]
            if boundary >= end:
                return None
            if not members <= epochs[i].present:
                return boundary
        return None

    def _shed_degraded(request: Arrival) -> None:
        state["degraded_shed"] += 1
        if metrics is not None:
            metrics.inc("repro_serve_degraded_shed_total")

    def dispatch() -> None:
        while queue:
            idle_slices = [j for j in range(n_base) if idle[j]]
            if not idle_slices:
                return
            if engine.now >= epoch_cursor[1]:
                _epoch_index(engine.now)
            if not identity_rows[epoch_cursor[0]]:
                row = live_rows[epoch_cursor[0]]
                placeable = [
                    (j, row[j]) for j in idle_slices if row[j] is not None
                ]
                if not placeable:
                    if not all(idle):
                        return  # a completion will re-dispatch
                    boundary = _next_boundary(engine.now)
                    if boundary is None:
                        # The surviving membership can never host a
                        # request again: shed the backlog as degraded.
                        while queue:
                            _shed_degraded(queue.popleft())
                        return
                    if not retry_pending[0]:
                        retry_pending[0] = True
                        engine.call_at(boundary, _retry)
                    return
            else:
                # A fully-live epoch places every idle base slice on
                # itself.
                placeable = [(j, j) for j in idle_slices]
            kind = queue[0].kind
            size = 1
            while (
                size < max_batch
                and size < len(queue)
                and queue[size].kind == kind
            ):
                size += 1
            batch_costs = [float("inf")] * n_base
            variant_slice = list(slices[:n_base])
            variant_of = dict(placeable)
            for j, variant in placeable:
                batch_costs[j] = model.request_cost(kind, variant, size)
                variant_slice[j] = slices[variant]
            target = pick_slice(
                [j for j, _ in placeable], batch_costs, variant_slice
            )
            variant = variant_of[target]
            batch = [queue.popleft() for _ in range(size)]
            idle[target] = False
            state["batches"] += 1
            if metrics is not None:
                metrics.inc("repro_serve_batches_total")
            cost = batch_costs[target]
            start = engine.now
            cut = (
                _interrupt_time(variant, start, cost)
                if start + cost > epoch_cursor[1]
                else None
            )
            if cut is None:
                engine.call_at(
                    start + cost,
                    lambda j=target, v=variant, b=batch, s=start, c=cost: (
                        _complete(j, v, b, s, c)
                    ),
                )
            else:
                engine.call_at(
                    cut,
                    lambda j=target, v=variant, b=batch, s=start: (
                        _interrupt(j, v, b, s)
                    ),
                )

    def _retry() -> None:
        retry_pending[0] = False
        dispatch()

    def _interrupt(
        target: int, variant: int, batch: list[Arrival], start: float
    ) -> None:
        """The dispatched slice lost a machine: requeue or shed the batch."""
        idle[target] = True
        busy_time[variant] += engine.now - start
        kept: list[Arrival] = []
        for request in batch:
            attempts = retries.get(request.request_id, 0) + 1
            retries[request.request_id] = attempts
            if attempts > max_redispatch:
                _shed_degraded(request)
            else:
                kept.append(request)
                state["redispatched"] += 1
                if metrics is not None:
                    metrics.inc("repro_serve_redispatched_total")
        for request in reversed(kept):  # keep arrival order at the front
            queue.appendleft(request)
        state["depth_max"] = max(state["depth_max"], len(queue))
        dispatch()

    def _complete(
        target: int, variant: int, batch: list[Arrival], start: float, cost: float
    ) -> None:
        idle[target] = True
        busy_time[variant] += cost
        slice_completed[variant] += len(batch)
        degraded = variant >= n_base
        if degraded:
            state["degraded"] += len(batch)
        now = engine.now
        for request in batch:
            kind = config.workload[request.kind]
            # Queue wait + service time, not (now - arrival): for a
            # request dispatched the instant it arrived this is the
            # batch-runner makespan *exactly* (no float round-trip
            # through the event clock), which the vanishing-load
            # degeneration tests assert bit-for-bit.
            latency = (start - request.time) + cost
            latencies.append(latency)
            kind_completed[request.kind] += 1
            if metrics is not None:
                metrics.inc("repro_serve_completed_total")
                metrics.observe("repro_serve_latency_seconds", latency)
                if degraded:
                    metrics.inc("repro_serve_degraded_requests_total")
            if tracer is not None:
                tracer.add(
                    "serve", kind.name,
                    group="serve", actor=f"slice {slices[variant].name}",
                    start=request.time, end=now,
                    request=request.request_id, batch=len(batch),
                )
        dispatch()

    def _admit(arrival: Arrival) -> None:
        kind = config.workload[arrival.kind]
        if metrics is not None:
            metrics.inc(
                "repro_serve_requests_total", labels=(("kind", kind.name),)
            )
        if limit is not None and len(queue) >= limit:
            state["shed"] += 1
            if metrics is not None:
                metrics.inc("repro_serve_shed_total")
            return
        queue.append(arrival)
        state["admitted"] += 1
        depth = len(queue)
        state["depth_max"] = max(state["depth_max"], depth)
        if metrics is not None:
            metrics.observe("repro_serve_queue_depth", float(depth))
        dispatch()

    for arrival in arrivals:
        engine.call_at(arrival.time, lambda a=arrival: _admit(a))
    makespan = engine.run()

    slo = config.policy.slo
    good = (
        sum(1 for latency in latencies if latency <= slo)
        if slo is not None
        else len(latencies)
    )
    goodput = good / config.duration
    if metrics is not None:
        metrics.set_gauge("repro_serve_goodput", goodput)
        metrics.set_gauge("repro_serve_queue_depth_max", float(state["depth_max"]))
    if dynamics:
        if metrics is not None:
            metrics.set_gauge("repro_serve_epochs", float(len(epochs)))
        if tracer is not None:
            horizon = max(makespan, config.duration)
            for epoch in epochs:
                if epoch.start >= horizon:
                    continue
                tracer.add(
                    "serve", f"epoch {epoch.index}",
                    group="serve", actor="membership",
                    start=epoch.start, end=min(epoch.end, horizon),
                    present=len(epoch.present),
                )

    return ServiceReport(
        cluster=config.cluster,
        seed=config.seed,
        duration=config.duration,
        offered=len(arrivals),
        offered_rate=offered_rate(config),
        admitted=state["admitted"],
        completed=len(latencies),
        shed=state["shed"],
        batches=state["batches"],
        goodput=goodput,
        slo=slo,
        makespan=makespan,
        queue_depth_max=state["depth_max"],
        latencies=tuple(latencies),
        slice_names=tuple(s.name for s in slices),
        slice_busy=tuple(busy_time),
        slice_completed=tuple(slice_completed),
        kind_completed=tuple(
            (kind.name, kind_completed[i])
            for i, kind in enumerate(config.workload)
        ),
        epochs=len(epochs),
        redispatched=state["redispatched"],
        degraded=state["degraded"],
        degraded_shed=state["degraded_shed"],
    )
