"""The HBSP^k scatter (one-to-all personalized communication).

The inverse of the gather: the root holds ``n`` items partitioned per
processor (``counts``), and each processor must end with exactly its
own chunk.  Hierarchical algorithm (one of the dissertation's [20]
additional collectives, built on the paper's design rules): top-down,
each level's coordinator sends every child-subtree coordinator the
chunks belonging to that subtree, until level-1 coordinators deliver
individual chunks.  The root's own chunk never leaves its machine.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.collectives.base import CollectiveOutcome, count_and_checksum, make_items, make_runtime
from repro.collectives.schedules import (
    RootPolicy,
    WorkloadPolicy,
    resolve_root,
    split_counts,
)
from repro.collectives.steps import descend
from repro.hbsplib.context import HbspContext
from repro.model.cost import CostLedger
from repro.model.params import HBSPParams
from repro.model.predict import charge_fan, check_workload, clusters
from repro.util.units import BYTES_PER_INT

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan

__all__ = ["scatter_program", "run_scatter", "predict_scatter_cost"]


def scatter_program(
    ctx: HbspContext,
    counts: t.Sequence[int],
    root: int,
    seed: int = 0,
) -> t.Generator:
    """Per-process scatter program.

    The root generates ``sum(counts)`` items laid out pid-major; pid
    ``j`` ends holding the slice of length ``counts[j]`` that starts at
    ``sum(counts[:j])``.  Returns ``(items, checksum)``.
    """
    n = int(sum(counts))
    holdings: dict[int, np.ndarray] | None = None
    if ctx.pid == root:
        everything = make_items(seed, root, n)
        offsets = np.cumsum([0] + [int(c) for c in counts])
        holdings = {
            pid: everything[offsets[pid] : offsets[pid + 1]]
            for pid in range(ctx.nprocs)
        }

    for level in range(ctx.runtime.tree.k, 0, -1):
        subtrees = ctx.runtime._ancestor(ctx.pid, level).children
        arrived = yield from descend(
            ctx, level, root, holdings, tag=level, label=f"scatter down L{level}",
            # Child subtree i's coordinator gets the chunks of i's members.
            part=lambda i: (
                {m: holdings[m] for m in subtrees[i].members if m in holdings} or None
            ),
        )
        if arrived:
            holdings = dict(arrived[0])

    return count_and_checksum(holdings.get(ctx.pid) if holdings else None)


def run_scatter(
    topology: ClusterTopology,
    n: int,
    *,
    root: int | RootPolicy | None = None,
    workload: WorkloadPolicy | t.Sequence[int] = WorkloadPolicy.BALANCED,
    scores: t.Mapping[str, float] | None = None,
    seed: int = 0,
    faults: "FaultPlan | None" = None,
    delivery: t.Any | None = None,
) -> CollectiveOutcome:
    """Run the scatter on the simulated machine and predict its cost."""
    runtime = make_runtime(
        topology, scores=scores, faults=faults, seed=seed, delivery=delivery,
    )
    root_pid = resolve_root(runtime, root)
    counts = split_counts(runtime, n, workload)
    result = runtime.run(scatter_program, counts, root_pid, seed)
    return CollectiveOutcome.of(
        f"scatter(n={n}, root=pid{root_pid})", runtime, result,
        predict_scatter_cost(runtime.params, n, root=root_pid, counts=counts),
    )


def predict_scatter_cost(
    params: HBSPParams,
    n: int,
    *,
    root: int | None = None,
    counts: t.Sequence[int] | None = None,
    item_bytes: int = BYTES_PER_INT,
) -> CostLedger:
    """Closed-form scatter cost: the gather's h-relations, reversed.

    At each level the coordinator sends each child-subtree coordinator
    that subtree's total volume: the gather's fan, top-down, with the
    sender/receiver roles exchanged.
    """
    root, counts = check_workload(params, n, root, counts, item_bytes)
    ledger = CostLedger(f"scatter(k={params.k}, n={n})")
    subtree_total: dict[tuple[int, int], int] = {
        (0, j): int(counts[j]) for j in range(params.p)
    }
    for level in range(1, params.k + 1):
        for j in range(params.m[level]):
            subtree_total[(level, j)] = sum(
                subtree_total[c] for c in params.children_of(level, j)
            )
    for level in range(params.k, 0, -1):
        level_clusters = clusters(params, level, root, singletons=False)
        volumes = [
            [subtree_total[c] * item_bytes for c in cluster[1]]
            for cluster in level_clusters
        ]
        charge_fan(ledger, params.g, level, level_clusters, volumes, "scatter from")
    return ledger
