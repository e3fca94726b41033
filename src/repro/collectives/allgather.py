"""The HBSP^k all-gather (each processor ends with everyone's data).

Two strategies, which the ablation benchmarks compare:

``"direct"``
    One superstep: every processor sends its chunk to every other
    processor.  The h-relation is dominated by the slowest machine's
    full receive volume, so heterogeneity cannot be exploited (the
    same conclusion the paper draws for the broadcast).

``"hierarchical"``
    A gather to the root followed by a one-phase broadcast, level by
    level — the composition of the paper's two Section-4 algorithms.
"""

from __future__ import annotations

import typing as t

from repro.cluster.topology import ClusterTopology
from repro.collectives.base import (
    CollectiveOutcome,
    concat_payloads,
    count_and_checksum,
    make_items,
    make_runtime,
)
from repro.collectives.gather import gather_program
from repro.collectives.schedules import (
    RootPolicy,
    WorkloadPolicy,
    resolve_root,
    split_counts,
)
from repro.collectives.steps import descend_tree, everyone_else, exchange
from repro.errors import CollectiveError
from repro.hbsplib.context import HbspContext
from repro.model.cost import CostLedger
from repro.model.params import HBSPParams
from repro.model.predict import (
    charge_exchange,
    check_workload,
    predict_broadcast,
    predict_gather,
)
from repro.util.units import BYTES_PER_INT

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan

__all__ = ["allgather_program", "run_allgather", "predict_allgather_cost"]

_REBROADCAST_TAG = 1 << 20  #: clear of the gather's per-level tags


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
        pieces = yield from exchange(
            ctx, everyone_else(ctx, data), label="allgather direct exchange"
        )
        pieces[ctx.pid] = data
        everything = concat_payloads([pieces[j] for j in sorted(pieces)])
    elif strategy == "hierarchical":
        yield from gather_program(ctx, counts, root, seed)
        # make_items serves the streams the gather just drew, so the root
        # rebuilds its gathered buffer in pid order without a redraw;
        # checksums verify the real data movement end to end.
        everything = None
        if ctx.pid == root:
            everything = concat_payloads(
                [make_items(seed, pid, counts[pid]) for pid in range(ctx.nprocs)]
            )
        everything = yield from descend_tree(
            ctx, root, everything, tag=_REBROADCAST_TAG, label="allgather rebroadcast"
        )
    else:
        raise CollectiveError(f"unknown allgather strategy {strategy!r}")
    return count_and_checksum(everything)


def run_allgather(
    topology: ClusterTopology,
    n: int,
    *,
    strategy: str = "hierarchical",
    root: int | RootPolicy | None = None,
    workload: WorkloadPolicy | t.Sequence[int] = WorkloadPolicy.BALANCED,
    scores: t.Mapping[str, float] | None = None,
    seed: int = 0,
    faults: "FaultPlan | None" = None,
    delivery: t.Any | None = None,
) -> CollectiveOutcome:
    """Run the all-gather and predict its cost."""
    runtime = make_runtime(
        topology, scores=scores, faults=faults, seed=seed, delivery=delivery,
    )
    root_pid = resolve_root(runtime, root)
    counts = split_counts(runtime, n, workload)
    result = runtime.run(allgather_program, counts, root_pid, strategy, seed)
    return CollectiveOutcome.of(
        f"allgather(n={n}, strategy={strategy})", runtime, result,
        predict_allgather_cost(
            runtime.params, n, strategy=strategy, root=root_pid, counts=counts
        ),
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
    root, counts = check_workload(params, n, root, counts, item_bytes)
    if strategy == "direct":
        ledger = CostLedger(f"allgather-direct(n={n})")
        charge_exchange(
            ledger, params, "super1: direct total exchange",
            direct_volumes(counts, item_bytes),
        )
        return ledger
    if strategy == "hierarchical":
        ledger = CostLedger(f"allgather-hier(n={n})")
        ledger.extend(
            predict_gather(params, n, root=root, counts=counts, item_bytes=item_bytes),
            "gather/",
        )
        ledger.extend(
            predict_broadcast(
                params, n, root=root, phases="one", item_bytes=item_bytes
            ),
            "broadcast/",
        )
        return ledger
    raise CollectiveError(f"unknown allgather strategy {strategy!r}")


def direct_volumes(counts: t.Sequence[int], item_bytes: int) -> list[int]:
    """Per-processor bytes of a direct all-gather of ``counts`` items:
    the larger of its chunk sent ``p - 1`` times and everyone else's
    chunks received."""
    n, p = sum(counts), len(counts)
    return [max(c * (p - 1), n - c) * item_bytes for c in counts]
