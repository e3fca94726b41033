"""The HBSP^k all-reduce: every processor ends with the combined vector.

Two strategies (compare the all-gather):

``"tree"``
    The hierarchical reduction to the root followed by a one-phase
    hierarchical broadcast — 2k supersteps, but only ``width`` items
    ever cross each link, which is what the hierarchy is for.

``"direct"``
    One superstep: everyone sends its vector to everyone and combines
    locally — ``p·width`` traffic per processor but no tree latency;
    wins for small vectors on flat machines.

The crossover between the two is exactly the §3.4 trade-off between
communication volume and synchronisation/latency overhead, and the
``run_allreduce`` prediction exposes it.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.collectives.base import CollectiveOutcome, count_and_checksum, make_items, make_runtime
from repro.collectives.reduce import OPS_PER_ITEM, predict_reduce_cost
from repro.collectives.schedules import RootPolicy, resolve_root
from repro.collectives.steps import (
    combine,
    combine_up,
    descend_tree,
    everyone_else,
    exchange,
)
from repro.errors import CollectiveError
from repro.hbsplib.context import HbspContext
from repro.model.cost import CostLedger
from repro.model.params import HBSPParams
from repro.model.predict import (
    charge_exchange,
    check_inputs,
    check_item_bytes,
    predict_broadcast,
)

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan

__all__ = ["allreduce_program", "run_allreduce", "predict_allreduce_cost"]

_BROADCAST_TAG = 1 << 21  #: clear of the reduction's per-level tags


def allreduce_program(
    ctx: HbspContext,
    width: int,
    root: int,
    strategy: str = "tree",
    seed: int = 0,
) -> t.Generator:
    """Per-process all-reduce program (element-wise sum).

    Returns ``(items, checksum)``; on success every pid reports the
    same checksum: the sum over all processors' vectors.
    """
    acc: np.ndarray | None = make_items(seed, ctx.pid, width).astype(np.int64)
    work = width * OPS_PER_ITEM
    if strategy == "direct":
        arrived = yield from exchange(
            ctx, everyone_else(ctx, acc), label="allreduce direct exchange"
        )
        acc = yield from combine(
            ctx, acc, arrived.values(), work, "allreduce combine"
        )
    elif strategy == "tree":
        # Hierarchical reduction onto the root, then a one-phase
        # hierarchical broadcast of the total it holds.
        acc = yield from combine_up(ctx, root, acc, work, "reduce")
        acc = yield from descend_tree(
            ctx, root, acc if ctx.pid == root else None,
            tag=_BROADCAST_TAG, label="allreduce broadcast",
        )
    else:
        raise CollectiveError(f"unknown allreduce strategy {strategy!r}")
    return count_and_checksum(acc)


def run_allreduce(
    topology: ClusterTopology,
    width: int,
    *,
    strategy: str = "tree",
    root: int | RootPolicy | None = None,
    scores: t.Mapping[str, float] | None = None,
    seed: int = 0,
    faults: "FaultPlan | None" = None,
    delivery: t.Any | None = None,
) -> CollectiveOutcome:
    """Run the all-reduce and predict its cost."""
    runtime = make_runtime(
        topology, scores=scores, faults=faults, seed=seed, delivery=delivery,
    )
    root_pid = resolve_root(runtime, root)
    result = runtime.run(allreduce_program, width, root_pid, strategy, seed)
    cpu_rates = [m.cpu_rate for m in runtime.topology.machines]
    return CollectiveOutcome.of(
        f"allreduce(width={width}, strategy={strategy})", runtime, result,
        predict_allreduce_cost(
            runtime.params, width, strategy=strategy, root=root_pid,
            cpu_rates=cpu_rates,
        ),
    )


def predict_allreduce_cost(
    params: HBSPParams,
    width: int,
    *,
    strategy: str = "tree",
    root: int | None = None,
    cpu_rates: t.Sequence[float] | None = None,
    item_bytes: int = 8,
) -> CostLedger:
    """Closed-form all-reduce cost for either strategy.

    Caveat for ``"direct"`` on hierarchical (k >= 2) machines: the
    HBSP^k cost formula charges communication at ``g·r`` per byte and
    has no term for *which wire* a message crosses.  Level-structured
    algorithms (like ``"tree"``) are priced correctly because each
    super^i-step's traffic stays on one level; a flat exchange whose
    messages cross slow upper-level networks is systematically
    *under*-predicted.  This is a real property of the model — the
    reason the paper's algorithms are level-structured — and the
    allreduce tests document it.
    """
    root = check_inputs(params, width, root, "width")
    check_item_bytes(item_bytes)
    if strategy == "direct":
        ledger = CostLedger(f"allreduce-direct(width={width})")
        w = 0.0
        if cpu_rates is not None:
            w = max(
                (params.p - 1) * width * OPS_PER_ITEM / cpu_rates[j]
                for j in range(params.p)
            )
        charge_exchange(
            ledger, params, "super1: direct exchange + combine",
            [width * (params.p - 1) * item_bytes] * params.p, w=w,
        )
        return ledger
    if strategy == "tree":
        ledger = CostLedger(f"allreduce-tree(width={width})")
        ledger.extend(
            predict_reduce_cost(
                params, width, root=root, cpu_rates=cpu_rates, item_bytes=item_bytes
            ),
            "reduce/",
        )
        # The broadcast moves int64 vectors of `width` items.
        bcast_n = width * item_bytes // 4  # predict_broadcast counts 4-byte items
        ledger.extend(
            predict_broadcast(params, bcast_n, root=root, phases="one"),
            "broadcast/",
        )
        return ledger
    raise CollectiveError(f"unknown allreduce strategy {strategy!r}")
