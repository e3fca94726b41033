"""The HBSP^k all-to-one reduction.

Every processor holds a vector of ``width`` items; the root must end
with the element-wise combination (sum by default) of all ``p``
vectors.  Hierarchical algorithm (dissertation [20] toolkit): like the
gather, but each coordinator *combines* arriving vectors with its own
before forwarding, so only ``width`` items ever cross each link — the
communication saving over gather is exactly what the hierarchy buys.

Combination work is charged to the coordinator's CPU (``width`` work
units per arriving vector, scaled by ``ops_per_item``).
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.collectives.base import CollectiveOutcome, count_and_checksum, make_items, make_runtime
from repro.collectives.schedules import RootPolicy, resolve_root
from repro.collectives.steps import combine_up
from repro.hbsplib.context import HbspContext
from repro.model.cost import CostLedger
from repro.model.params import HBSPParams
from repro.model.predict import charge_fan, check_inputs, check_item_bytes, clusters

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan

__all__ = ["reduce_program", "run_reduce", "predict_reduce_cost"]

#: CPU work units charged per combined item (reduce, allreduce, scan).
OPS_PER_ITEM = 1.0


def reduce_program(
    ctx: HbspContext,
    width: int,
    root: int,
    seed: int = 0,
) -> t.Generator:
    """Per-process reduction program (element-wise sum).

    Returns ``(items, checksum)``; the root's checksum equals the sum
    over all processors' vectors.
    """
    acc = make_items(seed, ctx.pid, width).astype(np.int64)
    acc = yield from combine_up(ctx, root, acc, width * OPS_PER_ITEM, "reduce")
    return count_and_checksum(acc if ctx.pid == root else None)


def run_reduce(
    topology: ClusterTopology,
    width: int,
    *,
    root: int | RootPolicy | None = None,
    scores: t.Mapping[str, float] | None = None,
    seed: int = 0,
    faults: "FaultPlan | None" = None,
    delivery: t.Any | None = None,
) -> CollectiveOutcome:
    """Run the reduction on the simulated machine and predict its cost."""
    runtime = make_runtime(
        topology, scores=scores, faults=faults, seed=seed, delivery=delivery,
    )
    root_pid = resolve_root(runtime, root)
    result = runtime.run(reduce_program, width, root_pid, seed)
    cpu_rates = [m.cpu_rate for m in runtime.topology.machines]
    return CollectiveOutcome.of(
        f"reduce(width={width}, root=pid{root_pid})", runtime, result,
        predict_reduce_cost(runtime.params, width, root=root_pid, cpu_rates=cpu_rates),
    )


def predict_reduce_cost(
    params: HBSPParams,
    width: int,
    *,
    root: int | None = None,
    cpu_rates: t.Sequence[float] | None = None,
    item_bytes: int = 8,  # vectors travel as int64 accumulators
) -> CostLedger:
    """Closed-form reduction cost.

    At each level every sender moves ``width`` items; the receiving
    coordinator takes ``(children - 1) · width`` and combines them at
    ``OPS_PER_ITEM`` work per item (``w`` term, needing ``cpu_rates``
    in level-0 order; combination time is 0 when omitted).
    """
    root = check_inputs(params, width, root, "width")
    check_item_bytes(item_bytes)
    ledger = CostLedger(f"reduce(k={params.k}, width={width})")
    for level in range(1, params.k + 1):
        level_clusters = clusters(params, level, root, singletons=False)
        volumes = [[width * item_bytes] * len(c[1]) for c in level_clusters]
        work = None
        if cpu_rates is not None:
            work = [
                (len(children) - 1) * width * OPS_PER_ITEM / cpu_rates[coord]
                for _, children, *_, coord in level_clusters
            ]
        charge_fan(
            ledger, params.g, level, level_clusters, volumes, "reduce into", work=work
        )
    return ledger
