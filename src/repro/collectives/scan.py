"""Parallel prefix sums (scan) over per-processor vectors.

Processor ``j`` holds a vector ``v_j``; after the scan it holds the
inclusive prefix ``v_0 + v_1 + ... + v_j`` (element-wise).  We use the
classic one-superstep BSP algorithm from the communication-primitives
literature the paper builds on [11]: every processor sends its vector
to all higher-numbered processors, then locally combines what arrived.

The combine work is proportional to the processor's *position*, so the
scan is an interesting case for the model: the highest-numbered
processor does the most computation, and placing slow machines at high
positions is visibly penalised — the ``order`` knob and its benchmark
demonstrate the effect.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.collectives.base import CollectiveOutcome, count_and_checksum, make_items, make_runtime
from repro.collectives.reduce import OPS_PER_ITEM
from repro.collectives.steps import combine, exchange
from repro.hbsplib.context import HbspContext
from repro.model.cost import CostLedger
from repro.model.params import HBSPParams
from repro.model.predict import charge_exchange, check_inputs, check_item_bytes

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan

__all__ = ["scan_program", "run_scan", "predict_scan_cost"]


def scan_program(
    ctx: HbspContext,
    width: int,
    seed: int = 0,
) -> t.Generator:
    """Per-process inclusive-scan program.

    Returns ``(items, checksum)`` of the local prefix result.
    """
    mine = make_items(seed, ctx.pid, width).astype(np.int64)
    lower = yield from exchange(
        ctx,
        {peer: mine for peer in range(ctx.pid + 1, ctx.nprocs)},
        label="scan exchange",
    )
    acc = yield from combine(
        ctx, mine, lower.values(), width * OPS_PER_ITEM, "scan combine"
    )
    return count_and_checksum(acc)


def run_scan(
    topology: ClusterTopology,
    width: int,
    *,
    scores: t.Mapping[str, float] | None = None,
    seed: int = 0,
    faults: "FaultPlan | None" = None,
    delivery: t.Any | None = None,
) -> CollectiveOutcome:
    """Run the prefix-sum scan and predict its cost."""
    runtime = make_runtime(
        topology, scores=scores, faults=faults, seed=seed, delivery=delivery,
    )
    result = runtime.run(scan_program, width, seed)
    cpu_rates = [m.cpu_rate for m in runtime.topology.machines]
    return CollectiveOutcome.of(
        f"scan(width={width})", runtime, result,
        predict_scan_cost(runtime.params, width, cpu_rates=cpu_rates),
    )


def predict_scan_cost(
    params: HBSPParams,
    width: int,
    *,
    cpu_rates: t.Sequence[float] | None = None,
    item_bytes: int = 8,  # vectors travel as int64 accumulators
) -> CostLedger:
    """Closed-form scan cost (one superstep).

    ``h_{0,j} = width · max(p - 1 - j, j)`` (sends to higher pids,
    receives from lower pids); combine work at pid ``j`` is
    ``j · width`` items, so ``w`` is the slowest such combination when
    ``cpu_rates`` are supplied.
    """
    check_inputs(params, width, None, "width")
    check_item_bytes(item_bytes)
    ledger = CostLedger(f"scan(width={width})")
    p = params.p
    if p == 1:
        return ledger
    w = 0.0
    if cpu_rates is not None:
        w = max(j * width * OPS_PER_ITEM / cpu_rates[j] for j in range(p))
    charge_exchange(
        ledger, params, "super1: scan exchange + combine",
        [width * max(p - 1 - j, j) * item_bytes for j in range(p)], w=w,
    )
    return ledger
