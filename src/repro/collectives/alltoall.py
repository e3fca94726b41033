"""The total exchange (all-to-all personalized communication).

Every processor ``i`` holds a distinct block for every other processor
``j``; after the exchange, ``j`` holds blocks from everyone.  This is
the heaviest h-relation of the toolkit and a single superstep: the
heterogeneous h-relation is dominated by the slowest machine's total
send-or-receive volume, which makes the operation a useful stress test
of the cost model's communication term.

Block sizes follow the workload fractions both ways: processor ``i``
sends ``c_i · c_j · n`` items to ``j`` (a doubly-proportional layout,
so both the send and the receive volumes respect machine speeds).
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.bytemark.ranking import partition_items
from repro.cluster.topology import ClusterTopology
from repro.collectives.base import CollectiveOutcome, make_runtime
from repro.collectives.schedules import WorkloadPolicy, split_counts
from repro.collectives.steps import exchange
from repro.hbsplib.context import HbspContext
from repro.model.cost import CostLedger
from repro.model.params import HBSPParams
from repro.model.predict import charge_exchange, check_workload
from repro.util.rng import RngStream
from repro.util.units import BYTES_PER_INT

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan

__all__ = ["alltoall_program", "run_alltoall", "predict_alltoall_cost", "block_counts"]


def block_counts(counts: t.Sequence[int], nprocs: int) -> list[list[int]]:
    """Per-pair block sizes: row ``i`` is what pid ``i`` sends to each pid.

    Row ``i`` partitions ``counts[i]`` proportionally to ``counts``
    (largest-remainder), with the diagonal kept — a processor's own
    block simply stays local.
    """
    n = sum(counts)
    out: list[list[int]] = []
    for i in range(nprocs):
        if n == 0 or counts[i] == 0:
            out.append([0] * nprocs)
            continue
        fractions = {str(j): counts[j] / n for j in range(nprocs)}
        part = partition_items(counts[i], fractions)
        out.append([part[str(j)] for j in range(nprocs)])
    return out


def alltoall_program(
    ctx: HbspContext,
    counts: t.Sequence[int],
    seed: int = 0,
) -> t.Generator:
    """Per-process total-exchange program.

    Returns ``(items_received, checksum)`` where ``items_received``
    includes the local (diagonal) block.
    """
    blocks = block_counts(counts, ctx.nprocs)
    stream = RngStream(seed, "alltoall", ctx.pid)
    outgoing = [
        stream.uniform_ints(blocks[ctx.pid][j], high=2**31 - 1).astype(np.int32)
        for j in range(ctx.nprocs)
    ]
    received = yield from exchange(
        ctx,
        {
            peer: block
            for peer, block in enumerate(outgoing)
            if peer != ctx.pid and block.size
        },
        label="alltoall exchange",
    )
    received[ctx.pid] = outgoing[ctx.pid]
    total = int(sum(a.size for a in received.values()))
    checksum = int(
        sum(int(a.astype(np.int64).sum()) for a in received.values() if a.size)
    )
    return (total, checksum)


def run_alltoall(
    topology: ClusterTopology,
    n: int,
    *,
    workload: WorkloadPolicy | t.Sequence[int] = WorkloadPolicy.BALANCED,
    scores: t.Mapping[str, float] | None = None,
    seed: int = 0,
    faults: "FaultPlan | None" = None,
    delivery: t.Any | None = None,
) -> CollectiveOutcome:
    """Run the total exchange and predict its cost."""
    runtime = make_runtime(
        topology, scores=scores, faults=faults, seed=seed, delivery=delivery,
    )
    counts = split_counts(runtime, n, workload)
    result = runtime.run(alltoall_program, counts, seed)
    return CollectiveOutcome.of(
        f"alltoall(n={n})", runtime, result,
        predict_alltoall_cost(runtime.params, n, counts=counts),
    )


def predict_alltoall_cost(
    params: HBSPParams,
    n: int,
    *,
    counts: t.Sequence[int] | None = None,
    item_bytes: int = BYTES_PER_INT,
) -> CostLedger:
    """Closed-form total-exchange cost (one superstep).

    ``h_{0,j}`` is the larger of pid ``j``'s off-diagonal send and
    receive volumes under the doubly-proportional block layout.
    """
    _, counts = check_workload(params, n, None, counts, item_bytes)
    blocks = block_counts(list(counts), params.p)
    ledger = CostLedger(f"alltoall(n={n})")
    volumes = []
    for j in range(params.p):
        sent = sum(blocks[j]) - blocks[j][j]
        received = sum(blocks[i][j] for i in range(params.p)) - blocks[j][j]
        volumes.append(max(sent, received) * item_bytes)
    charge_exchange(ledger, params, "super1: total exchange", volumes)
    return ledger
