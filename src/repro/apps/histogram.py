"""A map/reduce-shaped distributed histogram on an HBSP^k machine.

Each processor holds ``counts[pid]`` data items (balanced: ``c_j·n``),
bins them locally (compute ∝ items), and the per-bin counts are
combined up the machine tree with the hierarchical reduction — so only
``bins`` integers ever cross each network level, regardless of ``n``.

This is the smallest interesting HBSP^k application: map work is
heterogeneity-sensitive (rule 2: balanced workloads), reduce traffic
is hierarchy-sensitive (coordinators combine before forwarding).
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.apps.base import CPU_OPS, AppOutcome
from repro.cluster.topology import ClusterTopology
from repro.collectives.base import make_items, make_runtime
from repro.collectives.reduce import predict_reduce_cost
from repro.collectives.schedules import (
    RootPolicy,
    WorkloadPolicy,
    resolve_root,
    split_counts,
)
from repro.collectives.steps import combine_up
from repro.hbsplib.context import HbspContext
from repro.model.cost import CostLedger

__all__ = ["histogram_program", "run_histogram", "predict_histogram_cost"]


def predict_histogram_cost(params, counts, bins, *, cpu_rates, root):
    """Closed-form histogram cost: the map step's ``w`` (slowest
    machine's binning work) plus the hierarchical reduction of the bin
    vectors."""
    ledger = CostLedger(f"histogram(n={sum(counts)}, bins={bins})")
    w = max(
        CPU_OPS["count"] * counts[j] / cpu_rates[j] for j in range(params.p)
    )
    ledger.charge("map: local binning", level=1, w=w)
    ledger.extend(
        predict_reduce_cost(
            params, bins, root=root, cpu_rates=cpu_rates, item_bytes=8
        ),
        "reduce/",
    )
    return ledger


def histogram_program(
    ctx: HbspContext,
    counts: t.Sequence[int],
    root: int,
    bins: int = 64,
    seed: int = 0,
) -> t.Generator:
    """Per-process histogram program.

    Returns ``(items_binned, total_in_histogram)``; the root's total
    equals ``sum(counts)``.
    """
    mine = make_items(seed, ctx.pid, counts[ctx.pid])
    yield from ctx.compute(CPU_OPS["count"] * mine.size)
    # Items are non-negative int32, so the remainder needs no widening;
    # bincount returns the int64 bin vector the reduction sums.
    local = np.bincount(mine % bins, minlength=bins)

    # The hierarchical reduction of the bin vectors (unnamed phases).
    acc = yield from combine_up(ctx, root, local, CPU_OPS["count"] * bins)
    return (int(mine.size), int(acc.sum()) if ctx.pid == root else 0)


def run_histogram(
    topology: ClusterTopology,
    n: int,
    *,
    bins: int = 64,
    root: int | RootPolicy | None = None,
    workload: WorkloadPolicy | t.Sequence[int] = WorkloadPolicy.BALANCED,
    scores: t.Mapping[str, float] | None = None,
    seed: int = 0,
) -> AppOutcome:
    """Histogram ``n`` items into ``bins`` buckets at the root."""
    runtime = make_runtime(topology, scores=scores)
    root_pid = resolve_root(runtime, root)
    counts = split_counts(runtime, n, workload)
    result = runtime.run(histogram_program, counts, root_pid, bins, seed)
    cpu_rates = [m.cpu_rate for m in runtime.topology.machines]
    return AppOutcome.of(
        f"histogram(n={n}, bins={bins})", runtime, result,
        predict_histogram_cost(
            runtime.params, counts, bins, cpu_rates=cpu_rates, root=root_pid
        ),
    )
