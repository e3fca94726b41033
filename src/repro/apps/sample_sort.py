"""Parallel sample sort on an HBSP^k machine.

The classic BSP sorting benchmark, adapted to heterogeneity with the
paper's design rules:

1. each processor holds ``counts[pid]`` items (balanced: ``c_j·n``) and
   sorts them locally (compute ∝ m·log m);
2. each processor draws ``p`` regular samples and sends them to the
   fastest processor (a gather of the sample matrix);
3. the root merges the samples, picks ``p−1`` splitters, and
   broadcasts them (two-phase);
4. processors partition their sorted runs by the splitters and perform
   a total exchange — bucket ``i`` goes to processor ``i``;
5. each processor merges its incoming runs; processor ``i``'s items
   are all ≤ processor ``i+1``'s.

Heterogeneity note: under the balanced policy the root places the
splitters at the *c-weighted* quantiles of the sample pool, so bucket
``i`` holds ≈ ``c_i·n`` items — slow machines receive smaller buckets
to merge, not just smaller initial shards.  Under the equal policy the
splitters sit at uniform quantiles, recovering the homogeneous
algorithm.
"""

from __future__ import annotations

import math
import typing as t

import numpy as np

from repro.apps.base import CPU_OPS, AppOutcome
from repro.cluster.topology import ClusterTopology
from repro.collectives.base import make_items, make_runtime
from repro.collectives.schedules import (
    RootPolicy,
    WorkloadPolicy,
    resolve_root,
    split_counts,
)
from repro.collectives.steps import everyone_else, exchange
from repro.hbsplib.context import HbspContext

__all__ = ["sample_sort_program", "run_sample_sort"]

_SAMPLES_TAG = 1
_SPLITTERS_TAG = 2

#: Sample-pool oversampling factor (pool size ~ p^2 * this).
_OVERSAMPLE = 4


def _sort_work(m: int) -> float:
    """CPU work units for a local comparison sort of ``m`` items."""
    return CPU_OPS["compare"] * m * max(1.0, math.log2(max(m, 2)))


def sample_sort_program(
    ctx: HbspContext,
    counts: t.Sequence[int],
    root: int,
    balanced_buckets: bool = True,
    seed: int = 0,
) -> t.Generator:
    """Per-process sample-sort program.

    Returns ``(held, lo, hi, sorted_ok, checksum)`` for verification:
    concatenating the per-pid outputs in pid order yields the sorted
    multiset of all inputs.
    """
    p = ctx.nprocs
    mine = np.sort(make_items(seed, ctx.pid, counts[ctx.pid]))
    yield from ctx.compute(_sort_work(mine.size))

    # Step 2: regular sampling -> root.  The sample count is
    # proportional to the local shard (target pool size ~ p^2 *
    # OVERSAMPLE), so each pool entry represents the same number of
    # items and pool quantiles approximate *global* quantiles even
    # under unequal shards.
    n = max(1, int(sum(counts)))
    target_pool = p * p * _OVERSAMPLE
    my_samples = max(1, round(mine.size * target_pool / n)) if mine.size else 0
    if my_samples:
        positions = np.linspace(0, mine.size - 1, num=my_samples, dtype=np.int64)
        samples = mine[positions]
    else:
        samples = np.empty(0, dtype=mine.dtype)
    arrived = yield from exchange(
        ctx, {} if ctx.pid == root else {root: samples}, tag=_SAMPLES_TAG
    )

    # Step 3: splitter selection and broadcast.
    outgoing = {}
    if ctx.pid == root:
        pools = [samples, *arrived.values()]
        pool = np.sort(np.concatenate([s for s in pools if s.size]))
        yield from ctx.compute(_sort_work(pool.size))
        if pool.size >= p - 1 and p > 1:
            if balanced_buckets:
                # c-weighted quantiles: bucket i gets ~c_i of the data.
                fractions = np.array(
                    [ctx.fraction_of(j) for j in range(p)], dtype=float
                )
                cuts = np.cumsum(fractions)[:-1]
            else:
                cuts = np.arange(1, p) / p
            positions = np.clip(
                np.round(cuts * (pool.size - 1)).astype(np.int64), 0, pool.size - 1
            )
            splitters = pool[positions]
        else:
            splitters = np.empty(0, dtype=mine.dtype)
        outgoing = everyone_else(ctx, splitters)
    arrived = yield from exchange(ctx, outgoing, tag=_SPLITTERS_TAG)
    if ctx.pid != root:
        splitters = arrived[root]

    # Step 4: partition into buckets and exchange.
    boundaries = np.searchsorted(mine, splitters, side="right")
    buckets = np.split(mine, boundaries)
    yield from ctx.compute(CPU_OPS["bucket"] * mine.size)
    arrived = yield from exchange(
        ctx,
        {
            peer: bucket
            for peer, bucket in enumerate(buckets)
            if peer != ctx.pid and bucket.size
        },
        tag=100 + ctx.pid,
    )

    # Step 5: merge incoming runs with the local bucket.
    runs = [buckets[ctx.pid], *arrived.values()]
    held = np.sort(np.concatenate([r for r in runs if r.size])) if any(
        r.size for r in runs
    ) else np.empty(0, dtype=mine.dtype)
    yield from ctx.compute(_sort_work(held.size))

    lo = int(held[0]) if held.size else None
    hi = int(held[-1]) if held.size else None
    sorted_ok = bool(np.all(held[1:] >= held[:-1]))
    checksum = int(held.astype(np.int64).sum()) if held.size else 0
    return (int(held.size), lo, hi, sorted_ok, checksum)


def run_sample_sort(
    topology: ClusterTopology,
    n: int,
    *,
    root: int | RootPolicy | None = None,
    workload: WorkloadPolicy | t.Sequence[int] = WorkloadPolicy.BALANCED,
    scores: t.Mapping[str, float] | None = None,
    seed: int = 0,
) -> AppOutcome:
    """Sort ``n`` uniformly distributed integers on the machine."""
    runtime = make_runtime(topology, scores=scores)
    root_pid = resolve_root(runtime, root)
    counts = split_counts(runtime, n, workload)
    balanced_buckets = (
        workload is WorkloadPolicy.BALANCED
        if isinstance(workload, WorkloadPolicy)
        else True
    )
    result = runtime.run(
        sample_sort_program, counts, root_pid, balanced_buckets, seed
    )
    return AppOutcome.of(f"sample_sort(n={n})", runtime, result)
