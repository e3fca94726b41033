"""Distributed matrix-vector multiplication on an HBSP^k machine.

``y = A @ x`` with ``A`` an ``n × n`` dense matrix in *row blocks*:
processor ``j`` owns ``counts[j]`` rows (balanced: ``c_j · n``) and
the corresponding slice of ``x``.  One iteration:

1. all-gather the ``x`` slices so everyone holds the full vector
   (each processor contributes ``counts[j]`` entries);
2. local block multiply (compute ∝ rows · n flops);
3. the root gathers the ``y`` slices (for verification / output).

The computation dominates communication for sizeable ``n``, so this is
the regime where the paper's balanced-workload rule pays off in full:
the slowest machine gets proportionally fewer rows and the superstep
barrier stops waiting on it.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.apps.base import CPU_OPS, AppOutcome
from repro.cluster.topology import ClusterTopology
from repro.collectives.allgather import direct_volumes
from repro.collectives.base import make_runtime
from repro.collectives.schedules import (
    RootPolicy,
    WorkloadPolicy,
    resolve_root,
    split_counts,
)
from repro.collectives.steps import everyone_else, exchange
from repro.hbsplib.context import HbspContext
from repro.model.cost import CostLedger
from repro.model.predict import charge_exchange
from repro.util.rng import RngStream

__all__ = ["matvec_program", "run_matvec", "predict_matvec_cost"]


def predict_matvec_cost(params, counts, *, cpu_rates, root):
    """Closed-form cost of one matvec iteration.

    Three super-steps: the direct all-gather of the ``x`` slices
    (8-byte doubles), the local block multiply (``w`` is the slowest
    machine's ``2·rows·n`` flops), and the gather of the ``y`` slices
    onto the root.
    """
    n = int(sum(counts))
    ledger = CostLedger(f"matvec(n={n})")
    item_bytes = 8
    charge_exchange(
        ledger, params, "super1: all-gather x", direct_volumes(counts, item_bytes)
    )
    w = max(
        CPU_OPS["flop"] * counts[j] * n / cpu_rates[j] for j in range(params.p)
    )
    # The root receives everyone else's slice; the others send their own.
    volumes = [c * item_bytes for c in counts]
    volumes[root] = (n - counts[root]) * item_bytes
    charge_exchange(ledger, params, "super2: multiply + gather y", volumes, w=w)
    return ledger


def matvec_program(
    ctx: HbspContext,
    counts: t.Sequence[int],
    root: int,
    seed: int = 0,
) -> t.Generator:
    """Per-process matrix-vector program.

    Returns ``(rows, y_checksum)``; the root returns the checksum of
    the full result vector.
    """
    n = int(sum(counts))
    offsets = np.cumsum([0] + [int(c) for c in counts])
    rows = int(counts[ctx.pid])
    # Deterministic block and slice: A's block rows from a pid-derived
    # stream, x's slice from a shared stream cut by offsets.
    block = RngStream(seed, "matvec-A", ctx.pid).generator.random((rows, n))
    x_full = RngStream(seed, "matvec-x").generator.random(n)
    x_slice = x_full[offsets[ctx.pid] : offsets[ctx.pid + 1]]

    # Step 1: all-gather x (direct exchange of slices).
    pieces = yield from exchange(
        ctx, everyone_else(ctx, x_slice) if x_slice.size else {}
    )
    pieces[ctx.pid] = x_slice
    x = np.concatenate([pieces[j] for j in sorted(pieces)])

    # Step 2: local block multiply.
    yield from ctx.compute(CPU_OPS["flop"] * rows * n)
    y_slice = block @ x

    # Step 3: gather y at the root.
    sending = ctx.pid != root and y_slice.size
    parts = yield from exchange(
        ctx, {root: y_slice} if sending else {}, tag=1000 + ctx.pid
    )
    parts[ctx.pid] = y_slice
    y = np.concatenate([parts[j] for j in sorted(parts)])
    return (rows, float(y.sum()))


def run_matvec(
    topology: ClusterTopology,
    n: int,
    *,
    root: int | RootPolicy | None = None,
    workload: WorkloadPolicy | t.Sequence[int] = WorkloadPolicy.BALANCED,
    scores: t.Mapping[str, float] | None = None,
    seed: int = 0,
) -> AppOutcome:
    """One distributed ``y = A @ x`` iteration with ``A`` of size n × n."""
    runtime = make_runtime(topology, scores=scores)
    root_pid = resolve_root(runtime, root)
    counts = split_counts(runtime, n, workload)
    result = runtime.run(matvec_program, counts, root_pid, seed)
    cpu_rates = [m.cpu_rate for m in runtime.topology.machines]
    return AppOutcome.of(
        f"matvec(n={n})", runtime, result,
        predict_matvec_cost(runtime.params, counts, cpu_rates=cpu_rates, root=root_pid),
    )
