"""A 1-D Jacobi solver on an HBSP^k machine (iterative supersteps).

Solves the discrete Poisson problem ``-u'' = f`` on [0, 1] with
``u(0) = u(1) = 0`` by Jacobi iteration.  The grid is split into
contiguous blocks proportional to machine speed; every iteration is
one superstep: exchange halo cells with the pid-order neighbours, then
update the interior (compute ∝ block size).  Every ``check_every``
iterations the processes compute a global residual with an all-reduce
(reduce to the fastest machine + broadcast) and stop early once it
drops below ``tol``.

This is the library's long-running application: hundreds of supersteps
whose per-step communication is tiny (two halo cells) while the
computation is balanced by ``c_j`` — the steady-state regime BSP-style
models are built for.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.apps.base import AppOutcome
from repro.cluster.topology import ClusterTopology
from repro.collectives.base import make_runtime
from repro.collectives.schedules import (
    RootPolicy,
    WorkloadPolicy,
    resolve_root,
    split_counts,
)
from repro.collectives.steps import everyone_else, exchange
from repro.errors import CollectiveError
from repro.hbsplib.context import HbspContext

__all__ = ["jacobi_program", "run_jacobi"]

_HALO_L = 1
_HALO_R = 2
_RESIDUAL = 3
_VERDICT = 4

#: CPU work units per grid cell per Jacobi update (2 adds, 1 mul, 1 store).
_OPS_PER_CELL = 4.0


def jacobi_program(
    ctx: HbspContext,
    counts: t.Sequence[int],
    root: int,
    max_iterations: int = 200,
    check_every: int = 25,
    tol: float = 1e-2,
) -> t.Generator:
    """Per-process Jacobi program.

    Returns ``(cells, iterations, final_residual, checksum)``; the
    residual is the global max-norm of ``A u - b`` at the last check.
    """
    n = int(sum(counts))
    offsets = np.cumsum([0] + [int(c) for c in counts])
    lo, hi = int(offsets[ctx.pid]), int(offsets[ctx.pid + 1])
    cells = hi - lo
    h = 1.0 / (n + 1)
    # f = 1 everywhere; the solution is u(x) = x(1-x)/2.
    f_h2 = h * h  # f_i * h^2
    u = np.zeros(cells)
    left_neighbor = ctx.pid - 1 if ctx.pid > 0 else None
    right_neighbor = ctx.pid + 1 if ctx.pid < ctx.nprocs - 1 else None

    iterations = 0
    residual = float("inf")
    while iterations < max_iterations:
        # Halo exchange.
        if left_neighbor is not None and cells:
            yield from ctx.send(left_neighbor, float(u[0]), tag=_HALO_R)
        if right_neighbor is not None and cells:
            yield from ctx.send(right_neighbor, float(u[-1]), tag=_HALO_L)
        yield from ctx.sync()
        left_halo = 0.0
        right_halo = 0.0
        for message in ctx.messages(tag=_HALO_L):
            left_halo = message.payload
        for message in ctx.messages(tag=_HALO_R):
            right_halo = message.payload

        # Jacobi update of the block.  The convergence measure is the
        # true equation residual max|(u_{i-1} - 2u_i + u_{i+1})/h² + f|
        # (per-iteration *change* would look converged immediately,
        # because each Jacobi step only moves values by O(h²)).
        yield from ctx.compute(_OPS_PER_CELL * cells)
        padded = np.concatenate(([left_halo], u, [right_halo]))
        u = 0.5 * (padded[:-2] + padded[2:] + f_h2)
        iterations += 1

        # Periodic global convergence check (reduce + broadcast), on
        # the residual of the pre-update values ``padded[1:-1]``.
        if iterations % check_every == 0 or iterations == max_iterations:
            local_residual = (
                float(
                    np.abs(
                        (padded[:-2] - 2 * padded[1:-1] + padded[2:]) / (h * h) + 1.0
                    ).max()
                )
                if cells
                else 0.0
            )
            am_root = ctx.pid == root
            arrived = yield from exchange(
                ctx, {} if am_root else {root: local_residual}, tag=_RESIDUAL
            )
            residual = max([local_residual, *arrived.values()])
            verdict = yield from exchange(
                ctx, everyone_else(ctx, residual) if am_root else {}, tag=_VERDICT
            )
            if not am_root:
                residual = verdict[root]
            if residual < tol:
                break

    checksum = float(u.sum()) if cells else 0.0
    return (cells, iterations, residual, checksum)


def run_jacobi(
    topology: ClusterTopology,
    n: int,
    *,
    max_iterations: int = 200,
    check_every: int = 25,
    tol: float = 1e-2,
    root: int | RootPolicy | None = None,
    workload: WorkloadPolicy | t.Sequence[int] = WorkloadPolicy.BALANCED,
    scores: t.Mapping[str, float] | None = None,
) -> AppOutcome:
    """Solve the n-point 1-D Poisson problem by distributed Jacobi."""
    runtime = make_runtime(topology, scores=scores)
    if n < 4 * runtime.nprocs:
        raise CollectiveError(
            f"need n >= 4p grid points (n={n}, p={runtime.nprocs})"
        )
    root_pid = resolve_root(runtime, root)
    counts = split_counts(runtime, n, workload)
    result = runtime.run(
        jacobi_program, counts, root_pid, max_iterations, check_every, tol
    )
    return AppOutcome.of(f"jacobi(n={n}, max_iter={max_iterations})", runtime, result)
