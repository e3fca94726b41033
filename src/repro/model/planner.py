"""Cost-model-driven planning of collective configurations.

Section 3.4: "The HBSP^k model provides the user with ways to
manipulate these costs" — this module turns that claim into an API.
Given calibrated parameters and a problem size, the planner enumerates
the algorithm's discrete choices (which phase scheme per level, which
root) and returns the configuration the cost model predicts to be the
cheapest.  The benchmarks validate the plans against simulation.

The enumeration is batched: every candidate configuration becomes one
point of a single :mod:`repro.model.kernels` evaluation (all ``2^k``
phase combinations, or all ``p`` roots, in one vectorized pass) instead
of a Python loop over scalar ``predict_*`` calls.  The kernels are
bit-identical to the scalar predictors, so the argmin — and the ledger
returned for it — are exactly what the scalar enumeration would pick.
Phase combinations reach the kernel as ``phases`` specs, which it
prices as the plans :func:`~repro.tuning.plan.plan_from_phases` makes
of them — the same evaluation :func:`score_plans` drives with explicit
plans.
"""

from __future__ import annotations

import itertools
import typing as t

import numpy as np

from repro.errors import ModelError
from repro.model.cost import CostLedger
from repro.model.kernels import BroadcastKernel, GatherKernel
from repro.model.params import HBSPParams
from repro.model.predict import predict_broadcast, predict_gather
from repro.tuning.plan import SchedulePlan

__all__ = [
    "best_broadcast_phases",
    "best_root",
    "hierarchy_penalty",
    "rank_plans",
    "score_plans",
]


def best_broadcast_phases(
    params: HBSPParams,
    n: int,
    *,
    root: int | None = None,
) -> tuple[dict[int, str], CostLedger]:
    """The per-level one-/two-phase choice with the lowest predicted cost.

    Enumerates all ``2^k`` combinations (k is small by construction)
    as one kernel grid and returns ``(phases, predicted_ledger)``.  The
    choice captures both Section-4.4 regimes: one-phase for tiny
    fan-outs or when ``r_{i,s} > m``, two-phase otherwise.
    """
    if params.k < 1:
        raise ModelError("broadcast planning needs k >= 1")
    specs = [
        {level: combo[level - 1] for level in range(1, params.k + 1)}
        for combo in itertools.product(("one", "two"), repeat=params.k)
    ]
    grid = BroadcastKernel(params).evaluate(
        np.full(len(specs), n, dtype=np.int64), roots=root, phases=specs
    )
    best = int(np.argmin(grid.totals))  # first minimum, like the scalar scan
    return specs[best], grid.ledger(best)


def _counts_grid(counts: t.Sequence[int] | None, G: int) -> np.ndarray | None:
    """One workload repeated at each of ``G`` grid points (a view)."""
    if counts is None:
        return None
    row = np.asarray(list(counts), dtype=np.int64)
    return np.broadcast_to(row, (G, row.size))


def best_root(
    params: HBSPParams,
    n: int,
    *,
    collective: str = "gather",
    counts: t.Sequence[int] | None = None,
) -> tuple[int, CostLedger]:
    """The root pid with the lowest predicted cost for a collective.

    Supports ``"gather"`` and ``"broadcast"``.  All ``p`` candidate
    roots are evaluated as one kernel grid.  For the gather the model
    recommends the fastest processor (its drain rate dominates the
    h-relation); for the broadcast, the choice barely matters — which
    is itself the paper's finding, visible in the near-tie this
    returns.
    """
    predictors = ("broadcast", "gather")
    if collective not in predictors:
        raise ModelError(
            f"unknown collective {collective!r}; choose from {sorted(predictors)}"
        )
    ns = np.full(params.p, n, dtype=np.int64)
    roots = np.arange(params.p, dtype=np.int64)
    if collective == "gather":
        grid = GatherKernel(params).evaluate(
            ns, roots=roots, counts=_counts_grid(counts, params.p)
        )
    else:
        grid = BroadcastKernel(params).evaluate(ns, roots=roots)
    best = int(np.argmin(grid.totals))
    return best, grid.ledger(best)


def score_plans(
    params: HBSPParams,
    n: int,
    plans: t.Sequence[SchedulePlan],
    *,
    root: int | None = None,
    counts: t.Sequence[int] | None = None,
) -> np.ndarray:
    """Predicted cost of each plan, batched through the kernels.

    All plans must share one op; each becomes one grid point of a
    single :meth:`~repro.model.kernels.GatherKernel.evaluate_plans`
    call.  That call prices by *level*, not by plan: one vectorized
    pass per distinct ``(level, LevelSchedule)`` — ``|choices|·k`` of
    them for a full ``|choices|^k`` space, 15 rather than 375 level
    evaluations for the k = 3 broadcast — and every plan's total is
    assembled from those shared steps, bit-identical to the scalar
    ``predict_*_plan`` enumeration.
    """
    if not plans:
        raise ModelError("score_plans needs at least one plan")
    ops = {plan.op for plan in plans}
    if len(ops) > 1:
        raise ModelError(f"plans mix ops {sorted(ops)!r}")
    op = plans[0].op
    ns = np.full(len(plans), n, dtype=np.int64)
    if op == "gather":
        grid = GatherKernel(params).evaluate_plans(
            ns, list(plans), roots=root, counts=_counts_grid(counts, len(plans))
        )
    else:
        grid = BroadcastKernel(params).evaluate_plans(
            ns, list(plans), roots=root
        )
    return grid.totals


def rank_plans(
    params: HBSPParams,
    n: int,
    plans: t.Sequence[SchedulePlan],
    *,
    root: int | None = None,
    counts: t.Sequence[int] | None = None,
    top: int | None = None,
) -> list[tuple[SchedulePlan, float]]:
    """Plans sorted by predicted cost, cheapest first.

    Ties keep the enumeration order (stable sort), so with
    :func:`repro.tuning.space.enumerate_plans` input the default plan
    wins any exact tie.  ``top`` truncates the ranking.
    """
    totals = score_plans(params, n, plans, root=root, counts=counts)
    order = np.argsort(totals, kind="stable")
    if top is not None:
        order = order[: max(0, int(top))]
    return [(plans[int(i)], float(totals[int(i)])) for i in order]


def hierarchy_penalty(
    params: HBSPParams,
    n: int,
    *,
    collective: str = "gather",
) -> dict[str, float]:
    """Quantify the Section-3.4 penalty of the hierarchical platform.

    Returns ``{"total": T, "penalty": P, "fraction": P/T}`` where ``P``
    is the predicted cost charged by super^i-steps with i >= 2 — the
    part a 1-level machine would not pay.
    """
    if collective == "gather":
        ledger = predict_gather(params, n)
    elif collective == "broadcast":
        ledger = predict_broadcast(params, n)
    else:
        raise ModelError(f"unknown collective {collective!r}")
    total = ledger.total
    penalty = ledger.hierarchy_penalty()
    return {
        "total": total,
        "penalty": penalty,
        "fraction": penalty / total if total > 0 else 0.0,
    }
