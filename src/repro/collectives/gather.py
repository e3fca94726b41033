"""The HBSP^k gather (Sections 4.2–4.3).

"The gather operation uses a single node to collect a unique message
from each of the other nodes."

Algorithm (generalised from the paper's HBSP^1/HBSP^2 descriptions):
level by level, every level-(ℓ-1) coordinator sends its accumulated
items to its level-ℓ coordinator, followed by a cluster-scoped
super^ℓ-step synchronisation; after level ``k`` the root holds all
``n`` items.  A processor never sends to itself, so the root's own
items stay put.

The program runs a :class:`~repro.tuning.plan.SchedulePlan` — per level
a flat fan-in (optionally segmented) or a binomial tree — and the
paper's schedule above is ``default_plan("gather", k)``: a plan-less
call resolves to it on entry and runs the same loops.
"""

from __future__ import annotations

import functools
import typing as t

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.collectives.base import (
    CollectiveOutcome,
    concat_payloads,
    count_and_checksum,
    make_items,
    make_runtime,
)
from repro.collectives.steps import ascend
from repro.collectives.schedules import (
    RootPolicy,
    WorkloadPolicy,
    effective_coordinator,
    level_participants,
    resolve_root,
    split_counts,
)
from repro.hbsplib.context import HbspContext
from repro.model.predict import predict_gather, predict_gather_plan
from repro.tuning.plan import (
    SchedulePlan,
    binomial_rounds,
    check_plan,
    default_plan,
)

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan

__all__ = ["gather_program", "run_gather"]


def gather_program(
    ctx: HbspContext,
    counts: t.Sequence[int],
    root: int,
    seed: int = 0,
    plan: SchedulePlan | None = None,
) -> t.Generator:
    """Per-process gather program.

    ``counts[pid]`` items are generated locally; the program returns
    ``(held_items, checksum)`` — the root ends with ``sum(counts)``
    items, everyone else with 0.  ``plan`` selects per-level flat
    (optionally segmented) or binomial-tree fan-in; ``None`` is the
    default plan, the paper's single-step flat schedule.
    """
    k = ctx.runtime.tree.k
    if plan is None:
        plan = default_plan("gather", k)
    data = make_items(seed, ctx.pid, counts[ctx.pid])
    buffer: list[np.ndarray] = [data]
    for level in range(1, k + 1):
        schedule = plan.level(level)
        if schedule.algorithm == "flat":
            buffer = yield from ascend(
                ctx, level, root, buffer, tag=level,
                label=f"gather up L{level}", segments=schedule.segments,
            )
        else:  # binomial fan-in over the child-coordinator positions
            participants = level_participants(ctx, level, root)
            receiver = effective_coordinator(ctx, level, root)
            C = len(participants)
            own_pos = participants.index(receiver)
            rel = (
                (participants.index(ctx.pid) - own_pos) % C
                if ctx.pid in participants
                else None
            )
            for t_round in range(binomial_rounds(C)):
                half = 1 << t_round
                if rel is not None and rel % (2 * half) == half:
                    target = participants[(own_pos + rel - half) % C]
                    with ctx.phase(
                        f"binomial gather L{level} r{t_round + 1}", level=level
                    ):
                        payload = concat_payloads(buffer)
                        buffer = []
                        yield from ctx.send(target, payload, tag=level)
                yield from ctx.sync(level)
                if rel is not None:
                    buffer.extend(m.payload for m in ctx.messages(tag=level))
    return count_and_checksum(concat_payloads(buffer))


def run_gather(
    topology: ClusterTopology,
    n: int,
    *,
    root: int | RootPolicy | None = None,
    workload: WorkloadPolicy | t.Sequence[int] = WorkloadPolicy.BALANCED,
    scores: t.Mapping[str, float] | None = None,
    seed: int = 0,
    serialize_nic: bool = True,
    faults: "FaultPlan | None" = None,
    delivery: t.Any | None = None,
    macro: bool | None = None,
    plan: SchedulePlan | None = None,
) -> CollectiveOutcome:
    """Run the gather on the simulated machine and predict its cost.

    Parameters mirror the paper's experimental knobs: ``root`` (fastest
    / slowest / explicit pid) and ``workload`` (equal / balanced /
    explicit per-pid counts); ``serialize_nic=False`` is the ablation
    switch of :mod:`repro.experiments.ablations`.  ``macro`` selects
    the macro-event fast path (default: auto on fault-free runs outside
    span tracing; the result is bit-identical either way).  ``plan`` runs an
    explicit :class:`~repro.tuning.plan.SchedulePlan` (e.g. a tuned
    one); ``None`` is the paper's flat schedule,
    ``default_plan("gather", k)`` — the run and the prediction are the
    default plan's and only the outcome and ledger names differ.
    """
    runtime = make_runtime(
        topology, scores=scores, serialize_nic=serialize_nic,
        faults=faults, seed=seed, delivery=delivery, macro=macro,
    )
    if plan is None:
        plan, tag = default_plan("gather", runtime.params.k), ""
        predict = predict_gather
    else:
        tag = f", plan={check_plan(plan, 'gather', runtime.params.k).key}"
        predict = functools.partial(predict_gather_plan, plan=plan)
    root_pid = resolve_root(runtime, root)
    counts = split_counts(runtime, n, workload)
    result = runtime.run(gather_program, counts, root_pid, seed, plan)
    return CollectiveOutcome.of(
        f"gather(n={n}, root=pid{root_pid}{tag})", runtime, result,
        predict(runtime.params, n, root=root_pid, counts=counts),
    )
