"""The HBSP^k one-to-all broadcast (Sections 4.4–4.5).

"In the one-to-all broadcast, only the source process has the data
... at the termination of the procedure, each node has a copy."

Two schemes per level (the paper analyses both):

* **one-phase** — the level's coordinator sends the full ``n`` items
  to every participant (one super-step);
* **two-phase** — the coordinator scatters ``n/m`` shares, then the
  participants exchange shares all-to-all (two super-steps; the BSP
  two-phase broadcast of Juurlink & Wijshoff adapted to HBSP^k).

The hierarchical algorithm runs top-down: the root's cluster
distributes across level-``k`` participants, then every cluster
broadcasts internally, concurrently, until all level-0 processors hold
the data.

The program runs a :class:`~repro.tuning.plan.SchedulePlan` — per level
one-phase (optionally segmented), two-phase or a binomial tree.  A
``phases`` spec is the plan :func:`~repro.tuning.plan.plan_from_phases`
makes of it: a plan-less call converts on entry and runs the same loops.
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
from repro.collectives.steps import descend
from repro.collectives.schedules import (
    RootPolicy,
    effective_coordinator,
    level_participants,
    resolve_root,
)
from repro.hbsplib.context import HbspContext
from repro.model.predict import (
    first_phase_shares,
    predict_broadcast,
    predict_broadcast_plan,
)
from repro.tuning.plan import (
    PhaseSpec,
    SchedulePlan,
    binomial_rounds,
    check_plan,
    plan_from_phases,
)

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan

__all__ = ["broadcast_program", "run_broadcast"]

#: Tag space: level * _TAG_STRIDE + share index; full copies use
#: share index _TAG_FULL.
_TAG_STRIDE = 1 << 16
_TAG_FULL = _TAG_STRIDE - 1


def broadcast_program(
    ctx: HbspContext,
    n: int,
    root: int,
    phases: PhaseSpec = "two",
    balanced_shares: bool = False,
    seed: int = 0,
    plan: SchedulePlan | None = None,
) -> t.Generator:
    """Per-process broadcast program.

    Returns ``(items, checksum)``; on success every pid reports ``n``
    items with identical checksums.  ``plan`` is the per-level schedule
    — one-phase (optionally segmented), two-phase, or binomial-tree
    doubling; ``None`` is the plan ``phases`` denotes.
    """
    k = ctx.runtime.tree.k
    if plan is None:
        plan = plan_from_phases(phases, k)
    data: np.ndarray | None = (
        make_items(seed, root, n) if ctx.pid == root else None
    )
    for level in range(k, 0, -1):
        schedule = plan.level(level)
        mode = schedule.algorithm
        if mode == "one":
            pieces = yield from descend(
                ctx, level, root, data, tag=level * _TAG_STRIDE + _TAG_FULL,
                label=f"broadcast full L{level}", segments=schedule.segments,
            )
            if pieces:
                data = concat_payloads(pieces)
            continue
        participants = level_participants(ctx, level, root)
        coordinator = effective_coordinator(ctx, level, root)
        am_participant = ctx.pid in participants
        if mode == "binomial":
            # Doubling over the child-coordinator positions, rotated so
            # the coordinator holds relative position 0: in round t
            # every holder q < 2^t forwards the payload to q + 2^t.
            C = len(participants)
            own_pos = participants.index(coordinator)
            rel = (
                (participants.index(ctx.pid) - own_pos) % C
                if am_participant
                else None
            )
            for t_round in range(binomial_rounds(C)):
                half = 1 << t_round
                if (
                    rel is not None
                    and data is not None
                    and rel < half
                    and rel + half < C
                ):
                    target = participants[(own_pos + rel + half) % C]
                    with ctx.phase(
                        f"binomial bcast L{level} r{t_round + 1}", level=level
                    ):
                        yield from ctx.send(
                            target, data, tag=level * _TAG_STRIDE + _TAG_FULL
                        )
                yield from ctx.sync(level)
                arrived = ctx.messages(tag=level * _TAG_STRIDE + _TAG_FULL)
                if arrived and rel is not None:
                    data = arrived[0].payload
        else:
            m = len(participants)
            my_index = participants.index(ctx.pid) if am_participant else -1
            my_share: np.ndarray | None = None
            if ctx.pid == coordinator and data is not None:
                with ctx.phase(f"broadcast scatter L{level}", level=level):
                    params = ctx.runtime.params
                    node = ctx.runtime._ancestor(ctx.pid, level)
                    children = params.children_of(node.level, node.index)
                    shares = first_phase_shares(params, children, n, balanced_shares)
                    offsets = np.cumsum([0] + shares)
                    for i, peer in enumerate(participants):
                        piece = data[offsets[i] : offsets[i + 1]]
                        if peer == ctx.pid:
                            my_share = piece
                        else:
                            yield from ctx.send(peer, piece, tag=level * _TAG_STRIDE + i)
            yield from ctx.sync(level)
            if am_participant and my_share is None:
                arrived = ctx.messages()
                if arrived:
                    my_index = arrived[0].tag - level * _TAG_STRIDE
                    my_share = arrived[0].payload
            # Phase two: total exchange of shares among participants.
            if am_participant and my_share is not None:
                with ctx.phase(f"broadcast exchange L{level}", level=level):
                    yield from ctx.send_each(
                        [peer for peer in participants if peer != ctx.pid],
                        my_share, tag=level * _TAG_STRIDE + my_index,
                    )
            yield from ctx.sync(level)
            if am_participant:
                by_index: dict[int, np.ndarray] = {}
                if my_share is not None:
                    by_index[my_index] = my_share
                for message in ctx.messages():
                    by_index[message.tag - level * _TAG_STRIDE] = message.payload
                if by_index:
                    data = concat_payloads(
                        [by_index[i] for i in sorted(by_index)]
                    )
    return count_and_checksum(data)


def run_broadcast(
    topology: ClusterTopology,
    n: int,
    *,
    root: int | RootPolicy | None = None,
    phases: PhaseSpec = "two",
    balanced_shares: bool = False,
    scores: t.Mapping[str, float] | None = None,
    seed: int = 0,
    faults: "FaultPlan | None" = None,
    delivery: t.Any | None = None,
    macro: bool | None = None,
    plan: SchedulePlan | None = None,
) -> CollectiveOutcome:
    """Run the one-to-all broadcast and predict its cost.

    ``phases`` selects one-/two-phase per level (a single string
    applies everywhere).  ``balanced_shares`` distributes first-phase
    shares by the ``c_j`` fractions instead of equally (Fig. 4(b)).
    ``macro`` selects the macro-event fast path (default: auto on
    fault-free runs outside span tracing; the result is bit-identical
    either way).
    ``plan`` runs an explicit :class:`~repro.tuning.plan.SchedulePlan`
    (overriding ``phases``); ``None`` is ``plan_from_phases(phases, k)``
    — the run and the prediction are that plan's and only the outcome
    and ledger names say ``phases=``.
    """
    runtime = make_runtime(
        topology, scores=scores, faults=faults, seed=seed, delivery=delivery, macro=macro,
    )
    if plan is None:
        plan, tag = plan_from_phases(phases, runtime.params.k), f"phases={phases!r}"
        predict = functools.partial(predict_broadcast, phases=phases)
    else:
        tag = f"plan={check_plan(plan, 'broadcast', runtime.params.k).key}"
        predict = functools.partial(predict_broadcast_plan, plan=plan)
    root_pid = resolve_root(runtime, root)
    result = runtime.run(
        broadcast_program, n, root_pid, phases, balanced_shares, seed, plan
    )
    fractions = (
        [runtime.fraction_of(j) for j in range(runtime.nprocs)]
        if balanced_shares
        else None
    )
    return CollectiveOutcome.of(
        f"broadcast(n={n}, root=pid{root_pid}, {tag})", runtime, result,
        predict(runtime.params, n, root=root_pid, fractions=fractions),
    )
