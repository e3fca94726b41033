"""The three communication steps every collective and application is made of.

An **ascent** (:func:`ascend`; :func:`combine_up` is the reduction that
chains them), a **descent** (:func:`descend`; :func:`descend_tree` is the
one-phase broadcast that chains them) and a **flat exchange**
(:func:`exchange`): plain generator functions used with ``yield from``.
The caller passes the message tag and the phase label, so a composition
emits the same messages, supersteps and spans as the loop it stands for.
Each has one cost body in :mod:`repro.model.predict`; DESIGN.md §5 lists
who composes what.
"""

from __future__ import annotations

import contextlib
import typing as t

import numpy as np

from repro.collectives.base import concat_payloads
from repro.collectives.schedules import effective_coordinator, level_participants
from repro.hbsplib.context import HbspContext
from repro.tuning.plan import segment_bounds, segment_suffix

__all__ = [
    "ascend", "combine", "combine_up", "descend", "descend_tree", "everyone_else",
    "exchange",
]


def _phase(ctx: HbspContext, label: str | None, **args: t.Any) -> t.ContextManager:
    """``ctx.phase(label)``, or nothing for a step the caller leaves unnamed."""
    return ctx.phase(label, **args) if label else contextlib.nullcontext()


def ascend(
    ctx: HbspContext, level: int, root: int, held: list[np.ndarray], *,
    tag: int, label: str | None = None, segments: int = 1,
) -> t.Generator:
    """One ascent step of ``ctx``'s level-``level`` cluster.

    The level-(ℓ−1) coordinator sends the arrays it holds, concatenated,
    to the level-ℓ coordinator — in ``segments`` chunks, one super-step
    each — then ``sync(level)``.  A processor never sends to itself.
    Returns the arrays the process holds afterwards: none for a sender,
    its own followed by the arrived ones for the receiver.
    """
    sender = effective_coordinator(ctx, level - 1, root)
    receiver = effective_coordinator(ctx, level, root)
    bounds = None
    if ctx.pid == sender and ctx.pid != receiver:
        payload = concat_payloads(held)
        held = []
        bounds = segment_bounds(payload.size, segments)
    for s in range(segments):
        if bounds is not None:
            step_label = label and f"{label}{segment_suffix(s, segments)}"
            with _phase(ctx, step_label, level=level):
                yield from ctx.send(receiver, payload[bounds[s] : bounds[s + 1]], tag=tag)
        yield from ctx.sync(level)
        if ctx.pid == receiver:
            held.extend(m.payload for m in ctx.messages(tag=tag))
    return held


def combine(
    ctx: HbspContext, acc: np.ndarray, arrived: t.Iterable[np.ndarray], work: float,
    label: str | None = None, **args: t.Any,
) -> t.Generator:
    """Fold arrived vectors into ``acc`` (element-wise sum), charging
    ``work`` CPU units per vector; returns the new accumulator."""
    with _phase(ctx, label, **args):
        for vector in arrived:
            yield from ctx.compute(work)
            acc = acc + vector
    return acc


def combine_up(
    ctx: HbspContext, root: int, acc: np.ndarray, work: float, label: str | None = None
) -> t.Generator:
    """The hierarchical reduction: an ascent per level, combining on arrival.

    Every coordinator adds the vectors its children send to its own
    before forwarding, so one vector crosses each link.  Returns the
    accumulator — the total on ``root``, a partial sum elsewhere.
    Phases are named ``<label> up L<ℓ>`` / ``<label> combine L<ℓ>``.
    """
    for level in range(1, ctx.runtime.tree.k + 1):
        held = yield from ascend(
            ctx, level, root, [acc], tag=level, label=label and f"{label} up L{level}"
        )
        if len(held) > 1:
            step_label = label and f"{label} combine L{level}"
            acc = yield from combine(ctx, acc, held[1:], work, step_label, level=level)
    return acc


def descend(
    ctx: HbspContext, level: int, root: int, held: t.Any, *,
    tag: int, label: str, segments: int = 1,
    part: t.Callable[[int], t.Any] | None = None,
) -> t.Generator:
    """One descent step of ``ctx``'s level-``level`` cluster.

    The cluster's coordinator, if it holds anything (``held`` is not
    ``None``), sends every other participant the array ``held`` — in
    ``segments`` chunks, one super-step each — or, given ``part``, child
    subtree ``i``'s ``part(i)`` (``None``: nothing for that child); then
    ``sync(level)``.  Returns the payloads that arrived here, in order —
    empty for everyone but a receiving participant.
    """
    participants = level_participants(ctx, level, root)
    sending = held is not None and ctx.pid == effective_coordinator(ctx, level, root)
    if sending and part is None:
        bounds = segment_bounds(held.size, segments)
        others = [peer for peer in participants if peer != ctx.pid]
    arrived: list = []
    for s in range(segments):
        if sending:
            with ctx.phase(f"{label}{segment_suffix(s, segments)}", level=level):
                if part is None:
                    yield from ctx.send_each(others, held[bounds[s] : bounds[s + 1]], tag=tag)
                else:
                    for i, peer in enumerate(participants):
                        payload = None if peer == ctx.pid else part(i)
                        if payload is not None:
                            yield from ctx.send(peer, payload, tag=tag)
        yield from ctx.sync(level)
        arrived.extend(m.payload for m in ctx.messages(tag=tag))
    return arrived


def descend_tree(
    ctx: HbspContext, root: int, held: np.ndarray | None, *, tag: int, label: str
) -> t.Generator:
    """One-phase broadcast of what ``root`` holds: a descent per level,
    top-down (tags ``tag + ℓ``, phases ``<label> L<ℓ>``).  Returns what
    the process holds afterwards."""
    for level in range(ctx.runtime.tree.k, 0, -1):
        arrived = yield from descend(
            ctx, level, root, held, tag=tag + level, label=f"{label} L{level}"
        )
        if arrived:
            held = arrived[0]
    return held


def everyone_else(ctx: HbspContext, payload: t.Any) -> dict[int, t.Any]:
    """``payload`` addressed to every other processor (for :func:`exchange`)."""
    return {peer: payload for peer in range(ctx.nprocs) if peer != ctx.pid}


def exchange(
    ctx: HbspContext, outgoing: t.Mapping[int, t.Any], *,
    label: str | None = None, tag: int | None = None,
) -> t.Generator:
    """A flat exchange: one super-step over the whole machine.

    Sends ``outgoing[peer]`` to each ``peer`` (tagged with the sender's
    pid unless ``tag`` is given), synchronises, and returns what arrived
    keyed by sender pid, oldest first.
    """
    with _phase(ctx, label):
        for peer, payload in outgoing.items():
            yield from ctx.send(peer, payload, tag=ctx.pid if tag is None else tag)
    yield from ctx.sync()
    return {ctx.pid_of_message(m): m.payload for m in ctx.messages()}
