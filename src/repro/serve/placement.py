"""Carving one shared cluster into placement slices.

The paper's proportional rule assigns each machine ``j`` the fraction
``c_{i,j}`` of a cluster's work that its speed can absorb.  The serving
layer lifts the same idea one level up: concurrent *requests* are
carved across the root cluster's subtrees, and the dispatcher awards
each batch to the idle subtree that would finish it soonest — so over
a saturated session every subtree absorbs work in proportion to its
effective speed on that workload, exactly the ``c_{i,j}`` shares
without anyone computing them explicitly.

Each slice is a full :class:`~repro.cluster.topology.ClusterTopology`
of its own (a bare machine child is wrapped into a singleton cluster
by the topology constructor), so the whole existing runtime — apps,
collectives, tuned schedules, the macro engine — runs inside a slice
unchanged.
"""

from __future__ import annotations

import typing as t

from repro.cluster.machine import MachineSpec
from repro.cluster.topology import Cluster, ClusterTopology
from repro.errors import ServeError

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.dynamics.epochs import Epoch

__all__ = [
    "Slice",
    "carve_slices",
    "pick_slice",
    "rank_slices",
    "restrict_topology",
    "slice_variants",
]


class Slice(t.NamedTuple):
    """One placement target: a subtree and its aggregate speed."""

    index: int
    name: str
    topology: ClusterTopology
    capacity: float  # sum of member cpu_rate (tie-break weight)


def carve_slices(topology: ClusterTopology, placement: str) -> tuple[Slice, ...]:
    """Split ``topology`` into placement slices.

    ``"whole"`` keeps the machine intact (one slice — requests queue
    for the full cluster).  ``"subtrees"`` gives every child of the
    root cluster its own slice; a root with a single child degenerates
    to ``"whole"``.
    """
    if placement == "whole" or len(topology.root.children) < 2:
        return (
            Slice(
                index=0,
                name=topology.root.name,
                topology=topology,
                capacity=_capacity(topology),
            ),
        )
    if placement != "subtrees":
        raise ServeError(f"unknown placement {placement!r}")
    slices = []
    for index, child in enumerate(topology.root.children):
        sliced = ClusterTopology(child)
        slices.append(
            Slice(
                index=index,
                name=getattr(child, "name", f"slice{index}"),
                topology=sliced,
                capacity=_capacity(sliced),
            )
        )
    return tuple(slices)


def _capacity(topology: ClusterTopology) -> float:
    return float(sum(machine.cpu_rate for machine in topology.machines))


def rank_slices(
    placeable: t.Iterable[tuple[int, int]],
    costs: t.Sequence[float],
    slices: t.Sequence[Slice],
) -> list[tuple[int, int]]:
    """``(index, variant)`` pairs, the one finishing a batch soonest first.

    ``variant`` indexes ``costs`` and ``slices``; ``index`` is the base
    slice it serves.  Ties (identical costs — e.g. homogeneous
    subtrees) break toward the higher-capacity variant, then the lower
    index, keeping the choice deterministic and capacity-proportional.
    The order is total, so the first idle pair of a ranking is the pick
    among the idle ones.
    """
    return sorted(
        placeable, key=lambda pair: (costs[pair[1]], -slices[pair[1]].capacity, pair[0])
    )


def pick_slice(
    idle: t.Sequence[int], costs: t.Sequence[float], slices: t.Sequence[Slice]
) -> int:
    """The idle slice finishing this batch soonest (see :func:`rank_slices`)."""
    if not idle:
        raise ServeError("pick_slice needs at least one idle slice")
    return rank_slices([(j, j) for j in idle], costs, slices)[0][0]


def restrict_topology(
    topology: ClusterTopology, present: frozenset[str]
) -> ClusterTopology | None:
    """``topology`` with only the machines named in ``present``.

    Clusters keep their names and networks; a cluster whose whole
    subtree left is dropped.  Returns ``None`` when nothing remains —
    the slice is offline for the epoch.
    """

    def rebuild(node: "Cluster | MachineSpec") -> "Cluster | MachineSpec | None":
        if isinstance(node, MachineSpec):
            return node if node.name in present else None
        kept = [c for c in map(rebuild, node.children) if c is not None]
        if not kept:
            return None
        return Cluster(node.name, node.network, kept)

    root = rebuild(topology.root)
    return None if root is None else ClusterTopology(root)


def slice_variants(
    slices: t.Sequence[Slice], epochs: "t.Sequence[Epoch]"
) -> tuple[tuple[Slice, ...], dict[tuple[int, int], int | None]]:
    """Expand base slices with their per-epoch degraded variants.

    Returns ``(expanded, live)``: ``expanded`` is the base slices
    followed by every *distinct* restricted sub-topology any epoch
    induces (deduplicated by surviving-member set, so ten epochs that
    all lose the same machine share one variant), and
    ``live[(slice_index, epoch_index)]`` maps a base slice to the index
    in ``expanded`` serving it during that epoch — the base index when
    the slice is whole, a variant index when degraded, ``None`` when
    every member is absent (the slice is offline).

    The expansion is what lets one prewarmed
    :class:`~repro.serve.costs.StageCostModel` cover churn: variants
    are ordinary slices, so the model's job universe spans them.
    """
    expanded = list(slices)
    live: dict[tuple[int, int], int | None] = {}
    by_signature: dict[tuple[int, frozenset[str]], int | None] = {}
    for base in slices:
        members = frozenset(m.name for m in base.topology.machines)
        degraded = 0
        for epoch in epochs:
            signature = members & epoch.present
            key = (base.index, signature)
            if key not in by_signature:
                if signature == members:
                    by_signature[key] = base.index
                elif not signature:
                    by_signature[key] = None
                else:
                    sub = restrict_topology(base.topology, signature)
                    assert sub is not None  # signature is non-empty
                    degraded += 1
                    index = len(expanded)
                    expanded.append(
                        Slice(
                            index=index,
                            name=f"{base.name}~deg{degraded}",
                            topology=sub,
                            capacity=_capacity(sub),
                        )
                    )
                    by_signature[key] = index
            live[(base.index, epoch.index)] = by_signature[key]
    return tuple(expanded), live
