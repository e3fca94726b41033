"""Root-selection and workload-distribution policies.

The paper's experiments vary exactly two knobs (Section 5.1):

* **who is the root** — ``P_f`` (fastest, the model's recommendation)
  vs ``P_s`` (slowest, the adversarial baseline), giving ``T_f``/``T_s``;
* **how the workload is split** — equal shares ``c_j = 1/p``
  (unbalanced, ``T_u``) vs BYTEmark-proportional shares (balanced,
  ``T_b``).

This module centralises those policies plus the coordinator override
that re-roots a hierarchical collective on an arbitrary processor.
"""

from __future__ import annotations

import enum
import typing as t

from repro.errors import CollectiveError
from repro.hbsplib.context import HbspContext
from repro.hbsplib.runtime import HbspRuntime

__all__ = [
    "RootPolicy",
    "SchedulePolicy",
    "WorkloadPolicy",
    "resolve_root",
    "resolve_plan",
    "effective_coordinator",
    "split_counts",
    "level_participants",
]


class RootPolicy(enum.Enum):
    """Which processor acts as the collective's root."""

    FASTEST = "fastest"  #: the paper's recommendation: P_f
    SLOWEST = "slowest"  #: the adversarial baseline: P_s


class WorkloadPolicy(enum.Enum):
    """How the problem is split across processors."""

    EQUAL = "equal"  #: homogeneous baseline: c_j = 1/p (T_u)
    BALANCED = "balanced"  #: speed-proportional c_j from scores (T_b)


class SchedulePolicy(enum.Enum):
    """Which per-level schedule a gather/broadcast runs."""

    DEFAULT = "default"  #: the paper's hand-picked schedule
    TUNED = "tuned"  #: auto-tuned via :mod:`repro.tuning` (cached)


def resolve_plan(
    topology: t.Any,
    op: str,
    n: int,
    schedule: "SchedulePolicy | str | None",
    *,
    root: "int | RootPolicy | None" = None,
) -> t.Any:
    """Turn a :class:`SchedulePolicy` into a plan argument for ``run_*``.

    ``DEFAULT``/``None`` returns ``None`` (the built-in schedule);
    ``TUNED`` consults the persistent decision cache — tuning cold on a
    first encounter — and returns the winning
    :class:`~repro.tuning.plan.SchedulePlan`.  Only ``gather`` and
    ``broadcast`` are tunable; ``TUNED`` on another op raises.
    """
    if isinstance(schedule, str):
        schedule = SchedulePolicy(schedule)
    if schedule in (None, SchedulePolicy.DEFAULT):
        return None
    if op not in ("gather", "broadcast"):
        raise CollectiveError(
            f"--schedule tuned supports gather/broadcast, not {op!r}"
        )
    from repro.tuning.tuner import tuned_plan

    return tuned_plan(topology, op, n, root=root)


def resolve_root(runtime: HbspRuntime, root: int | RootPolicy | None) -> int:
    """Turn a root spec (pid, policy, or None=fastest) into a pid."""
    if root is None or root is RootPolicy.FASTEST:
        return runtime.fastest_pid
    if root is RootPolicy.SLOWEST:
        return runtime.slowest_pid
    if isinstance(root, bool) or not isinstance(root, int):
        raise CollectiveError(f"root must be a pid or RootPolicy, got {root!r}")
    if not 0 <= root < runtime.nprocs:
        raise CollectiveError(f"root pid {root} out of range [0, {runtime.nprocs})")
    return root


def effective_coordinator(ctx: HbspContext, level: int, root: int) -> int:
    """Coordinator of ``ctx``'s level-``level`` cluster, honouring ``root``.

    The cluster chain that contains the chosen root is coordinated by
    the root itself at every level (so the data ends up — or starts —
    on the requested processor); every other cluster keeps its default
    (fastest-member) coordinator, per Section 3.1.

    Every pid asks this every superstep, so the answer for all pids is
    one table per ``(level, root)``, built on first use.
    """
    if level == 0:
        return ctx.pid
    runtime = ctx.runtime
    cache = runtime._schedule_cache
    key = ("coordinators", level, root)
    table = cache.get(key)
    if table is None:
        runtime._ancestor(ctx.pid, level)  # raises for a level the tree lacks
        table = [0] * runtime.nprocs
        for node in runtime.tree.level_nodes(level):
            # ``.get``: a root outside the machine is a member of no cluster.
            coordinator = (
                root if runtime._ancestor_of.get((root, level)) is node else node.coordinator
            )
            for pid in node.members:
                table[pid] = coordinator
        cache[key] = table
    return table[ctx.pid]


def level_participants(ctx: HbspContext, level: int, root: int) -> list[int]:
    """The processes active in a super^level-step of ``ctx``'s cluster.

    These are the coordinators of the child subtrees of ``ctx``'s
    level-``level`` ancestor cluster (honouring the ``root`` override);
    at ``level = 1`` this is simply every member processor.
    """
    node = ctx.runtime._ancestor(ctx.pid, level)
    cache = ctx.runtime._schedule_cache
    key = ("participants", id(node), root)
    out = cache.get(key)
    if out is None:
        out = []
        for child in node.children:
            if root in child.members:
                out.append(root)
            else:
                out.append(child.coordinator)
        cache[key] = out
    return out


def split_counts(
    runtime: HbspRuntime,
    n: int,
    workload: WorkloadPolicy | t.Sequence[int],
) -> list[int]:
    """Per-pid item counts for ``n`` items under a workload policy.

    Accepts an explicit counts sequence (validated to conserve ``n``)
    or a :class:`WorkloadPolicy`.
    """
    if isinstance(workload, WorkloadPolicy):
        return runtime.partition(n, balanced=(workload is WorkloadPolicy.BALANCED))
    counts = [int(c) for c in workload]
    if len(counts) != runtime.nprocs:
        raise CollectiveError(
            f"counts must have {runtime.nprocs} entries, got {len(counts)}"
        )
    if any(c < 0 for c in counts):
        raise CollectiveError("counts must be non-negative")
    if sum(counts) != n:
        raise CollectiveError(f"counts sum to {sum(counts)}, expected n={n}")
    return counts
