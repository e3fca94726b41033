"""Vectorized analytic cost kernels: whole grids in one numpy pass.

:mod:`repro.model.predict` walks the HBSP^k tree once per ``(n, root,
workload, plan)`` configuration — fine for a single prediction,
wasteful for the planner's ``2^k x roots`` enumeration, the tuner's
plan spaces and the experiment modules' model-side curves, which
evaluate hundreds of closely-related points.  This module *compiles* a
parameter set once — tree slices, coordinator tables — and then
evaluates an entire grid of configurations with array operations:
per-level ``r·h`` maxima, ``g·h + L`` ledger terms, and workload
subtree sums all become numpy expressions over the grid axis.

One path
--------

``evaluate_plans`` prices per-point
:class:`~repro.tuning.plan.SchedulePlan`s; ``evaluate`` is
``evaluate_plans`` at the paper's hand schedule —
:func:`~repro.tuning.plan.default_plan` for the gather,
:func:`~repro.tuning.plan.plan_from_phases` of each point's phase spec
for the broadcast — and differs only in the ledgers' names.  Both
validate their arguments with the scalar predictors' own checks.

Bit-identity contract
---------------------

The kernels are not approximations.  For every grid point, the charged
``(label, level, gh, L)`` steps and the ledger total are **the same
floats** the scalar
:func:`~repro.model.predict.predict_gather_plan` /
:func:`~repro.model.predict.predict_broadcast_plan` produce — enforced
by ``tests/model/test_plan_kernels.py``, ``tests/model/test_kernels.py``
and the hypothesis suite in ``tests/properties/test_prop_kernels.py``
with exact ``==`` on every component.  This works because the scalar
path is a fixed sequence of IEEE-754 double operations (``r*h``
products, a running max, ``g*h``, ``+ L``) and the vectorized path
performs the *same* operations elementwise; integer workload arithmetic
(subtree sums, chunk sizes, two-phase shares) is exact in int64.  The
only knowingly scalar piece is
:func:`~repro.bytemark.ranking.partition_items` (largest-remainder
with string-keyed tie-breaks), which runs once per *unique* ``n``
rather than once per grid point.

Usage
-----

>>> kernel = GatherKernel(params)
>>> grid = kernel.evaluate(ns, roots=roots)      # one pass, G points
>>> grid.totals                                  # (G,) float64
>>> grid.ledger(3)                               # == predict_gather(...)
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing as t

import numpy as np

from repro.bytemark.ranking import partition_items
from repro.errors import CollectiveError, ModelError
from repro.model.cost import CostLedger
from repro.model.params import HBSPParams
from repro.model.predict import (
    check_inputs,
    check_counts,
    check_fractions,
    check_item_bytes,
    default_counts,
)
from repro.tuning.plan import (
    LevelSchedule,
    PhaseSpec,
    SchedulePlan,
    binomial_rounds,
    check_plan,
    default_plan,
    plan_from_phases,
    segment_suffix,
)
from repro.util.units import BYTES_PER_INT

__all__ = [
    "GatherKernel",
    "BroadcastKernel",
    "KernelGrid",
    "PlanGrid",
    "balanced_counts",
    "equal_counts",
]


# ---------------------------------------------------------------------------
# Workload grids
# ---------------------------------------------------------------------------

def balanced_counts(params: HBSPParams, ns: np.ndarray) -> np.ndarray:
    """Balanced per-point workloads: ``default_counts`` per unique n.

    Returns an ``(G, p)`` int64 matrix.  The integer partition itself is
    the scalar largest-remainder routine (bit-identity requires its
    string-keyed tie-breaks), run once per distinct problem size.
    """
    ns = np.asarray(ns, dtype=np.int64)
    unique, inverse = np.unique(ns, return_inverse=True)
    table = np.array(
        [default_counts(params, int(n)) for n in unique], dtype=np.int64
    )
    return table[inverse]


def equal_counts(params: HBSPParams, ns: np.ndarray) -> np.ndarray:
    """Equal-share workloads (``c_j = 1/p``), the BSP-habit baseline."""
    return balanced_counts(params.with_equal_fractions(), ns)


# ---------------------------------------------------------------------------
# Grid results
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _Step:
    """One charged super-step, for every grid point at once.

    ``labels[cluster]`` names the step when ``cluster`` is the point's
    worst (``choice``) cluster.
    """

    level: int
    gh: np.ndarray  # (G,) selected g*h per point
    L: np.ndarray  # (G,) selected L charge per point
    choice: np.ndarray  # (G,) index into the level's cluster list
    labels: tuple[str, ...]

    def label(self, i: int) -> str:
        return self.labels[int(self.choice[i])]

    def take(self, cols: np.ndarray) -> "_Step":
        """This step at points ``cols`` — one plan's columns of a shared step."""
        return _Step(
            self.level, self.gh[cols], self.L[cols], self.choice[cols], self.labels
        )


def _worst_cluster(
    level: int, gh_rows: np.ndarray, L_of: np.ndarray, labels: tuple[str, ...]
) -> _Step:
    """The super^i-step every point charges: its costliest cluster.

    ``gh_rows`` is the ``(clusters, G)`` stack of concurrent clusters'
    ``g·h`` and ``L_of`` their ``(clusters,)`` synchronisation charges;
    ``argmax`` takes the first maximum of ``g·h + L``, matching the
    scalar predictor's strict ``>`` scan.
    """
    choice = np.argmax(gh_rows + L_of[:, np.newaxis], axis=0)
    gh = gh_rows[choice, np.arange(choice.size)]
    return _Step(level, gh, L_of[choice], choice, labels)


def _binomial_round_steps(
    level: int,
    per_round: t.Mapping[int, list[tuple[int, np.ndarray]]],
    L_level: np.ndarray,
    what: str,
) -> list[_Step]:
    """One step per binomial round from ``{round: [(cluster j, g·h)]}``.

    Clusters run ⌈log₂C⌉ rounds, so a later round's worst-cluster scan
    covers only the clusters still active in it.
    """
    steps = []
    for t_round in sorted(per_round):
        js = [j for j, _ in per_round[t_round]]
        labels = tuple(
            f"super{level}: binomial {what} round {t_round + 1} in {(level, j)}"
            for j in js
        )
        gh_rows = np.stack([gh for _, gh in per_round[t_round]])
        steps.append(_worst_cluster(level, gh_rows, L_level[js], labels))
    return steps


class KernelGrid:
    """One uniform-plan group of an evaluated grid.

    ``totals`` reproduces :attr:`CostLedger.total` exactly (``math.fsum``
    over step totals; for <= 2 steps a single IEEE add is the correctly
    rounded sum, so it vectorizes).  ``ledger(i)`` rebuilds the full
    itemised :class:`~repro.model.cost.CostLedger` for one point —
    bit-identical to the scalar prediction.
    """

    def __init__(
        self,
        collective: str,
        ns: np.ndarray,
        roots: np.ndarray,
        steps: t.Sequence[_Step],
        active: np.ndarray,
        name_of: t.Callable[[int], str],
    ) -> None:
        self.collective = collective
        self.ns = ns
        self.roots = roots
        self.steps = list(steps)
        self.active = active
        self._name_of = name_of

    @property
    def size(self) -> int:
        """Number of grid points."""
        return int(self.ns.size)

    @functools.cached_property
    def totals(self) -> np.ndarray:
        """``(G,)`` ledger totals, matching ``CostLedger.total`` exactly."""
        G = self.size
        steps = self.steps
        if not steps:
            return np.zeros(G)
        step_totals = [step.gh + step.L for step in steps]
        if len(step_totals) == 1:
            out = step_totals[0].copy()
        elif len(step_totals) == 2:
            # fsum of two addends is the correctly rounded sum — i.e.
            # exactly one IEEE double addition.
            out = step_totals[0] + step_totals[1]
        else:
            matrix = np.stack(step_totals)
            out = np.array([math.fsum(column) for column in matrix.T])
        if not self.active.all():
            out = np.where(self.active, out, 0.0)
        return out

    def ledger(self, i: int) -> CostLedger:
        """The full cost ledger of grid point ``i``."""
        if not 0 <= i < self.size:
            raise ModelError(f"grid index {i} out of range for size {self.size}")
        ledger = CostLedger(self._name_of(i))
        if self.active[i]:
            for step in self.steps:
                ledger.charge(
                    step.label(i),
                    level=step.level,
                    gh=float(step.gh[i]),
                    L=float(step.L[i]),
                )
        return ledger

    def ledgers(self) -> list[CostLedger]:
        """All ledgers, in grid order."""
        return [self.ledger(i) for i in range(self.size)]

    def __repr__(self) -> str:
        return (
            f"KernelGrid({self.collective}, points={self.size}, "
            f"steps={len(self.steps)})"
        )


class PlanGrid:
    """A grid evaluated under per-point :class:`~repro.tuning.plan.SchedulePlan`s.

    Different plans charge different step *sequences* (segmentation and
    binomial rounds change the super-step count), so the grid is
    partitioned into uniform-plan groups, each a :class:`KernelGrid`
    whose steps are columns of the call's shared level-step table (see
    :func:`_plan_grid`); this wrapper scatters group results back onto
    the caller's axis.
    ``totals`` and ``ledger(i)`` keep the bit-identity contract against
    the scalar ``predict_gather_plan`` / ``predict_broadcast_plan``.
    """

    def __init__(
        self,
        collective: str,
        ns: np.ndarray,
        roots: np.ndarray,
        plans: t.Sequence[SchedulePlan],
        grids: t.Sequence[KernelGrid],
        group_of: np.ndarray,
        pos_of: np.ndarray,
    ) -> None:
        self.collective = collective
        self.ns = ns
        self.roots = roots
        self.plans = list(plans)
        self.grids = list(grids)
        self._group_of = group_of
        self._pos_of = pos_of

    @property
    def size(self) -> int:
        """Number of grid points."""
        return int(self.ns.size)

    @functools.cached_property
    def totals(self) -> np.ndarray:
        """``(G,)`` ledger totals, matching ``CostLedger.total`` exactly."""
        out = np.zeros(self.size)
        for gid, grid in enumerate(self.grids):
            mask = self._group_of == gid
            out[mask] = grid.totals[self._pos_of[mask]]
        return out

    def ledger(self, i: int) -> CostLedger:
        """The full cost ledger of grid point ``i``."""
        if not 0 <= i < self.size:
            raise ModelError(f"grid index {i} out of range for size {self.size}")
        return self.grids[int(self._group_of[i])].ledger(int(self._pos_of[i]))

    def ledgers(self) -> list[CostLedger]:
        """All ledgers, in grid order."""
        return [self.ledger(i) for i in range(self.size)]

    def __repr__(self) -> str:
        return (
            f"PlanGrid({self.collective}, points={self.size}, "
            f"groups={len(self.grids)})"
        )


def _check_plans(
    plans: SchedulePlan | t.Sequence[SchedulePlan], op: str, k: int, G: int
) -> list[SchedulePlan]:
    """Normalise/validate the per-point plan axis."""
    if isinstance(plans, SchedulePlan):
        return [check_plan(plans, op, k)] * G
    plan_list = list(plans)
    if len(plan_list) != G:
        raise CollectiveError(
            f"plans must be one plan or a length-{G} sequence, "
            f"got {len(plan_list)}"
        )
    for plan in {id(plan): plan for plan in plan_list}.values():
        check_plan(plan, op, k)
    return plan_list


def _group_plans(
    plan_list: t.Sequence[SchedulePlan], G: int
) -> tuple[list[tuple[SchedulePlan, np.ndarray]], np.ndarray, np.ndarray]:
    """Partition grid indices into uniform-plan groups.

    A grid usually repeats a few plan *objects* (``evaluate`` repeats
    one ``G`` times), so each distinct object is hashed once and the
    points are grouped by object identity.
    """
    gids: dict[SchedulePlan, int] = {}
    gid_of_object = {
        key: gids.setdefault(plan, len(gids))
        for key, plan in {id(plan): plan for plan in plan_list}.items()
    }
    group_of = np.fromiter(
        (gid_of_object[id(plan)] for plan in plan_list), dtype=np.int64, count=G
    )
    pos_of = np.zeros(G, dtype=np.int64)
    out = []
    for plan, gid in gids.items():
        sel = np.flatnonzero(group_of == gid)
        pos_of[sel] = np.arange(sel.size, dtype=np.int64)
        out.append((plan, sel))
    return out, group_of, pos_of


def _distinct_points(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate grid points given as per-point key columns.

    Returns ``(first, point_of)``: the grid index of each distinct
    point's first occurrence, and every grid point's position in that
    list.  A level's charged steps depend on the point only, so the
    plan evaluators price the ``first`` points and every plan reads its
    columns through ``point_of`` (``score_plans`` repeats one point
    ``len(plans)`` times).
    """
    keys = np.ascontiguousarray(np.column_stack(columns))
    rows = keys.view(np.dtype((np.void, keys.shape[1] * keys.itemsize)))
    _, first, point_of = np.unique(
        rows.ravel(), return_index=True, return_inverse=True
    )
    return first, point_of


def _plan_grid(
    collective: str,
    ns: np.ndarray,
    roots: np.ndarray,
    plan_list: t.Sequence[SchedulePlan],
    levels: t.Sequence[int],
    level_steps: t.Callable[[int, LevelSchedule], t.Sequence[_Step]],
    point_of: np.ndarray,
    active: np.ndarray,
    name_of: t.Callable[[int], str],
) -> PlanGrid:
    """Assemble a :class:`PlanGrid` from a shared level-step table.

    The HBSP^k cost is a sum over levels, and a level's charged steps
    depend on ``(level, LevelSchedule)`` and the point — never on what
    the other levels chose.  So ``level_steps(level, schedule)`` runs
    once per *distinct* pair over the distinct points (``|choices|·k``
    kernel passes for a full ``|choices|^k`` space), and each plan's
    :class:`KernelGrid` gathers its points' columns out of those shared
    steps: the same floats the per-plan evaluation produced.
    ``name_of(i)`` names grid point ``i``'s ledger.
    """
    groups, group_of, pos_of = _group_plans(plan_list, ns.size)
    table = {
        (level, schedule): level_steps(level, schedule)
        for level in levels
        for schedule in dict.fromkeys(plan.level(level) for plan, _ in groups)
    }
    grids = []
    for plan, sel in groups:
        cols = point_of[sel]
        steps = [
            step.take(cols)
            for level in levels
            for step in table[level, plan.level(level)]
        ]

        def group_name(i: int, sel: np.ndarray = sel) -> str:
            return name_of(int(sel[i]))

        grids.append(
            KernelGrid(collective, ns[sel], roots[sel], steps, active[sel], group_name)
        )
    return PlanGrid(collective, ns, roots, plan_list, grids, group_of, pos_of)


# ---------------------------------------------------------------------------
# Compiled topology tables (shared by both kernels)
# ---------------------------------------------------------------------------

class _CompiledTree:
    """Per-params tables: slices, coordinators, labels — computed once."""

    def __init__(self, params: HBSPParams) -> None:
        self.params = params
        p, k = params.p, params.k
        self.p, self.k, self.g = p, k, params.g
        self.r0 = np.array([params.r_of(0, j) for j in range(p)])
        self.fastest = params.fastest_index(0) if p else 0

        #: leaves[level][j] — level-0 indices of M_{level,j}'s subtree.
        self.leaves: list[list[tuple[int, ...]]] = [
            [(j,) for j in range(p)]
        ]
        #: child_start[level] — reduceat offsets into level-1 nodes.
        self.child_start: dict[int, np.ndarray] = {}
        #: child_slice[level][j] — (start, stop) run of M_{level,j}'s children.
        self.child_slice: dict[int, list[tuple[int, int]]] = {}
        #: in_sub[level] — (m_level, p) bool: is leaf r in M_{level,j}'s subtree?
        self.in_sub: dict[int, np.ndarray] = {}
        #: dc[level] — (m_level,) default coordinator (min by (r, j)).
        self.dc: dict[int, np.ndarray] = {}
        #: child_pos[level][j] — (p,) position of the child containing a leaf.
        self.child_pos: dict[int, list[np.ndarray]] = {}
        #: L[level] — (m_level,) synchronisation costs.
        self.L: dict[int, np.ndarray] = {}
        #: weighted[level][j] — child fractions for "c"-weighted two-phase
        #: shares ({str(i): w_i / total_w} in child order), lazily built.
        self._weighted: dict[tuple[int, int], dict[str, float]] = {}

        for level in range(1, k + 1):
            m_here = params.m[level]
            starts, slices, level_leaves = [], [], []
            in_sub = np.zeros((m_here, p), dtype=bool)
            child_pos = []
            offset = 0
            for j in range(m_here):
                fan = params.fan_out[(level, j)]
                starts.append(offset)
                slices.append((offset, offset + fan))
                merged: list[int] = []
                pos = np.zeros(p, dtype=np.int64)
                for c_index in range(fan):
                    child_leaves = self.leaves[level - 1][offset + c_index]
                    merged.extend(child_leaves)
                    for leaf in child_leaves:
                        pos[leaf] = c_index
                level_leaves.append(tuple(merged))
                in_sub[j, merged] = True
                child_pos.append(pos)
                offset += fan
            self.leaves.append(level_leaves)
            self.child_start[level] = np.array(starts, dtype=np.int64)
            self.child_slice[level] = slices
            self.in_sub[level] = in_sub
            self.dc[level] = np.array(
                [
                    min(leaves, key=lambda j: (params.r_of(0, j), j))
                    for leaves in level_leaves
                ],
                dtype=np.int64,
            )
            self.child_pos[level] = child_pos
            self.L[level] = np.array(
                [params.L_of(level, j) for j in range(m_here)]
            )

    # -- per-evaluation helpers -------------------------------------------------
    def check_grid(
        self,
        ns: np.ndarray | t.Sequence[int],
        roots: int | t.Sequence[int] | np.ndarray | None,
        counts: t.Any = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Normalise the per-point axes; reject what the scalars reject.

        Shapes are this representation's own concern; the *values* are
        screened with array comparisons and the first offending point
        is handed to the scalar predictors' checks, which raise.
        ``roots=None`` is the fastest processor at every point.
        """
        ns = np.asarray(ns, dtype=np.int64)
        if ns.ndim != 1:
            raise CollectiveError(f"ns must be one-dimensional, got shape {ns.shape}")
        G = ns.size
        roots_arr = np.asarray(self.fastest if roots is None else roots, dtype=np.int64)
        if roots_arr.ndim == 0:
            roots_arr = np.full(G, int(roots_arr), dtype=np.int64)
        if roots_arr.shape != (G,):
            raise CollectiveError(
                f"roots must be a scalar or a length-{G} sequence, "
                f"got shape {roots_arr.shape}"
            )
        bad = (ns < 0) | (roots_arr < 0) | (roots_arr >= self.p)
        if counts is not None:
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != (G, self.p):
                raise CollectiveError(
                    f"counts must have shape ({G}, {self.p}), got {counts.shape}"
                )
            bad |= (counts < 0).any(axis=1) | (counts.sum(axis=1) != ns)
        if bad.any():
            i = int(np.argmax(bad))
            check_inputs(self.params, int(ns[i]), int(roots_arr[i]))
            check_counts(counts[i].tolist(), int(ns[i]), self.p)
        return ns, roots_arr, counts

    def coords(self, level: int, roots: np.ndarray) -> np.ndarray:
        """``(m_level, G)`` coordinator leaf of every node, per point.

        The default coordinator (fastest leaf, ties by index) applies
        unless the point's root lies inside the subtree — then the root
        coordinates its own chain, exactly as the scalar
        ``_coordinator_leaf`` resolves it.
        """
        if level == 0:
            raise ModelError("level-0 nodes coordinate themselves")
        return np.where(
            self.in_sub[level][:, roots],
            roots[np.newaxis, :],
            self.dc[level][:, np.newaxis],
        )

    def cluster_tables(
        self,
        level: int,
        j: int,
        coords_here: np.ndarray,
        coords_below: np.ndarray | None,
    ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """``(C, r_coord, child_r, own_pos)`` of cluster ``M_{level,j}``.

        ``child_r`` is the slowness of the child coordinators — ``(C, G)``,
        or ``(C, 1)`` for leaves, which coordinate themselves whatever
        the root is — and ``own_pos`` the ``(G,)`` child whose
        coordinator is the cluster's own: it keeps its data local (no
        self-send).
        """
        start, stop = self.child_slice[level][j]
        coord = coords_here[j]  # (G,)
        if coords_below is None:
            child_r = self.r0[start:stop][:, np.newaxis]
        else:
            child_r = self.r0[coords_below[start:stop]]
        return stop - start, self.r0[coord], child_r, self.child_pos[level][j][coord]

    def weighted_fractions(self, level: int, j: int) -> dict[str, float]:
        """Per-child first-phase fractions for the "c"-weighted scheme.

        Mirrors the scalar arithmetic exactly: builtin ``sum`` over each
        child's leaf fractions in leaf order, builtin ``sum`` over the
        children in child order, then one division per child.
        """
        key = (level, j)
        cached = self._weighted.get(key)
        if cached is None:
            params = self.params
            start, stop = self.child_slice[level][j]
            weights = [
                sum(
                    params.c_of(0, leaf)
                    for leaf in self.leaves[level - 1][child]
                )
                for child in range(start, stop)
            ]
            total_w = sum(weights)
            cached = self._weighted[key] = {
                str(i): w / total_w for i, w in enumerate(weights)
            }
        return cached


def _fan_h(
    r_coord: np.ndarray,
    child_r: np.ndarray,
    own_pos: np.ndarray,
    volumes: np.ndarray,
) -> np.ndarray:
    """``(G,)`` ``max r·h`` of one coordinator fan-in or fan-out.

    Every child coordinator but the cluster's own moves its row of the
    ``(C, G)`` byte ``volumes``; the cluster coordinator moves all of
    them.
    """
    points = np.arange(own_pos.size)
    values = np.empty((volumes.shape[0] + 1, own_pos.size))
    values[0] = r_coord * (volumes.sum(axis=0) - volumes[own_pos, points])
    values[1:] = child_r * volumes
    values[own_pos + 1, points] = 0.0
    return values.max(axis=0)


def _rotated(rows: np.ndarray, own_pos: np.ndarray) -> np.ndarray:
    """Per-child ``rows`` with the cluster coordinator's child first.

    Binomial trees run over the child positions relative to the
    coordinator's: row ``q`` of the result is child ``(own_pos + q) % C``
    at every point.
    """
    C = rows.shape[0]
    idx = (own_pos[np.newaxis, :] + np.arange(C)[:, np.newaxis]) % C
    return np.take_along_axis(np.broadcast_to(rows, idx.shape), idx, axis=0)


# ---------------------------------------------------------------------------
# Gather
# ---------------------------------------------------------------------------

class GatherKernel:
    """Vectorized :func:`~repro.model.predict.predict_gather_plan`.

    Compile once per parameter set; evaluate arbitrary grids of
    ``(n, root, counts)`` points.  The gather ascends level by level:
    subtree totals are ``np.add.reduceat`` segment sums, the per-cluster
    h-relation is an elementwise max over ``r·h`` products, and the
    worst cluster per level is an ``argmax`` (first-max, matching the
    scalar strict ``>`` scan).
    """

    def __init__(self, params: HBSPParams, *, item_bytes: int = BYTES_PER_INT) -> None:
        self.params = params
        self.item_bytes = check_item_bytes(int(item_bytes))
        self._tree = _CompiledTree(params)

    def evaluate(
        self,
        ns: np.ndarray | t.Sequence[int],
        *,
        roots: int | t.Sequence[int] | np.ndarray | None = None,
        counts: np.ndarray | None = None,
    ) -> PlanGrid:
        """Evaluate every ``(n, root, counts)`` point in one pass.

        ``counts`` is an optional ``(G, p)`` int64 matrix of initial
        per-processor item counts (default: the balanced workload per
        point, as in the scalar predictor).  This is
        :meth:`evaluate_plans` at ``default_plan("gather", k)``, with
        the ledgers named as :func:`~repro.model.predict.predict_gather`
        names them.
        """
        ns, roots_arr, counts = self._tree.check_grid(ns, roots, counts)
        k = self.params.k
        plans = [default_plan("gather", k)] * ns.size
        return self._price(
            ns, roots_arr, counts, plans,
            lambda i: f"gather(k={k}, n={int(ns[i])})",
        )

    def evaluate_plans(
        self,
        ns: np.ndarray | t.Sequence[int],
        plans: SchedulePlan | t.Sequence[SchedulePlan],
        *,
        roots: int | t.Sequence[int] | np.ndarray | None = None,
        counts: np.ndarray | None = None,
    ) -> PlanGrid:
        """Evaluate ``(n, root, counts)`` points under explicit plans.

        ``plans`` is one :class:`~repro.tuning.plan.SchedulePlan` for
        the whole grid or a per-point sequence.  Each distinct
        ``(level, LevelSchedule)`` is one vectorized pass over the
        distinct points; plans only gather columns (:func:`_plan_grid`).
        Bit-identical to
        :func:`~repro.model.predict.predict_gather_plan` per point.
        """
        ns, roots_arr, counts = self._tree.check_grid(ns, roots, counts)
        k = self.params.k
        plan_list = _check_plans(plans, "gather", k, ns.size)
        return self._price(
            ns, roots_arr, counts, plan_list,
            lambda i: f"gather(k={k}, n={int(ns[i])}, plan={plan_list[i].key})",
        )

    def _price(
        self,
        ns: np.ndarray,
        roots: np.ndarray,
        counts: np.ndarray | None,
        plan_list: t.Sequence[SchedulePlan],
        name_of: t.Callable[[int], str],
    ) -> PlanGrid:
        """The one gather evaluation, over already-checked arguments."""
        tree, params = self._tree, self.params
        if counts is None:
            first, point_of = _distinct_points(ns, roots)
            point_counts = balanced_counts(params, ns[first])
        else:
            first, point_of = _distinct_points(ns, roots, counts)
            point_counts = counts[first]
        # A lone processor (or an empty grid) communicates nothing.
        levels = range(1, params.k + 1) if params.p > 1 and ns.size else ()
        #: Plan-independent per-level tables over the distinct points.
        totals = [np.ascontiguousarray(point_counts.T)]  # (m_level, U) int64
        coords: list[np.ndarray | None] = [None]
        for level in levels:
            totals.append(
                np.add.reduceat(totals[-1], tree.child_start[level], axis=0)
            )
            coords.append(tree.coords(level, roots[first]))
        return _plan_grid(
            "gather", ns, roots, plan_list, levels,
            lambda level, schedule: self._level_steps(
                level, schedule, totals[level - 1],
                coords[level], coords[level - 1],
            ),
            point_of, np.ones(ns.size, dtype=bool), name_of,
        )

    def _level_steps(
        self,
        level: int,
        schedule: LevelSchedule,
        totals_below: np.ndarray,
        coords_here: np.ndarray,
        coords_below: np.ndarray | None,
    ) -> list[_Step]:
        """The charged steps of one level under one ``LevelSchedule``."""
        if schedule.algorithm == "binomial":
            return self._binomial_steps(
                level, totals_below, coords_here, coords_below
            )
        tree, S = self._tree, schedule.segments
        clusters = range(self.params.m[level])
        steps = []
        for s in range(S):
            gh_rows = np.empty((len(clusters), totals_below.shape[1]))
            for j in clusters:
                start, stop = tree.child_slice[level][j]
                _, r_coord, child_r, own_pos = tree.cluster_tables(
                    level, j, coords_here, coords_below
                )
                # Chunk s of each child's T accumulated items,
                # T//S + (1 if s < T%S), as the one division it equals.
                sent = (totals_below[start:stop] + (S - 1 - s)) // S
                gh_rows[j] = tree.g * _fan_h(
                    r_coord, child_r, own_pos, sent * self.item_bytes
                )
            labels = tuple(
                f"super{level}{segment_suffix(s, S)}: gather into {(level, j)}"
                for j in clusters
            )
            steps.append(_worst_cluster(level, gh_rows, tree.L[level], labels))
        return steps

    def _binomial_steps(
        self,
        level: int,
        totals_below: np.ndarray,
        coords_here: np.ndarray,
        coords_below: np.ndarray | None,
    ) -> list[_Step]:
        """Per-round steps of a binomial-tree gather level.

        Child positions rotate so the cluster coordinator sits at
        relative 0; round ``t`` sends each holder's accumulated window
        ``[q, q+2^t)`` down to ``q - 2^t``.
        """
        tree, item_bytes = self._tree, self.item_bytes
        G = totals_below.shape[1]
        per_round: dict[int, list[tuple[int, np.ndarray]]] = {}
        for j in range(self.params.m[level]):
            C, _, child_r, own_pos = tree.cluster_tables(
                level, j, coords_here, coords_below
            )
            start, stop = tree.child_slice[level][j]
            rot_tot = _rotated(totals_below[start:stop], own_pos)
            rot_r = _rotated(child_r, own_pos)
            prefix = np.zeros((C + 1, G), dtype=np.int64)
            np.cumsum(rot_tot, axis=0, out=prefix[1:])
            for t_round in range(binomial_rounds(C)):
                half = 1 << t_round
                rows = []
                for q in range(half, C, 2 * half):
                    volume = (prefix[min(q + half, C)] - prefix[q]) * item_bytes
                    rows.append(rot_r[q] * volume)
                    rows.append(rot_r[q - half] * volume)
                gh = tree.g * np.max(np.stack(rows), axis=0)
                per_round.setdefault(t_round, []).append((j, gh))
        return _binomial_round_steps(level, per_round, tree.L[level], "gather")


# ---------------------------------------------------------------------------
# Broadcast
# ---------------------------------------------------------------------------

class BroadcastKernel:
    """Vectorized :func:`~repro.model.predict.predict_broadcast_plan`.

    Descends from level k to 1; per point the schedule can differ
    (``phases`` / ``plans`` accept one value or a per-point sequence),
    so the planner's whole ``2^k`` enumeration is a single evaluation.
    """

    def __init__(self, params: HBSPParams, *, item_bytes: int = BYTES_PER_INT) -> None:
        self.params = params
        self.item_bytes = check_item_bytes(int(item_bytes))
        self._tree = _CompiledTree(params)
        #: Clusters with more than one child, per level (singleton
        #: wrapper clusters send nothing and charge nothing).
        self._fanned = {
            level: [
                j
                for j in range(params.m[level])
                if params.fan_out[(level, j)] > 1
            ]
            for level in range(1, params.k + 1)
        }

    def evaluate(
        self,
        ns: np.ndarray | t.Sequence[int],
        *,
        roots: int | t.Sequence[int] | np.ndarray | None = None,
        phases: PhaseSpec | t.Sequence[PhaseSpec] = "two",
        fractions: t.Sequence[float] | None = None,
    ) -> PlanGrid:
        """Evaluate every ``(n, root, phase-scheme)`` point in one pass.

        ``phases`` is one spec for the whole grid or a per-point
        sequence.  This is :meth:`evaluate_plans` at each point's
        :func:`~repro.tuning.plan.plan_from_phases`, with the ledgers
        named as :func:`~repro.model.predict.predict_broadcast` names
        them.
        """
        ns, roots_arr, _ = self._tree.check_grid(ns, roots)
        k = self.params.k
        if isinstance(phases, (str, t.Mapping)) or not isinstance(phases, t.Iterable):
            specs: t.Sequence[PhaseSpec] = [phases] * ns.size
            plans = [plan_from_phases(phases, k)] * ns.size
        else:
            specs = list(phases)
            if len(specs) != ns.size:
                raise CollectiveError(
                    f"phases must be one spec or a length-{ns.size} sequence, "
                    f"got {len(specs)}"
                )
            plans = [plan_from_phases(spec, k) for spec in specs]
        return self._price(
            ns, roots_arr, plans, fractions,
            lambda i: f"broadcast(k={k}, n={int(ns[i])}, phases={specs[i]!r})",
        )

    def evaluate_plans(
        self,
        ns: np.ndarray | t.Sequence[int],
        plans: SchedulePlan | t.Sequence[SchedulePlan],
        *,
        roots: int | t.Sequence[int] | np.ndarray | None = None,
        fractions: t.Sequence[float] | None = None,
    ) -> PlanGrid:
        """Evaluate ``(n, root)`` points under explicit broadcast plans.

        One vectorized pass per distinct ``(level, LevelSchedule)`` over
        the distinct points, as in :meth:`GatherKernel.evaluate_plans`.
        Bit-identical per point to
        :func:`~repro.model.predict.predict_broadcast_plan`.
        """
        ns, roots_arr, _ = self._tree.check_grid(ns, roots)
        k = self.params.k
        plan_list = _check_plans(plans, "broadcast", k, ns.size)
        return self._price(
            ns, roots_arr, plan_list, fractions,
            lambda i: f"broadcast(k={k}, n={int(ns[i])}, plan={plan_list[i].key})",
        )

    def _price(
        self,
        ns: np.ndarray,
        roots: np.ndarray,
        plan_list: t.Sequence[SchedulePlan],
        fractions: t.Sequence[float] | None,
        name_of: t.Callable[[int], str],
    ) -> PlanGrid:
        """The one broadcast evaluation, over already-checked points."""
        tree, params = self._tree, self.params
        check_fractions(fractions, params.p)
        first, point_of = _distinct_points(ns, roots)
        point_ns, point_roots = ns[first], roots[first]
        # Singleton-only levels (and so p == 1 machines) charge nothing.
        levels = [
            level for level in range(params.k, 0, -1) if self._fanned[level]
        ]
        #: Plan-independent coordinator tables over the distinct points.
        coords = {
            level: tree.coords(level, point_roots)
            for level in range(1, params.k + 1)
        }
        return _plan_grid(
            "broadcast", ns, roots, plan_list, levels,
            lambda level, schedule: self._level_steps(
                level, schedule, point_ns, coords[level],
                coords.get(level - 1), fractions,
            ),
            point_of, ns > 0, name_of,
        )

    def _level_steps(
        self,
        level: int,
        schedule: LevelSchedule,
        ns: np.ndarray,
        coords_here: np.ndarray,
        coords_below: np.ndarray | None,
        fractions: t.Sequence[float] | None,
    ) -> list[_Step]:
        """The charged steps of one level under one ``LevelSchedule``."""
        if schedule.algorithm == "binomial":
            return self._binomial_steps(level, ns, coords_here, coords_below)
        tree, fanned, S = self._tree, self._fanned[level], schedule.segments
        L_of = tree.L[level][fanned]
        if schedule.algorithm == "two":
            gh_rows = np.stack(
                [
                    self._two_phase_gh(
                        level, j, ns, coords_here, coords_below, fractions
                    )
                    for j in fanned
                ]
            )
            labels = tuple(
                f"super{level}: two-phase bcast in {(level, j)}" for j in fanned
            )
            return [_worst_cluster(level, gh_rows, 2 * L_of, labels)]
        steps = []
        for s in range(S):
            # Coordinator fan-out of chunk s to every child.
            chunk = (ns + (S - 1 - s)) // S * self.item_bytes
            gh_rows = np.empty((len(fanned), ns.size))
            for row, j in enumerate(fanned):
                C, r_coord, child_r, own_pos = tree.cluster_tables(
                    level, j, coords_here, coords_below
                )
                volumes = np.broadcast_to(chunk, (C, ns.size))
                gh_rows[row] = tree.g * _fan_h(r_coord, child_r, own_pos, volumes)
            labels = tuple(
                f"super{level}{segment_suffix(s, S)}: one-phase bcast "
                f"in {(level, j)}"
                for j in fanned
            )
            steps.append(_worst_cluster(level, gh_rows, L_of, labels))
        return steps

    def _two_phase_gh(
        self,
        level: int,
        j: int,
        ns: np.ndarray,
        coords_here: np.ndarray,
        coords_below: np.ndarray | None,
        fractions: t.Sequence[float] | None,
    ) -> np.ndarray:
        """``(G,)`` ``g·h`` of cluster ``j``'s scatter + total exchange."""
        tree, item_bytes = self._tree, self.item_bytes
        C, r_coord, child_r, own_pos = tree.cluster_tables(
            level, j, coords_here, coords_below
        )
        shares = self._shares(level, j, C, ns, fractions)
        h_a = _fan_h(r_coord, child_r, own_pos, shares * item_bytes)
        values_b = child_r * (
            np.maximum(shares * (C - 1), ns[np.newaxis, :] - shares) * item_bytes
        )
        return tree.g * (h_a + values_b.max(axis=0))

    def _shares(
        self,
        level: int,
        j: int,
        C: int,
        ns: np.ndarray,
        fractions: t.Sequence[float] | None,
    ) -> np.ndarray:
        """(C, G) first-phase shares per child for the two-phase scheme."""
        if fractions is None:
            quotient = ns // C
            remainder = ns % C
            return quotient[np.newaxis, :] + (
                np.arange(C, dtype=np.int64)[:, np.newaxis]
                < remainder[np.newaxis, :]
            )
        weighted = self._tree.weighted_fractions(level, j)
        unique, inverse = np.unique(ns, return_inverse=True)
        table = np.empty((unique.size, C), dtype=np.int64)
        for u, n in enumerate(unique):
            part = partition_items(int(n), weighted)
            table[u] = [part[str(i)] for i in range(C)]
        return table[inverse].T

    def _binomial_steps(
        self,
        level: int,
        ns: np.ndarray,
        coords_here: np.ndarray,
        coords_below: np.ndarray | None,
    ) -> list[_Step]:
        """Per-round steps of a binomial-tree broadcast level.

        Rotated so the coordinator holds relative position 0; in round
        ``t`` every holder ``q < 2^t`` forwards the full payload to
        ``q + 2^t``.
        """
        tree = self._tree
        volume = ns * self.item_bytes
        per_round: dict[int, list[tuple[int, np.ndarray]]] = {}
        for j in self._fanned[level]:
            C, _, child_r, own_pos = tree.cluster_tables(
                level, j, coords_here, coords_below
            )
            rot_r = _rotated(child_r, own_pos)
            for t_round in range(binomial_rounds(C)):
                half = 1 << t_round
                rows = []
                for q in range(min(half, C - half)):
                    rows.append(rot_r[q] * volume)
                    rows.append(rot_r[q + half] * volume)
                gh = tree.g * np.max(np.stack(rows), axis=0)
                per_round.setdefault(t_round, []).append((j, gh))
        return _binomial_round_steps(level, per_round, tree.L[level], "bcast")
