"""Vectorized analytic cost kernels: whole grids in one numpy pass.

:mod:`repro.model.predict` walks the HBSP^k tree once per ``(n, root,
workload, plan)`` configuration — fine for a single prediction,
wasteful for the planner's ``2^k x roots`` enumeration, the tuner's
plan spaces and the experiment modules' model-side curves, which
evaluate hundreds of closely-related points.  A parameter set is
compiled once per :class:`~repro.model.params.HBSPParams` object: its
cached :attr:`~repro.model.params.HBSPParams.table` (leaf and child
runs, fan-outs, ``L``, default coordinators per level) is the one the
scalar predictors read too, and every kernel on that object shares it.
The kernels then evaluate an entire grid of configurations with array
operations, a whole level at a time: every cluster's ``r·h`` maximum
is a segment reduction over the level's ``(children, G)`` rows, and
``g·h + L`` ledger terms and workload subtree sums are numpy
expressions over the grid axis.

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
from repro.model.params import ClusterTable, HBSPParams, LevelTable
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
    ).reshape(unique.size, params.p)
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
    per_round: t.Mapping[int, list[tuple[np.ndarray, np.ndarray]]],
    L_level: np.ndarray,
    what: str,
) -> list[_Step]:
    """One step per binomial round from ``{round: [(clusters js, g·h)]}``.

    Clusters run ⌈log₂C⌉ rounds, so a later round's worst-cluster scan
    covers only the clusters still active in it, in cluster order.
    """
    steps = []
    for t_round in sorted(per_round):
        js = np.concatenate([js for js, _ in per_round[t_round]])
        order = np.argsort(js, kind="stable")
        js = js[order]
        gh_rows = np.concatenate([gh for _, gh in per_round[t_round]])[order]
        labels = tuple(
            f"super{level}: binomial {what} round {t_round + 1} in {(level, j)}"
            for j in js.tolist()
        )
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
        for key, plan in dict(zip(map(id, plan_list), plan_list)).items()
    }
    group_of = np.fromiter(
        map(gid_of_object.__getitem__, map(id, plan_list)), dtype=np.int64, count=G
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
# Level-wide passes over the parameter set's ClusterTable
# ---------------------------------------------------------------------------

def _check_grid(
    params: HBSPParams,
    ns: np.ndarray | t.Sequence[int],
    roots: int | t.Sequence[int] | np.ndarray | None,
    counts: t.Any = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Normalise the per-point axes; reject what the scalars reject.

    Shapes are this representation's own concern; the *values* are
    screened with array comparisons and the first offending point
    is handed to the scalar predictors' checks, which raise.
    ``roots=None`` is the default root at every point.
    """
    p = params.p
    ns = np.asarray(ns, dtype=np.int64)
    if ns.ndim != 1:
        raise CollectiveError(f"ns must be one-dimensional, got shape {ns.shape}")
    G = ns.size
    roots_arr = np.asarray(
        params.table.fastest if roots is None else roots, dtype=np.int64
    )
    if roots_arr.ndim == 0:
        roots_arr = np.full(G, int(roots_arr), dtype=np.int64)
    if roots_arr.shape != (G,):
        raise CollectiveError(
            f"roots must be a scalar or a length-{G} sequence, "
            f"got shape {roots_arr.shape}"
        )
    bad = (ns < 0) | (roots_arr < 0) | (roots_arr >= p)
    if counts is not None:
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (G, p):
            raise CollectiveError(
                f"counts must have shape ({G}, {p}), got {counts.shape}"
            )
        bad |= (counts < 0).any(axis=1) | (counts.sum(axis=1) != ns)
    if bad.any():
        i = int(np.argmax(bad))
        check_inputs(params, int(ns[i]), int(roots_arr[i]))
        check_counts(counts[i].tolist(), int(ns[i]), p)
    return ns, roots_arr, counts


def _coords(table: ClusterTable, level: int, roots: np.ndarray) -> np.ndarray:
    """Coordinator leaf of every node of ``level``, per point.

    ``(m_level, G)``: the default coordinator unless the point's root
    lies inside the subtree — then the root coordinates its own chain,
    as :meth:`~repro.model.params.LevelTable.coordinators` resolves
    it.  Leaves coordinate themselves whatever the root: ``(p, 1)``.
    """
    nodes = table.levels[level]
    if level == 0:
        return nodes.coord[:, np.newaxis]
    lo, hi = nodes.leaf_start[:-1, np.newaxis], nodes.leaf_start[1:, np.newaxis]
    inside = (lo <= roots) & (roots < hi)
    return np.where(inside, roots, nodes.coord[:, np.newaxis])


def _per_cluster(ufunc: np.ufunc, rows: np.ndarray, nodes: LevelTable) -> np.ndarray:
    """``(m, G)``: ``ufunc`` over each cluster's run of child ``rows``.

    A level whose clusters share one fan-out ``C`` reduces the
    ``(m, C, G)`` view: ``reduceat`` along axis 0 is many times slower
    on wide grids.
    """
    C = nodes.uniform_fan
    if C:
        return ufunc.reduce(rows.reshape(nodes.fan.size, C, rows.shape[1]), axis=1)
    return ufunc.reduceat(rows, nodes.child_start[:-1], axis=0)


class _Level:
    """One level's coordinator tables over the distinct points.

    ``child_r`` is the slowness of every child coordinator (rows of the
    level below), ``own`` the ``(m, G)`` row of the child whose
    coordinator is the cluster's own: it keeps its data local (no
    self-send).
    """

    def __init__(
        self,
        table: ClusterTable,
        level: int,
        coords_here: np.ndarray,
        coords_below: np.ndarray,
    ) -> None:
        self.nodes = table.levels[level]
        self.below = table.levels[level - 1]
        self.r_coord = table.r0[coords_here]  # (m, G)
        self.child_r = table.r0[coords_below]  # (m_below, G) or (p, 1)
        self.own = np.searchsorted(self.below.leaf_start, coords_here, side="right") - 1
        self.G = coords_here.shape[1]

    def fan_h(self, volumes: np.ndarray) -> np.ndarray:
        """``(m, G)`` ``max r·h`` of every cluster's coordinator fan-in or out.

        Every child coordinator but the cluster's own moves its row of
        the ``(m_below, G)`` byte ``volumes``; the cluster coordinator
        moves all of its children's.
        """
        cols = np.arange(self.G)
        products = self.child_r * volumes
        products[self.own, cols] = 0.0
        coord_bytes = _per_cluster(np.add, volumes, self.nodes) - volumes[self.own, cols]
        return np.maximum(
            self.r_coord * coord_bytes, _per_cluster(np.maximum, products, self.nodes)
        )

    def binomial_groups(
        self, js: np.ndarray
    ) -> t.Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """Clusters ``js`` with rounds to run, grouped by fan-out ``C``.

        Yields ``(C, js_C, rot_r, rows)``.  Binomial trees run over the
        child positions relative to the coordinator's: ``rows[c, q]``
        is, at every point, the child row at relative position ``q`` of
        cluster ``js_C[c]``, ``(own_pos + q) % C``, and ``rot_r`` its
        ``child_r``.
        """
        fan = self.nodes.fan[js]
        cols = np.arange(self.G)
        child_r = np.broadcast_to(self.child_r, (self.child_r.shape[0], self.G))
        for C in np.unique(fan[fan > 1]).tolist():
            js_C = js[fan == C]
            first = self.nodes.child_start[js_C][:, np.newaxis, np.newaxis]
            own_pos = self.own[js_C][:, np.newaxis, :] - first
            rows = first + (own_pos + np.arange(C)[:, np.newaxis]) % C
            yield C, js_C, child_r[rows, cols], rows


# ---------------------------------------------------------------------------
# Gather
# ---------------------------------------------------------------------------

class GatherKernel:
    """Vectorized :func:`~repro.model.predict.predict_gather_plan`.

    Built on the parameter set's cached :class:`ClusterTable`; evaluates
    arbitrary grids of ``(n, root, counts)`` points.  The gather ascends
    level by level: subtree totals are per-cluster segment sums, every
    cluster's h-relation an elementwise max over ``r·h`` products of the
    whole level at once, and the worst cluster per level an ``argmax``
    (first-max, matching the scalar strict ``>`` scan).
    """

    def __init__(self, params: HBSPParams, *, item_bytes: int = BYTES_PER_INT) -> None:
        self.params = params
        self.item_bytes = check_item_bytes(int(item_bytes))
        self.table = params.table

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
        ns, roots_arr, counts = _check_grid(self.params, ns, roots, counts)
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
        ns, roots_arr, counts = _check_grid(self.params, ns, roots, counts)
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
        table, params = self.table, self.params
        if counts is None:
            first, point_of = _distinct_points(ns, roots)
            point_counts = balanced_counts(params, ns[first])
        else:
            first, point_of = _distinct_points(ns, roots, counts)
            point_counts = counts[first]
        # A lone processor (or an empty grid) communicates nothing.
        levels = range(1, params.k + 1) if params.p > 1 and ns.size else ()
        #: Plan-independent per-level tables over the distinct points.
        totals = [point_counts.T]  # (m_level, U) int64
        coords, level_tables = _coords(table, 0, roots[first]), {}
        for level in levels:
            totals.append(_per_cluster(np.add, totals[-1], table.levels[level]))
            below, coords = coords, _coords(table, level, roots[first])
            level_tables[level] = _Level(table, level, coords, below)
        return _plan_grid(
            "gather", ns, roots, plan_list, levels,
            lambda level, schedule: self._level_steps(
                level, schedule, totals[level - 1], level_tables[level]
            ),
            point_of, np.ones(ns.size, dtype=bool), name_of,
        )

    def _level_steps(
        self,
        level: int,
        schedule: LevelSchedule,
        totals_below: np.ndarray,
        here: _Level,
    ) -> list[_Step]:
        """The charged steps of one level under one ``LevelSchedule``."""
        if schedule.algorithm == "binomial":
            return self._binomial_steps(level, totals_below, here)
        S, g = schedule.segments, self.params.g
        steps = []
        for s in range(S):
            # Chunk s of each child's T accumulated items,
            # T//S + (1 if s < T%S), as the one division it equals.
            sent = totals_below if S == 1 else (totals_below + (S - 1 - s)) // S
            gh_rows = g * here.fan_h(sent * self.item_bytes)
            labels = tuple(
                f"super{level}{segment_suffix(s, S)}: gather into {(level, j)}"
                for j in range(gh_rows.shape[0])
            )
            steps.append(_worst_cluster(level, gh_rows, here.nodes.L, labels))
        return steps

    def _binomial_steps(
        self, level: int, totals_below: np.ndarray, here: _Level
    ) -> list[_Step]:
        """Per-round steps of a binomial-tree gather level.

        Child positions rotate so the cluster coordinator sits at
        relative 0; round ``t`` sends each holder's accumulated window
        ``[q, q+2^t)`` down to ``q - 2^t``.
        """
        g, item_bytes = self.params.g, self.item_bytes
        cols = np.arange(here.G)
        per_round: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        for C, js, rot_r, rows in here.binomial_groups(np.arange(here.nodes.fan.size)):
            prefix = np.zeros((js.size, C + 1, here.G), dtype=np.int64)
            np.cumsum(totals_below[rows, cols], axis=1, out=prefix[:, 1:])
            for t_round in range(binomial_rounds(C)):
                half = 1 << t_round
                loads = []
                for q in range(half, C, 2 * half):
                    volume = (prefix[:, min(q + half, C)] - prefix[:, q]) * item_bytes
                    loads.append(rot_r[:, q] * volume)
                    loads.append(rot_r[:, q - half] * volume)
                gh = g * np.max(np.stack(loads), axis=0)
                per_round.setdefault(t_round, []).append((js, gh))
        return _binomial_round_steps(level, per_round, here.nodes.L, "gather")


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
        self.table = params.table
        #: Clusters with more than one child, per level (singleton
        #: wrapper clusters send nothing and charge nothing).
        self._fanned = {
            level: np.flatnonzero(self.table.levels[level].fan > 1)
            for level in range(1, params.k + 1)
        }
        #: "c"-weighted two-phase fractions per cluster, lazily built.
        self._weighted: dict[tuple[int, int], dict[str, float]] = {}

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
        ns, roots_arr, _ = _check_grid(self.params, ns, roots)
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
        ns, roots_arr, _ = _check_grid(self.params, ns, roots)
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
        table, params = self.table, self.params
        check_fractions(fractions, params.p)
        first, point_of = _distinct_points(ns, roots)
        point_ns, point_roots = ns[first], roots[first]
        # Singleton-only levels (and so p == 1 machines) charge nothing.
        levels = [
            level for level in range(params.k, 0, -1) if self._fanned[level].size
        ]
        #: Plan-independent coordinator tables over the distinct points.
        level_tables = {
            level: _Level(
                table, level,
                _coords(table, level, point_roots), _coords(table, level - 1, point_roots),
            )
            for level in levels
        }
        return _plan_grid(
            "broadcast", ns, roots, plan_list, levels,
            lambda level, schedule: self._level_steps(
                level, schedule, point_ns, level_tables[level], fractions
            ),
            point_of, ns > 0, name_of,
        )

    def _level_steps(
        self,
        level: int,
        schedule: LevelSchedule,
        ns: np.ndarray,
        here: _Level,
        fractions: t.Sequence[float] | None,
    ) -> list[_Step]:
        """The charged steps of one level under one ``LevelSchedule``."""
        if schedule.algorithm == "binomial":
            return self._binomial_steps(level, ns, here)
        fanned, S, g = self._fanned[level], schedule.segments, self.params.g
        L_of = here.nodes.L[fanned]
        if schedule.algorithm == "two":
            gh_rows = g * self._two_phase_h(level, ns, here, fractions)[fanned]
            labels = tuple(
                f"super{level}: two-phase bcast in {(level, j)}" for j in fanned.tolist()
            )
            return [_worst_cluster(level, gh_rows, 2 * L_of, labels)]
        steps = []
        for s in range(S):
            # Coordinator fan-out of chunk s to every child.
            chunk = (ns + (S - 1 - s)) // S * self.item_bytes
            volumes = np.broadcast_to(chunk, (here.below.fan.size, ns.size))
            gh_rows = g * here.fan_h(volumes)[fanned]
            labels = tuple(
                f"super{level}{segment_suffix(s, S)}: one-phase bcast "
                f"in {(level, j)}"
                for j in fanned.tolist()
            )
            steps.append(_worst_cluster(level, gh_rows, L_of, labels))
        return steps

    def _two_phase_h(
        self,
        level: int,
        ns: np.ndarray,
        here: _Level,
        fractions: t.Sequence[float] | None,
    ) -> np.ndarray:
        """``(m, G)`` ``h`` of every cluster's scatter + total exchange."""
        nodes, parent = here.nodes, here.below.parent
        C = nodes.fan[parent][:, np.newaxis]  # each child row's cluster size
        if fractions is None:
            position = np.arange(parent.size) - nodes.child_start[parent]
            shares = ns // C + (position[:, np.newaxis] < ns % C)
        else:
            shares = self._weighted_shares(level, ns, here)
        h_a = here.fan_h(shares * self.item_bytes)
        values_b = here.child_r * (
            np.maximum(shares * (C - 1), ns - shares) * self.item_bytes
        )
        return h_a + _per_cluster(np.maximum, values_b, nodes)

    def _weighted_shares(self, level: int, ns: np.ndarray, here: _Level) -> np.ndarray:
        """``(m_below, G)`` "c"-weighted first-phase shares of every child.

        One :func:`~repro.bytemark.ranking.partition_items` per fanned
        cluster and distinct ``n``, over fractions that mirror the scalar
        arithmetic exactly: builtin ``sum`` over each child's leaf
        fractions in leaf order, builtin ``sum`` over the children in
        child order, then one division per child.
        """
        starts, leaves = here.nodes.child_start.tolist(), here.below.leaf_start.tolist()
        unique, inverse = np.unique(ns, return_inverse=True)
        table = np.zeros((len(leaves) - 1, unique.size), dtype=np.int64)
        for j in self._fanned[level].tolist():
            start, stop = starts[j], starts[j + 1]
            weighted = self._weighted.get((level, j))
            if weighted is None:
                weights = [
                    sum(self.params.c_of(0, leaf) for leaf in range(leaves[i], leaves[i + 1]))
                    for i in range(start, stop)
                ]
                total_w = sum(weights)
                weighted = self._weighted[level, j] = {
                    str(i): w / total_w for i, w in enumerate(weights)
                }
            for u, n in enumerate(unique.tolist()):
                part = partition_items(n, weighted)
                table[start:stop, u] = [part[str(i)] for i in range(stop - start)]
        return table[:, inverse]

    def _binomial_steps(self, level: int, ns: np.ndarray, here: _Level) -> list[_Step]:
        """Per-round steps of a binomial-tree broadcast level.

        Rotated so the coordinator holds relative position 0; in round
        ``t`` every holder ``q < 2^t`` forwards the full payload to
        ``q + 2^t``.
        """
        g, volume = self.params.g, ns * self.item_bytes
        per_round: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        for C, js, rot_r, _ in here.binomial_groups(self._fanned[level]):
            for t_round in range(binomial_rounds(C)):
                half = 1 << t_round
                loads = []
                for q in range(min(half, C - half)):
                    loads.append(rot_r[:, q] * volume)
                    loads.append(rot_r[:, q + half] * volume)
                gh = g * np.max(np.stack(loads), axis=0)
                per_round.setdefault(t_round, []).append((js, gh))
        return _binomial_round_steps(level, per_round, here.nodes.L, "bcast")
