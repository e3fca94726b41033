"""Vectorized analytic cost kernels: whole grids in one numpy pass.

:mod:`repro.model.predict` walks the HBSP^k tree once per ``(n, root,
workload, phases)`` configuration — fine for a single prediction,
wasteful for the planner's ``2^k x roots`` enumeration and for the
experiment modules' model-side curves, which evaluate hundreds of
closely-related points.  This module *compiles* a parameter set once —
tree slices, coordinator tables, per-cluster labels — and then
evaluates an entire grid of configurations with array operations:
per-level ``r·h`` maxima, ``g·h + L`` ledger terms, and workload
subtree sums all become numpy expressions over the grid axis.

Bit-identity contract
---------------------

The kernels are not approximations.  For every grid point, the charged
``(label, level, gh, L)`` steps and the ledger total are **the same
floats** the scalar :func:`~repro.model.predict.predict_gather` /
:func:`~repro.model.predict.predict_broadcast` produce — enforced by
``tests/model/test_kernels.py`` and the hypothesis suite in
``tests/properties/test_prop_kernels.py`` with exact ``==`` on every
component.  This works because the scalar path is a fixed sequence of
IEEE-754 double operations (``r*h`` products, a running max, ``g*h``,
``+ L``) and the vectorized path performs the *same* operations
elementwise; integer workload arithmetic (subtree sums, two-phase
shares) is exact in int64.  The only knowingly scalar piece is
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
from repro.model.predict import default_counts
from repro.util.units import BYTES_PER_INT

__all__ = [
    "GatherKernel",
    "BroadcastKernel",
    "KernelGrid",
    "PlanGrid",
    "balanced_counts",
    "equal_counts",
]

#: Phase-scheme spec accepted per point: the same shapes the scalar
#: ``predict_broadcast`` takes (``"one"``/``"two"`` or a per-level map).
PhaseSpec = t.Union[str, t.Mapping[int, str]]


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

    ``labels[mode][cluster]`` resolves the label; gather steps carry a
    single mode, broadcast steps one per phase scheme (``code`` holds
    the per-point mode index).
    """

    level: int
    gh: np.ndarray  # (G,) selected g*h per point
    L: np.ndarray  # (G,) selected L charge per point
    choice: np.ndarray  # (G,) index into the level's cluster list
    labels: tuple[tuple[str, ...], ...]
    code: np.ndarray | None = None  # (G,) mode per point; None = mode 0

    def label(self, i: int) -> str:
        mode = 0 if self.code is None else int(self.code[i])
        return self.labels[mode][int(self.choice[i])]

    def take(self, cols: np.ndarray) -> "_Step":
        """This step at points ``cols`` — one plan's columns of a shared step."""
        code = None if self.code is None else self.code[cols]
        return _Step(
            self.level, self.gh[cols], self.L[cols], self.choice[cols],
            self.labels, code,
        )


class KernelGrid:
    """The evaluated grid: per-step arrays plus ledger reconstruction.

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
        plans: t.Sequence[t.Any],
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
    plans: t.Any, op: str, k: int, G: int
) -> list[t.Any]:
    """Normalise/validate the per-point plan axis."""
    from repro.tuning.plan import SchedulePlan

    if isinstance(plans, SchedulePlan):
        plan_list = [plans] * G
    else:
        plan_list = list(plans)
        if len(plan_list) != G:
            raise CollectiveError(
                f"plans must be one plan or a length-{G} sequence, "
                f"got {len(plan_list)}"
            )
    for plan in set(plan_list):
        if not isinstance(plan, SchedulePlan):
            raise CollectiveError(f"expected a SchedulePlan, got {plan!r}")
        if plan.op != op:
            raise CollectiveError(f"plan is for {plan.op!r}, expected {op!r}")
        if plan.k != k:
            raise CollectiveError(
                f"plan schedules {plan.k} levels, topology has k={k}"
            )
    return plan_list


def _group_plans(
    plan_list: t.Sequence[t.Any], G: int
) -> tuple[list[tuple[t.Any, np.ndarray]], np.ndarray, np.ndarray]:
    """Partition grid indices into uniform-plan groups."""
    groups: dict[t.Any, list[int]] = {}
    for i, plan in enumerate(plan_list):
        groups.setdefault(plan, []).append(i)
    group_of = np.zeros(G, dtype=np.int64)
    pos_of = np.zeros(G, dtype=np.int64)
    out = []
    for gid, (plan, idxs) in enumerate(groups.items()):
        sel = np.array(idxs, dtype=np.int64)
        group_of[sel] = gid
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
    k: int,
    ns: np.ndarray,
    roots: np.ndarray,
    plan_list: t.Sequence[t.Any],
    levels: t.Sequence[int],
    level_steps: t.Callable[[int, t.Any], t.Sequence[_Step]],
    point_of: np.ndarray,
    active: np.ndarray,
) -> PlanGrid:
    """Assemble a :class:`PlanGrid` from a shared level-step table.

    The HBSP^k cost is a sum over levels, and a level's charged steps
    depend on ``(level, LevelSchedule)`` and the point — never on what
    the other levels chose.  So ``level_steps(level, schedule)`` runs
    once per *distinct* pair over the distinct points (``|choices|·k``
    kernel passes for a full ``|choices|^k`` space), and each plan's
    :class:`KernelGrid` gathers its points' columns out of those shared
    steps: the same floats the per-plan evaluation produced.
    """
    groups, group_of, pos_of = _group_plans(plan_list, ns.size)
    table = {
        (level, schedule): level_steps(level, schedule)
        for level in levels
        for schedule in dict.fromkeys(plan.level(level) for plan, _ in groups)
    }
    grids = []
    for plan, sel in groups:
        sub_ns, cols = ns[sel], point_of[sel]

        def name_of(
            i: int, plan: t.Any = plan, sub_ns: np.ndarray = sub_ns
        ) -> str:
            return f"{collective}(k={k}, n={int(sub_ns[i])}, plan={plan.key})"

        steps = [
            step.take(cols)
            for level in levels
            for step in table[level, plan.level(level)]
        ]
        grids.append(
            KernelGrid(collective, sub_ns, roots[sel], steps, active[sel], name_of)
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
    def check_roots(
        self, roots: int | t.Sequence[int] | np.ndarray | None, G: int
    ) -> np.ndarray:
        """Resolve/validate the per-point root axis (None = fastest)."""
        if roots is None:
            return np.full(G, self.fastest, dtype=np.int64)
        arr = np.asarray(roots, dtype=np.int64)
        if arr.ndim == 0:
            arr = np.full(G, int(arr), dtype=np.int64)
        if arr.shape != (G,):
            raise CollectiveError(
                f"roots must be a scalar or a length-{G} sequence, "
                f"got shape {arr.shape}"
            )
        bad = (arr < 0) | (arr >= self.p)
        if bad.any():
            root = int(arr[np.argmax(bad)])
            raise CollectiveError(f"root {root} out of range for p={self.p}")
        return arr

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

    def sender_r(
        self, level: int, start: int, stop: int, coords_below: np.ndarray | None
    ) -> np.ndarray:
        """``r`` of the child coordinators in a cluster's child run."""
        if level - 1 == 0:
            # A leaf coordinates itself whatever the root is.
            return self.r0[start:stop][:, np.newaxis]
        assert coords_below is not None
        return self.r0[coords_below[start:stop]]

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


def _check_ns(ns: np.ndarray | t.Sequence[int]) -> np.ndarray:
    arr = np.asarray(ns, dtype=np.int64)
    if arr.ndim != 1:
        raise CollectiveError(f"ns must be one-dimensional, got shape {arr.shape}")
    if arr.size and int(arr.min()) < 0:
        first_bad = int(arr[arr < 0][0])
        raise CollectiveError(f"n must be >= 0, got {first_bad}")
    return arr


def _check_counts(counts: t.Any, ns: np.ndarray, p: int) -> np.ndarray:
    """Validate a ``(G, p)`` per-point workload matrix against ``ns``."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (ns.size, p):
        raise CollectiveError(
            f"counts must have shape ({ns.size}, {p}), got {counts.shape}"
        )
    sums = counts.sum(axis=1)
    if not np.array_equal(sums, ns):
        i = int(np.argmax(sums != ns))
        raise CollectiveError(
            f"counts sum to {int(sums[i])}, expected n={int(ns[i])}"
        )
    return counts


# ---------------------------------------------------------------------------
# Gather
# ---------------------------------------------------------------------------

class GatherKernel:
    """Vectorized :func:`~repro.model.predict.predict_gather`.

    Compile once per parameter set; evaluate arbitrary grids of
    ``(n, root, counts)`` points.  The gather ascends level by level:
    subtree totals are ``np.add.reduceat`` segment sums, the per-cluster
    h-relation is an elementwise max over ``r·h`` products, and the
    worst cluster per level is an ``argmax`` (first-max, matching the
    scalar strict ``>`` scan).
    """

    def __init__(self, params: HBSPParams, *, item_bytes: int = BYTES_PER_INT) -> None:
        self.params = params
        self.item_bytes = int(item_bytes)
        self._tree = _CompiledTree(params)
        self._labels = {
            level: tuple(
                f"super{level}: gather into {(level, j)}"
                for j in range(params.m[level])
            )
            for level in range(1, params.k + 1)
        }

    def evaluate(
        self,
        ns: np.ndarray | t.Sequence[int],
        *,
        roots: int | t.Sequence[int] | np.ndarray | None = None,
        counts: np.ndarray | None = None,
    ) -> KernelGrid:
        """Evaluate every ``(n, root, counts)`` point in one pass.

        ``counts`` is an optional ``(G, p)`` int64 matrix of initial
        per-processor item counts (default: the balanced workload per
        point, as in the scalar predictor).
        """
        tree = self._tree
        params, item_bytes = self.params, self.item_bytes
        ns = _check_ns(ns)
        G = ns.size
        roots_arr = tree.check_roots(roots, G)
        if counts is None:
            counts = balanced_counts(params, ns)
        else:
            counts = _check_counts(counts, ns, params.p)

        def name_of(i: int) -> str:
            return f"gather(k={params.k}, n={int(ns[i])})"

        active = np.ones(G, dtype=bool)
        if params.k == 0 or params.p == 1 or G == 0:
            return KernelGrid("gather", ns, roots_arr, [], active, name_of)

        steps: list[_Step] = []
        totals_below = np.ascontiguousarray(counts.T)  # (p, G) int64
        coords_below: np.ndarray | None = None
        for level in range(1, params.k + 1):
            totals_here = np.add.reduceat(
                totals_below, tree.child_start[level], axis=0
            )
            coords_here = tree.coords(level, roots_arr)
            gh_stack = self._flat_gh(
                level, totals_below, totals_here, coords_here, coords_below, G
            )
            cost_stack = gh_stack + tree.L[level][:, np.newaxis]
            choice = np.argmax(cost_stack, axis=0)
            gh_sel = np.take_along_axis(
                gh_stack, choice[np.newaxis, :], axis=0
            )[0]
            steps.append(
                _Step(
                    level=level,
                    gh=gh_sel,
                    L=tree.L[level][choice],
                    choice=choice,
                    labels=(self._labels[level],),
                )
            )
            totals_below = totals_here
            coords_below = coords_here
        return KernelGrid("gather", ns, roots_arr, steps, active, name_of)

    # -- schedule-plan evaluation ---------------------------------------------

    def _flat_gh(
        self,
        level: int,
        totals_below: np.ndarray,
        totals_here: np.ndarray,
        coords_here: np.ndarray,
        coords_below: np.ndarray | None,
        G: int,
        segment: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """``(m_level, G)`` per-cluster ``g·h`` of one flat fan-in step.

        ``segment=(s, S)`` prices chunk ``s`` of an ``S``-way segmented
        level (each child coordinator sends ``T//S + (1 if s < T%S)`` of
        its ``T`` accumulated items); ``None`` is the whole message —
        the exact arithmetic of the plan-less :meth:`evaluate`.
        """
        tree, item_bytes = self._tree, self.item_bytes
        m_here = self.params.m[level]
        gh_stack = np.empty((m_here, G))
        for j in range(m_here):
            start, stop = tree.child_slice[level][j]
            child_tot = totals_below[start:stop]  # (C, G)
            coord = coords_here[j]  # (G,)
            own_pos = tree.child_pos[level][j][coord]  # (G,)
            if segment is None:
                sent = child_tot
                own_sent = np.take_along_axis(
                    sent, own_pos[np.newaxis, :], axis=0
                )[0]
                received = totals_here[j] - own_sent
            else:
                s, S = segment
                sent = child_tot // S + (s < child_tot % S)
                own_sent = np.take_along_axis(
                    sent, own_pos[np.newaxis, :], axis=0
                )[0]
                received = sent.sum(axis=0) - own_sent
            values = np.empty((stop - start + 1, G))
            values[0] = tree.r0[coord] * (received * item_bytes)
            values[1:] = tree.sender_r(level, start, stop, coords_below) * (
                sent * item_bytes
            )
            np.put_along_axis(
                values[1:], own_pos[np.newaxis, :], 0.0, axis=0
            )
            gh_stack[j] = tree.g * values.max(axis=0)
        return gh_stack

    def _binomial_steps(
        self,
        level: int,
        totals_below: np.ndarray,
        coords_here: np.ndarray,
        coords_below: np.ndarray | None,
        G: int,
    ) -> list[_Step]:
        """Per-round steps of a binomial-tree gather level.

        Child positions rotate so the cluster coordinator sits at
        relative 0; round ``t`` sends each holder's accumulated window
        ``[q, q+2^t)`` down to ``q - 2^t``.  Clusters run ⌈log₂C⌉
        rounds; the later rounds' worst-cluster scans cover only the
        clusters still active.
        """
        tree, item_bytes = self._tree, self.item_bytes
        per_round: dict[int, list[tuple[int, np.ndarray]]] = {}
        for j in range(self.params.m[level]):
            start, stop = tree.child_slice[level][j]
            C = stop - start
            R = max(0, C - 1).bit_length()
            if R == 0:
                continue
            child_tot = totals_below[start:stop]
            child_r = tree.sender_r(level, start, stop, coords_below)
            if child_r.shape[1] == 1:
                child_r = np.broadcast_to(child_r, (C, G))
            coord = coords_here[j]
            own_pos = tree.child_pos[level][j][coord]
            idx = (
                own_pos[np.newaxis, :]
                + np.arange(C, dtype=np.int64)[:, np.newaxis]
            ) % C
            rot_tot = np.take_along_axis(child_tot, idx, axis=0)
            rot_r = np.take_along_axis(child_r, idx, axis=0)
            prefix = np.zeros((C + 1, G), dtype=np.int64)
            np.cumsum(rot_tot, axis=0, out=prefix[1:])
            for t_round in range(R):
                half = 1 << t_round
                rows = []
                for q in range(half, C, 2 * half):
                    volume = (prefix[min(q + half, C)] - prefix[q]) * item_bytes
                    rows.append(rot_r[q] * volume)
                    rows.append(rot_r[q - half] * volume)
                gh = tree.g * np.max(np.stack(rows), axis=0)
                per_round.setdefault(t_round, []).append((j, gh))
        steps: list[_Step] = []
        for t_round in sorted(per_round):
            entries = per_round[t_round]
            js = np.array([j for j, _ in entries], dtype=np.int64)
            gh_stack = np.stack([gh for _, gh in entries])
            L_here = tree.L[level][js]
            cost_stack = gh_stack + L_here[:, np.newaxis]
            choice = np.argmax(cost_stack, axis=0)
            gh_sel = np.take_along_axis(
                gh_stack, choice[np.newaxis, :], axis=0
            )[0]
            labels = tuple(
                f"super{level}: binomial gather round {t_round + 1} "
                f"in {(level, int(j))}"
                for j in js
            )
            steps.append(
                _Step(
                    level=level,
                    gh=gh_sel,
                    L=L_here[choice],
                    choice=choice,
                    labels=(labels,),
                )
            )
        return steps

    def _level_steps(
        self,
        level: int,
        schedule: t.Any,
        totals_below: np.ndarray,
        totals_here: np.ndarray,
        coords_here: np.ndarray,
        coords_below: np.ndarray | None,
    ) -> list[_Step]:
        """The charged steps of one level under one ``LevelSchedule``."""
        G = totals_below.shape[1]
        if schedule.algorithm == "binomial":
            return self._binomial_steps(
                level, totals_below, coords_here, coords_below, G
            )
        tree, S = self._tree, schedule.segments
        steps: list[_Step] = []
        for s in range(S):
            gh_stack = self._flat_gh(
                level, totals_below, totals_here, coords_here, coords_below,
                G, segment=None if S == 1 else (s, S),
            )
            cost_stack = gh_stack + tree.L[level][:, np.newaxis]
            choice = np.argmax(cost_stack, axis=0)
            gh_sel = np.take_along_axis(
                gh_stack, choice[np.newaxis, :], axis=0
            )[0]
            labels = (
                self._labels[level]
                if S == 1
                else tuple(
                    f"super{level}.{s + 1}: gather into {(level, j)}"
                    for j in range(self.params.m[level])
                )
            )
            steps.append(
                _Step(
                    level=level,
                    gh=gh_sel,
                    L=tree.L[level][choice],
                    choice=choice,
                    labels=(labels,),
                )
            )
        return steps

    def evaluate_plans(
        self,
        ns: np.ndarray | t.Sequence[int],
        plans: t.Any,
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
        tree, params = self._tree, self.params
        ns = _check_ns(ns)
        roots_arr = tree.check_roots(roots, ns.size)
        plan_list = _check_plans(plans, "gather", params.k, ns.size)
        if counts is None:
            first, point_of = _distinct_points(ns, roots_arr)
            point_counts = balanced_counts(params, ns[first])
        else:
            counts = _check_counts(counts, ns, params.p)
            first, point_of = _distinct_points(ns, roots_arr, counts)
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
            coords.append(tree.coords(level, roots_arr[first]))
        return _plan_grid(
            "gather", params.k, ns, roots_arr, plan_list, levels,
            lambda level, schedule: self._level_steps(
                level, schedule, totals[level - 1], totals[level],
                coords[level], coords[level - 1],
            ),
            point_of, np.ones(ns.size, dtype=bool),
        )


# ---------------------------------------------------------------------------
# Broadcast
# ---------------------------------------------------------------------------

def _phase_codes(
    phases: PhaseSpec | t.Sequence[PhaseSpec], k: int, G: int
) -> tuple[np.ndarray, t.Callable[[int], PhaseSpec]]:
    """Per-point phase codes (0 = one, 1 = two) for levels 1..k."""

    def code_row(spec: PhaseSpec) -> list[int]:
        row = []
        for level in range(1, k + 1):
            if isinstance(spec, str):
                mode = spec
            else:
                mode = spec.get(level, "two")
            if mode not in ("one", "two"):
                raise CollectiveError(
                    f"phase must be 'one' or 'two', got {mode!r}"
                )
            row.append(0 if mode == "one" else 1)
        return row

    if isinstance(phases, (str, t.Mapping)):
        codes = np.broadcast_to(
            np.array(code_row(phases), dtype=np.int64), (G, k)
        )
        return codes, lambda i: phases
    specs = list(phases)
    if len(specs) != G:
        raise CollectiveError(
            f"phases must be one spec or a length-{G} sequence, "
            f"got {len(specs)}"
        )
    codes = np.array([code_row(spec) for spec in specs], dtype=np.int64)
    return codes, lambda i: specs[i]


class BroadcastKernel:
    """Vectorized :func:`~repro.model.predict.predict_broadcast`.

    Descends from level k to 1; per point the phase scheme can differ
    (``phases`` accepts one spec or a per-point sequence), so the
    planner's whole ``2^k`` enumeration is a single evaluation.
    """

    def __init__(self, params: HBSPParams, *, item_bytes: int = BYTES_PER_INT) -> None:
        self.params = params
        self.item_bytes = int(item_bytes)
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
        self._labels = {
            level: (
                tuple(
                    f"super{level}: one-phase bcast in {(level, j)}"
                    for j in self._fanned[level]
                ),
                tuple(
                    f"super{level}: two-phase bcast in {(level, j)}"
                    for j in self._fanned[level]
                ),
            )
            for level in range(1, params.k + 1)
        }

    # -- share matrices ---------------------------------------------------------
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

    def evaluate(
        self,
        ns: np.ndarray | t.Sequence[int],
        *,
        roots: int | t.Sequence[int] | np.ndarray | None = None,
        phases: PhaseSpec | t.Sequence[PhaseSpec] = "two",
        fractions: t.Sequence[float] | None = None,
    ) -> KernelGrid:
        """Evaluate every ``(n, root, phase-scheme)`` point in one pass."""
        tree = self._tree
        params, item_bytes = self.params, self.item_bytes
        ns = _check_ns(ns)
        G = ns.size
        roots_arr = tree.check_roots(roots, G)
        k = params.k

        if params.k == 0 or params.p == 1 or G == 0:
            def flat_name(i: int) -> str:
                spec = phases if isinstance(phases, (str, t.Mapping)) else phases[i]
                return f"broadcast(k={k}, n={int(ns[i])}, phases={spec!r})"

            return KernelGrid(
                "broadcast", ns, roots_arr, [],
                np.zeros(G, dtype=bool), flat_name,
            )

        codes, spec_of = _phase_codes(phases, k, G)
        if fractions is not None and len(fractions) != params.p:
            raise CollectiveError(
                f"fractions must have p={params.p} entries"
            )

        def name_of(i: int) -> str:
            return f"broadcast(k={k}, n={int(ns[i])}, phases={spec_of(i)!r})"

        active = ns > 0
        steps: list[_Step] = []
        for level in range(k, 0, -1):
            fanned = self._fanned[level]
            if not fanned:
                continue
            code_l = codes[:, level - 1]
            any_one = bool((code_l == 0).any())
            any_two = bool((code_l == 1).any())
            coords_here = tree.coords(level, roots_arr)
            coords_below = tree.coords(level - 1, roots_arr) if level - 1 >= 1 else None
            cost_stack = np.empty((len(fanned), G))
            gh_rows = np.empty((len(fanned), G))
            L_rows = np.empty((len(fanned), G))
            for row, j in enumerate(fanned):
                start, stop = tree.child_slice[level][j]
                C = stop - start
                coord = coords_here[j]
                r_coord = tree.r0[coord]
                child_r = tree.sender_r(level, start, stop, coords_below)
                if child_r.shape[1] == 1:
                    child_r = np.broadcast_to(child_r, (C, G))
                own_pos = tree.child_pos[level][j][coord]
                L_j = tree.L[level][j]
                gh_one = tot_one = gh_two = tot_two = None
                if any_one:
                    values = np.empty((C + 1, G))
                    values[0] = r_coord * ((ns * (C - 1)) * item_bytes)
                    values[1:] = child_r * (ns * item_bytes)[np.newaxis, :]
                    np.put_along_axis(
                        values[1:], own_pos[np.newaxis, :], 0.0, axis=0
                    )
                    gh_one = tree.g * values.max(axis=0)
                    tot_one = gh_one + L_j
                if any_two:
                    shares = self._shares(level, j, C, ns, fractions)
                    own_share = np.take_along_axis(
                        shares, own_pos[np.newaxis, :], axis=0
                    )[0]
                    values_a = np.empty((C + 1, G))
                    values_a[0] = r_coord * ((ns - own_share) * item_bytes)
                    values_a[1:] = child_r * (shares * item_bytes)
                    np.put_along_axis(
                        values_a[1:], own_pos[np.newaxis, :], 0.0, axis=0
                    )
                    h_a = values_a.max(axis=0)
                    values_b = child_r * (
                        np.maximum(shares * (C - 1), ns[np.newaxis, :] - shares)
                        * item_bytes
                    )
                    h_b = values_b.max(axis=0)
                    gh_two = tree.g * (h_a + h_b)
                    tot_two = gh_two + 2 * L_j
                if not any_two:
                    gh_sel, tot_sel = gh_one, tot_one
                    L_sel = np.full(G, L_j)
                elif not any_one:
                    gh_sel, tot_sel = gh_two, tot_two
                    L_sel = np.full(G, 2 * L_j)
                else:
                    two = code_l == 1
                    gh_sel = np.where(two, gh_two, gh_one)
                    tot_sel = np.where(two, tot_two, tot_one)
                    L_sel = np.where(two, 2 * L_j, L_j)
                gh_rows[row] = gh_sel
                cost_stack[row] = tot_sel
                L_rows[row] = L_sel
            choice = np.argmax(cost_stack, axis=0)
            gh = np.take_along_axis(gh_rows, choice[np.newaxis, :], axis=0)[0]
            L = np.take_along_axis(L_rows, choice[np.newaxis, :], axis=0)[0]
            steps.append(
                _Step(
                    level=level,
                    gh=gh,
                    L=L,
                    choice=choice,
                    labels=self._labels[level],
                    code=code_l,
                )
            )
        return KernelGrid("broadcast", ns, roots_arr, steps, active, name_of)

    # -- schedule-plan evaluation ---------------------------------------------

    def _cluster_tables(
        self,
        level: int,
        j: int,
        coords_here: np.ndarray,
        coords_below: np.ndarray | None,
        G: int,
    ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """(C, r_coord, child_r, own_pos) of one fanned cluster."""
        tree = self._tree
        start, stop = tree.child_slice[level][j]
        C = stop - start
        coord = coords_here[j]
        r_coord = tree.r0[coord]
        child_r = tree.sender_r(level, start, stop, coords_below)
        if child_r.shape[1] == 1:
            child_r = np.broadcast_to(child_r, (C, G))
        own_pos = tree.child_pos[level][j][coord]
        return C, r_coord, child_r, own_pos

    def _one_phase_step(
        self,
        level: int,
        ns: np.ndarray,
        coords_here: np.ndarray,
        coords_below: np.ndarray | None,
        G: int,
        segment: tuple[int, int] | None,
    ) -> _Step:
        """One (possibly chunked) coordinator fan-out sub-step."""
        tree, item_bytes = self._tree, self.item_bytes
        fanned = self._fanned[level]
        if segment is None:
            chunk = ns
        else:
            s, S = segment
            chunk = ns // S + (s < ns % S)
        gh_rows = np.empty((len(fanned), G))
        cost_rows = np.empty((len(fanned), G))
        for row, j in enumerate(fanned):
            C, r_coord, child_r, own_pos = self._cluster_tables(
                level, j, coords_here, coords_below, G
            )
            values = np.empty((C + 1, G))
            values[0] = r_coord * ((chunk * (C - 1)) * item_bytes)
            values[1:] = child_r * (chunk * item_bytes)[np.newaxis, :]
            np.put_along_axis(values[1:], own_pos[np.newaxis, :], 0.0, axis=0)
            gh_rows[row] = tree.g * values.max(axis=0)
            cost_rows[row] = gh_rows[row] + tree.L[level][j]
        choice = np.argmax(cost_rows, axis=0)
        gh = np.take_along_axis(gh_rows, choice[np.newaxis, :], axis=0)[0]
        L_of = np.array([tree.L[level][j] for j in fanned])
        labels = (
            self._labels[level][0]
            if segment is None
            else tuple(
                f"super{level}.{segment[0] + 1}: one-phase bcast "
                f"in {(level, j)}"
                for j in fanned
            )
        )
        return _Step(
            level=level, gh=gh, L=L_of[choice], choice=choice, labels=(labels,)
        )

    def _two_phase_step(
        self,
        level: int,
        ns: np.ndarray,
        coords_here: np.ndarray,
        coords_below: np.ndarray | None,
        G: int,
        fractions: t.Sequence[float] | None,
    ) -> _Step:
        """The scatter + total-exchange two-phase step of one level."""
        tree, item_bytes = self._tree, self.item_bytes
        fanned = self._fanned[level]
        gh_rows = np.empty((len(fanned), G))
        cost_rows = np.empty((len(fanned), G))
        for row, j in enumerate(fanned):
            C, r_coord, child_r, own_pos = self._cluster_tables(
                level, j, coords_here, coords_below, G
            )
            shares = self._shares(level, j, C, ns, fractions)
            own_share = np.take_along_axis(
                shares, own_pos[np.newaxis, :], axis=0
            )[0]
            values_a = np.empty((C + 1, G))
            values_a[0] = r_coord * ((ns - own_share) * item_bytes)
            values_a[1:] = child_r * (shares * item_bytes)
            np.put_along_axis(
                values_a[1:], own_pos[np.newaxis, :], 0.0, axis=0
            )
            h_a = values_a.max(axis=0)
            values_b = child_r * (
                np.maximum(shares * (C - 1), ns[np.newaxis, :] - shares)
                * item_bytes
            )
            h_b = values_b.max(axis=0)
            gh_rows[row] = tree.g * (h_a + h_b)
            cost_rows[row] = gh_rows[row] + 2 * tree.L[level][j]
        choice = np.argmax(cost_rows, axis=0)
        gh = np.take_along_axis(gh_rows, choice[np.newaxis, :], axis=0)[0]
        L_of = np.array([2 * tree.L[level][j] for j in fanned])
        return _Step(
            level=level,
            gh=gh,
            L=L_of[choice],
            choice=choice,
            labels=(self._labels[level][1],),
        )

    def _binomial_steps(
        self,
        level: int,
        ns: np.ndarray,
        coords_here: np.ndarray,
        coords_below: np.ndarray | None,
        G: int,
    ) -> list[_Step]:
        """Per-round steps of a binomial-tree broadcast level.

        Rotated so the coordinator holds relative position 0; in round
        ``t`` every holder ``q < 2^t`` forwards the full payload to
        ``q + 2^t``.
        """
        tree, item_bytes = self._tree, self.item_bytes
        per_round: dict[int, list[tuple[int, np.ndarray]]] = {}
        for j in self._fanned[level]:
            C, _r_coord, child_r, own_pos = self._cluster_tables(
                level, j, coords_here, coords_below, G
            )
            R = max(0, C - 1).bit_length()
            idx = (
                own_pos[np.newaxis, :]
                + np.arange(C, dtype=np.int64)[:, np.newaxis]
            ) % C
            rot_r = np.take_along_axis(child_r, idx, axis=0)
            volume = ns * item_bytes
            for t_round in range(R):
                half = 1 << t_round
                rows = []
                for q in range(min(half, C - half)):
                    rows.append(rot_r[q] * volume)
                    rows.append(rot_r[q + half] * volume)
                gh = tree.g * np.max(np.stack(rows), axis=0)
                per_round.setdefault(t_round, []).append((j, gh))
        steps: list[_Step] = []
        for t_round in sorted(per_round):
            entries = per_round[t_round]
            js = np.array([j for j, _ in entries], dtype=np.int64)
            gh_stack = np.stack([gh for _, gh in entries])
            L_here = tree.L[level][js]
            cost_stack = gh_stack + L_here[:, np.newaxis]
            choice = np.argmax(cost_stack, axis=0)
            gh_sel = np.take_along_axis(
                gh_stack, choice[np.newaxis, :], axis=0
            )[0]
            labels = tuple(
                f"super{level}: binomial bcast round {t_round + 1} "
                f"in {(level, int(j))}"
                for j in js
            )
            steps.append(
                _Step(
                    level=level,
                    gh=gh_sel,
                    L=L_here[choice],
                    choice=choice,
                    labels=(labels,),
                )
            )
        return steps

    def _level_steps(
        self,
        level: int,
        schedule: t.Any,
        ns: np.ndarray,
        coords_here: np.ndarray,
        coords_below: np.ndarray | None,
        fractions: t.Sequence[float] | None,
    ) -> list[_Step]:
        """The charged steps of one level under one ``LevelSchedule``."""
        G = ns.size
        if schedule.algorithm == "one":
            S = schedule.segments
            return [
                self._one_phase_step(
                    level, ns, coords_here, coords_below, G,
                    segment=None if S == 1 else (s, S),
                )
                for s in range(S)
            ]
        if schedule.algorithm == "two":
            return [
                self._two_phase_step(
                    level, ns, coords_here, coords_below, G, fractions
                )
            ]
        return self._binomial_steps(level, ns, coords_here, coords_below, G)

    def evaluate_plans(
        self,
        ns: np.ndarray | t.Sequence[int],
        plans: t.Any,
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
        tree, params = self._tree, self.params
        ns = _check_ns(ns)
        roots_arr = tree.check_roots(roots, ns.size)
        if fractions is not None and len(fractions) != params.p:
            raise CollectiveError(f"fractions must have p={params.p} entries")
        plan_list = _check_plans(plans, "broadcast", params.k, ns.size)
        first, point_of = _distinct_points(ns, roots_arr)
        point_ns, point_roots = ns[first], roots_arr[first]
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
            "broadcast", params.k, ns, roots_arr, plan_list, levels,
            lambda level, schedule: self._level_steps(
                level, schedule, point_ns, coords[level],
                coords.get(level - 1), fractions,
            ),
            point_of, ns > 0,
        )
