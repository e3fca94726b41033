"""HBSP^k model parameters (Section 3.3, Table 1).

An HBSP^k computer is characterised by:

``m_i``
    number of HBSP^i machines on level ``i``;
``m_{i,j}``
    number of children of ``M_{i,j}``;
``g``
    bandwidth indicator: the speed with which the *fastest* machine can
    inject packets into the network (seconds per byte here);
``r_{i,j}``
    slowness of ``M_{i,j}``'s injection relative to the fastest machine
    (the fastest machine has ``r = 1``; ``r = t`` communicates ``t``
    times slower);
``L_{i,j}``
    overhead of a barrier synchronisation over the machines in the
    ``j``-th cluster of level ``i``;
``c_{i,j}``
    fraction of the problem size that ``M_{i,j}`` receives (the
    load-balancing feature; proportional to machine abilities).

The model "says nothing about how the parameter values should be
calculated ... it assumes that such costs have been determined
appropriately" — :func:`calibrate` is our determination: it derives the
parameters from a :class:`~repro.cluster.ClusterTopology` and
(optionally) BYTEmark scores, mirroring how the paper parameterised its
testbed.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import math
import typing as t

import numpy as np

from repro.bytemark.ranking import fractions_from_scores
from repro.bytemark.suite import true_scores
from repro.cluster.topology import ClusterTopology
from repro.errors import CalibrationError, ValidationError
from repro.model.tree import HBSPTree
from repro.util.validation import check_positive

__all__ = ["ClusterTable", "HBSPParams", "LevelTable", "calibrate"]

Key = tuple[int, int]  # (level i, index j)


def fastest_of_runs(
    r0: np.ndarray, leaves: np.ndarray, run: np.ndarray, start: np.ndarray
) -> np.ndarray:
    """The fastest of each run ``leaves[start[j]:start[j + 1]]``.

    ``run`` numbers every leaf's run.  The model's one coordinator rule:
    smallest ``r_{0,j}``, ties to the smaller leaf index ``j``.
    """
    order = np.lexsort((leaves, r0[leaves], run))
    return leaves[order[start[:-1]]]


@dataclasses.dataclass(frozen=True, eq=False)
class LevelTable:
    """One level's nodes ``M_{level,j}`` as arrays indexed by ``j``.

    Levels are filled left-to-right in DFS order, so a subtree is the
    leaf run ``[leaf_start[j], leaf_start[j + 1])`` and a node's
    children are the run ``[child_start[j], child_start[j + 1])`` of the
    level below.
    """

    leaf_start: np.ndarray  # (m + 1,) int64
    child_start: np.ndarray  # (m + 1,) int64; all zeros on level 0
    parent: np.ndarray  # index one level up; all 0 on the top level
    fan: np.ndarray  # m_{level,j}
    L: np.ndarray  # L_{level,j}; NaN on level 0
    coord: np.ndarray  # default coordinator leaf (:func:`fastest_of_runs`)
    uniform_fan: int  # the fan-out every node has, 0 if they differ

    def coordinators(self, root: int | None) -> list[int]:
        """Each node's coordinator leaf when the collective roots at ``root``.

        The default coordinator, except that the node whose subtree
        holds ``root`` is coordinated by ``root`` itself — this is how
        the experiments re-root a collective on a chosen processor.
        """
        coords = self.coord.tolist()
        if root is not None:
            coords[bisect.bisect_right(self.leaf_start, root) - 1] = root
        return coords


@dataclasses.dataclass(frozen=True, eq=False)
class ClusterTable:
    """Every level of an HBSP^k tree, bottom-up (``levels[i]`` is level i)."""

    r0: np.ndarray  # r_{0,j} of every leaf
    levels: tuple[LevelTable, ...]
    fastest: int  # the top-level coordinator: every collective's default root

    @classmethod
    def build(cls, params: "HBSPParams") -> "ClusterTable":
        p, k = params.m[0], params.k
        fans = [[0] * p] + [
            [params.fan_out[(level, j)] for j in range(params.m[level])]
            for level in range(1, k + 1)
        ]
        # Each node's parent one level up; the top level forms one run.
        parents = [np.repeat(np.arange(len(up)), up) for up in fans[1:]]
        parents.append(np.zeros(len(fans[k]), dtype=np.int64))
        r0 = np.array([params.r[(0, j)] for j in range(p)])
        leaf_start = np.arange(p + 1, dtype=np.int64)
        coord, L = leaf_start[:-1], np.full(p, np.nan)
        levels = []
        for level, fan in enumerate(fans):
            child_start = np.array([0, *itertools.accumulate(fan)], dtype=np.int64)
            if level:
                leaf_start = leaf_start[child_start]
                coord = fastest_of_runs(r0, coord, parents[level - 1], child_start)
                L = np.array([params.L[(level, j)] for j in range(len(fan))])
            uniform = fan[0] if len(set(fan)) == 1 else 0
            levels.append(LevelTable(
                leaf_start, child_start, parents[level], np.array(fan, dtype=np.int64),
                L, coord, uniform,
            ))
        top = np.array([0, coord.size])
        fastest = fastest_of_runs(r0, coord, parents[k], top)
        return cls(r0, tuple(levels), int(fastest[0]))


@dataclasses.dataclass(frozen=True)
class HBSPParams:
    """A complete, validated HBSP^k parameter set.

    Keys are ``(i, j)`` pairs addressing ``M_{i,j}``.  ``r`` and ``c``
    are defined for every node; ``L`` is defined for every cluster node
    (level >= 1).  ``fan_out[(i, j)]`` is ``m_{i,j}``.
    """

    k: int
    g: float
    m: tuple[int, ...]  # m[i] = number of HBSP^i machines on level i
    r: t.Mapping[Key, float]
    L: t.Mapping[Key, float]
    c: t.Mapping[Key, float]
    fan_out: t.Mapping[Key, int]

    def __post_init__(self) -> None:
        check_positive("g", self.g)
        if self.k < 0:
            raise ValidationError(f"k must be >= 0, got {self.k}")
        if len(self.m) != self.k + 1:
            raise ValidationError(
                f"m must have k+1 = {self.k + 1} entries, got {len(self.m)}"
            )
        for level, count in enumerate(self.m):
            if count < 1:
                raise ValidationError(f"m_{level} must be >= 1, got {count}")
            for j in range(count):
                if (level, j) not in self.r:
                    raise ValidationError(f"missing r for M_{{{level},{j}}}")
        for key, value in self.r.items():
            if value < 1.0 - 1e-12:
                raise ValidationError(
                    f"r{key} = {value!r} < 1; r is relative to the fastest "
                    "machine, which is normalised to 1"
                )
        if min(self.r[(0, j)] for j in range(self.m[0])) > 1.0 + 1e-9:
            raise ValidationError("the fastest processor must have r = 1")
        for key, value in self.L.items():
            if value < 0:
                raise ValidationError(f"L{key} must be >= 0, got {value!r}")
        # c on level 0 must be a partition of the problem.
        total_c0 = math.fsum(self.c.get((0, j), 0.0) for j in range(self.m[0]))
        if abs(total_c0 - 1.0) > 1e-9:
            raise ValidationError(f"level-0 fractions c must sum to 1, got {total_c0!r}")

    # -- convenience accessors -----------------------------------------------------
    def r_of(self, level: int, index: int) -> float:
        """``r_{level,index}``."""
        return self.r[(level, index)]

    def L_of(self, level: int, index: int) -> float:
        """``L_{level,index}`` (clusters only)."""
        return self.L[(level, index)]

    def c_of(self, level: int, index: int) -> float:
        """``c_{level,index}``."""
        return self.c[(level, index)]

    def m_of(self, level: int, index: int) -> int:
        """``m_{level,index}``: fan-out of node ``M_{level,index}``."""
        return self.fan_out[(level, index)]

    @property
    def p(self) -> int:
        """Number of processors (``m_0``)."""
        return self.m[0]

    def slowest_r(self, level: int) -> float:
        """``r_{level,s}``: the slowest node's ``r`` on ``level``."""
        return max(self.r[(level, j)] for j in range(self.m[level]))

    def fastest_index(self, level: int) -> int:
        """Index ``j`` of the fastest node on ``level`` (smallest r)."""
        return min(range(self.m[level]), key=lambda j: (self.r[(level, j)], j))

    def slowest_index(self, level: int) -> int:
        """Index ``j`` of the slowest node on ``level`` (largest r)."""
        return max(range(self.m[level]), key=lambda j: (self.r[(level, j)], -j))

    # -- structure navigation ---------------------------------------------------
    @functools.cached_property
    def table(self) -> "ClusterTable":
        """The tree as per-level arrays, built once per parameter set.

        It reads ``m``, ``fan_out``, ``r`` and ``L`` only: the scalar
        predictors, both kernels and every planner call share it.
        """
        return ClusterTable.build(self)

    def children_of(self, level: int, index: int) -> tuple[Key, ...]:
        """Keys of the children of ``M_{level,index}`` (level-1 nodes)."""
        if level < 1:
            return ()
        fan = self.fan_out[(level, index)]
        offset = int(self.table.levels[level].child_start[index])
        return tuple((level - 1, offset + j) for j in range(fan))

    def parent_of(self, level: int, index: int) -> Key | None:
        """Key of the parent of ``M_{level,index}`` (``None`` for the root)."""
        if not 0 <= level < self.k:
            return None
        parent = self.table.levels[level].parent
        if not 0 <= index < parent.size:
            return None
        return (level + 1, int(parent[index]))

    def leaf_indices(self, level: int, index: int) -> tuple[int, ...]:
        """Level-0 indices in the subtree of ``M_{level,index}``."""
        leaf_start = self.table.levels[level].leaf_start
        return tuple(range(int(leaf_start[index]), int(leaf_start[index + 1])))

    def with_equal_fractions(self) -> "HBSPParams":
        """A copy with ``c_{0,j} = 1/p`` (the unbalanced baseline)."""
        c = dict(self.c)
        for j in range(self.p):
            c[(0, j)] = 1.0 / self.p
        return dataclasses.replace(self, c=c)

    def with_fractions(self, level0_fractions: t.Sequence[float]) -> "HBSPParams":
        """A copy with the given level-0 fractions (must sum to 1)."""
        if len(level0_fractions) != self.p:
            raise ValidationError(
                f"need {self.p} fractions, got {len(level0_fractions)}"
            )
        c = dict(self.c)
        for j, fraction in enumerate(level0_fractions):
            c[(0, j)] = float(fraction)
        return dataclasses.replace(self, c=c)

    def describe(self) -> str:
        """Render the parameter set as a Table-1-style listing."""
        from repro.util.tables import AsciiTable

        table = AsciiTable(
            f"HBSP^{self.k} parameters (g = {self.g:g} s/byte)",
            ["node", "m_ij", "r_ij", "L_ij", "c_ij"],
        )
        for level in range(self.k, -1, -1):
            for j in range(self.m[level]):
                key = (level, j)
                table.add_row(
                    [
                        f"M_{{{level},{j}}}",
                        self.fan_out.get(key, 0),
                        self.r[key],
                        self.L.get(key, float("nan")),
                        self.c.get(key, float("nan")),
                    ]
                )
        return table.render()


def calibrate(
    topology: ClusterTopology,
    *,
    scores: t.Mapping[str, float] | None = None,
    tree: HBSPTree | None = None,
) -> HBSPParams:
    """Derive HBSP^k parameters from a cluster topology.

    * ``g`` is the NIC gap of the fastest-injecting machine;
    * ``r_{0,j}`` is each processor's NIC gap over ``g``; a cluster's
      ``r`` is its coordinator's ``r`` (coordinators represent their
      cluster in inter-cluster communication, Section 3.1);
    * ``L_{i,j}`` is the cluster network's barrier cost over its
      ``m_{i,j}`` children;
    * ``c_{0,j}`` comes from ``scores`` (BYTEmark indices; defaults to
      the machines' true speeds) proportionally, and a cluster's ``c``
      is the sum over its subtree.

    Pass ``scores=simulate_scores(topology, ...)`` to calibrate from
    noisy measurements as the paper did.
    """
    tree = tree if tree is not None else HBSPTree(topology)
    topo = tree.topology
    if scores is None:
        scores = true_scores(topo)
    missing = [m.name for m in topo.machines if m.name not in scores]
    if missing:
        raise CalibrationError(f"scores missing for machines: {missing}")

    g = topo.min_nic_gap()
    fractions = fractions_from_scores({m.name: scores[m.name] for m in topo.machines})

    r: dict[Key, float] = {}
    L: dict[Key, float] = {}
    c: dict[Key, float] = {}
    fan_out: dict[Key, int] = {}
    m_counts = [tree.m(level) for level in range(tree.k + 1)]

    for node in tree.walk():
        key = (node.level, node.index)
        coordinator = topo.machines[node.coordinator]
        r[key] = coordinator.nic_gap / g
        fan_out[key] = node.fan_out
        c[key] = math.fsum(fractions[topo.machines[mid].name] for mid in node.members)
        if node.level >= 1:
            cluster = topo.clusters[t.cast(int, node.cluster_id)]
            L[key] = cluster.network.sync_cost(max(1, node.fan_out))

    # Guard against pathological float drift on level 0.
    total = math.fsum(c[(0, j)] for j in range(m_counts[0]))
    if abs(total - 1.0) > 1e-9:  # pragma: no cover - fractions sum to 1 already
        raise CalibrationError(f"calibrated fractions sum to {total!r}")

    return HBSPParams(
        k=tree.k,
        g=g,
        m=tuple(m_counts),
        r=r,
        L=L,
        c=c,
        fan_out=fan_out,
    )
