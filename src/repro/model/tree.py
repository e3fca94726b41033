"""The tree representation of an HBSP^k machine (Section 3.1).

An HBSP^k machine is a tree ``T = (V, E)`` of height ``k``.  Nodes at
level ``i`` are HBSP^i machines, labelled ``M_{i,0} .. M_{i,m_i-1}``
left to right.  A level-``i`` node with children is a *cluster* whose
children are HBSP^{i-1} machines; its *coordinator* is (by the paper's
convention) the fastest machine in its subtree, so the root coordinator
is the fastest machine of the entire system.

:class:`HBSPTree` is built from a :class:`~repro.cluster.ClusterTopology`
(normalised so every processor sits at level 0) and gives the model and
the algorithms a uniform way to talk about levels, clusters, members,
and coordinators.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.cluster.machine import MachineSpec
from repro.cluster.topology import ClusterTopology
from repro.errors import ModelError

__all__ = ["HBSPNode", "HBSPTree"]


@dataclasses.dataclass
class HBSPNode:
    """One node ``M_{i,j}`` of the HBSP^k tree.

    Attributes
    ----------
    level:
        The paper's ``i``: 0 for processors, ``k`` for the root.
    index:
        The paper's ``j``: position among level-``i`` nodes, left to
        right.
    name:
        The underlying cluster or machine name.
    machine:
        For level-0 nodes, the processor's global machine id in the
        source topology; for clusters, ``None``.
    coordinator:
        Global machine id of this subtree's coordinator (its fastest
        member; for a level-0 node, the machine itself).
    children:
        Child nodes (HBSP^{i-1} machines); empty for level 0.
    members:
        Global machine ids of all level-0 processors in this subtree.
    cluster_id:
        Id of the corresponding cluster in the source topology
        (``None`` for level-0 nodes).
    """

    level: int
    index: int
    name: str
    machine: int | None
    coordinator: int
    children: list["HBSPNode"] = dataclasses.field(default_factory=list)
    members: tuple[int, ...] = ()
    cluster_id: int | None = None

    @property
    def label(self) -> str:
        """The paper's ``M_{i,j}`` label."""
        return f"M_{{{self.level},{self.index}}}"

    @property
    def fan_out(self) -> int:
        """The paper's ``m_{i,j}``: number of children."""
        return len(self.children)

    def __repr__(self) -> str:
        return f"<{self.label} {self.name!r} coord=m{self.coordinator} fan_out={self.fan_out}>"


class HBSPTree:
    """The HBSP^k view over a cluster topology.

    Parameters
    ----------
    topology:
        Any :class:`ClusterTopology`; it is normalised internally so
        every processor sits at level 0 (machines attached higher up —
        like Figure 1's lone SGI — become chains of singleton clusters,
        matching the paper's "a machine can play different roles at
        different levels").
    """

    def __init__(self, topology: ClusterTopology) -> None:
        self.source = topology
        self.topology = topology.normalized()
        self._levels: list[list[HBSPNode]] = [[] for _ in range(self.topology.height + 1)]
        self.root = self._build(self.topology.cluster_id(self.topology.clusters[0].name))
        # Assign j indices left-to-right per level.  _build appends in
        # DFS order, which is left-to-right within each level already;
        # we still number explicitly for clarity and safety.
        for level_nodes in self._levels:
            for j, node in enumerate(level_nodes):
                node.index = j

    def _build(self, cluster_id: int) -> HBSPNode:
        topo = self.topology
        cluster = topo.clusters[cluster_id]
        level = topo.cluster_level(cluster_id)
        node = HBSPNode(
            level=level,
            index=-1,
            name=cluster.name,
            machine=None,
            coordinator=topo.coordinator(cluster_id),
            members=topo.members(cluster_id),
            cluster_id=cluster_id,
        )
        self._levels[level].append(node)
        # Children appear in the cluster's declared order: machines
        # become level-0 nodes, sub-clusters recurse.
        child_cluster_ids = iter(topo.child_clusters(cluster_id))
        for child in cluster.children:
            if isinstance(child, MachineSpec):
                mid = topo.machine_id(child.name)
                leaf = HBSPNode(
                    level=level - 1,
                    index=-1,
                    name=child.name,
                    machine=mid,
                    coordinator=mid,
                    members=(mid,),
                    cluster_id=None,
                )
                if leaf.level != 0:  # pragma: no cover - normalized() guarantees this
                    raise ModelError(
                        f"machine {child.name!r} at level {leaf.level}; "
                        "topology was not normalised"
                    )
                self._levels[0].append(leaf)
                node.children.append(leaf)
            else:
                node.children.append(self._build(next(child_cluster_ids)))
        return node

    # -- queries ---------------------------------------------------------------
    @property
    def k(self) -> int:
        """The machine-class level: height of the tree."""
        return self.topology.height

    @property
    def num_processors(self) -> int:
        """Number of level-0 processors (``m_0``)."""
        return len(self._levels[0])

    def level_nodes(self, level: int) -> tuple[HBSPNode, ...]:
        """All nodes at ``level``, ordered by ``j`` (``M_{i,0}`` first)."""
        if not 0 <= level <= self.k:
            raise ModelError(f"level must be in [0, {self.k}], got {level}")
        return tuple(self._levels[level])

    def m(self, level: int) -> int:
        """The paper's ``m_i``: number of HBSP^i machines on ``level``."""
        return len(self.level_nodes(level))

    def node(self, level: int, index: int) -> HBSPNode:
        """The node ``M_{level,index}``."""
        nodes = self.level_nodes(level)
        if not 0 <= index < len(nodes):
            raise ModelError(
                f"M_{{{level},{index}}} does not exist (m_{level} = {len(nodes)})"
            )
        return nodes[index]

    def processor_node(self, machine: int) -> HBSPNode:
        """The level-0 node for global machine id ``machine``."""
        for node in self._levels[0]:
            if node.machine == machine:
                return node
        raise ModelError(f"no processor node for machine id {machine}")

    def parent(self, node: HBSPNode) -> HBSPNode | None:
        """The parent cluster of ``node`` (``None`` for the root)."""
        for level in range(node.level + 1, self.k + 1):
            for candidate in self._levels[level]:
                if node in candidate.children:
                    return candidate
        return None

    def walk(self) -> t.Iterator[HBSPNode]:
        """All nodes, root first, in DFS order."""

        def dfs(node: HBSPNode) -> t.Iterator[HBSPNode]:
            yield node
            for child in node.children:
                yield from dfs(child)

        return dfs(self.root)

    def machine_class(self, node: HBSPNode) -> int:
        """The smallest class HBSP^i containing this node's subtree.

        A node at level ``i`` is an HBSP^i machine; the containment
        chain HBSP^0 ⊂ HBSP^1 ⊂ ... ⊂ HBSP^k of Section 3.1 means it is
        also an HBSP^j machine for every ``j >= i``.
        """
        return node.level

    def contains_class(self, outer: int, inner: int) -> bool:
        """True iff HBSP^inner ⊆ HBSP^outer (i.e. ``inner <= outer``)."""
        if outer < 0 or inner < 0:
            raise ModelError("machine classes are non-negative")
        return inner <= outer

    def describe(self) -> str:
        """Multi-line rendering with ``M_{i,j}`` labels (cf. Figure 2)."""
        lines = [f"HBSP^{self.k} machine, {self.num_processors} processors"]

        def walk(node: HBSPNode, indent: int) -> None:
            pad = "  " * indent
            coord = self.topology.machines[node.coordinator].name
            lines.append(f"{pad}{node.label} {node.name} (coordinator: {coord})")
            for child in node.children:
                walk(child, indent + 1)

        walk(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"HBSPTree(k={self.k}, p={self.num_processors})"
