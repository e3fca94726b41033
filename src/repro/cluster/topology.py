"""Hierarchical cluster topologies.

A topology is the paper's tree ``T = (V, E)`` (Section 3.1): machines
are leaves, clusters are internal nodes, the height of the tree is
``k``.  The *level* of a node is ``k - depth``; machines live at level
0, the root cluster at level ``k``.

The topology answers the questions the runtime and the model both need:

* which network do two machines cross? (the network of their lowest
  common ancestor cluster),
* who coordinates a cluster? (its fastest machine, per Section 3.1),
* what are the members/fan-out of each cluster (``m_i``, ``m_{i,j}``)?
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.cluster.machine import MachineSpec
from repro.cluster.network import NetworkSpec
from repro.errors import RoutingError, TopologyError

__all__ = ["Cluster", "ClusterTopology"]

#: A zero-cost network used when normalising singleton clusters.
_SELF_NETWORK = NetworkSpec("self", gap=0.0, latency=0.0, sync_base=0.0, sync_per_member=0.0)


@dataclasses.dataclass(frozen=True)
class Cluster:
    """An internal tree node: a network joining machines and/or clusters.

    Parameters
    ----------
    name:
        Unique cluster label.
    network:
        The :class:`NetworkSpec` joining this cluster's children.
    children:
        Child nodes: :class:`MachineSpec` leaves or nested clusters.
    """

    name: str
    network: NetworkSpec
    children: tuple["Cluster | MachineSpec", ...]

    def __init__(
        self,
        name: str,
        network: NetworkSpec,
        children: t.Sequence["Cluster | MachineSpec"],
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "children", tuple(children))
        if not self.name:
            raise TopologyError("Cluster.name must be non-empty")
        if not isinstance(network, NetworkSpec):
            raise TopologyError(f"Cluster.network must be a NetworkSpec, got {network!r}")
        if not self.children:
            raise TopologyError(f"cluster {name!r} has no children")
        for child in self.children:
            if not isinstance(child, (Cluster, MachineSpec)):
                raise TopologyError(
                    f"cluster {name!r} has invalid child {child!r}; "
                    "children must be Cluster or MachineSpec"
                )

    @property
    def fan_out(self) -> int:
        """Number of direct children (the model's ``m_{i,j}``)."""
        return len(self.children)


class ClusterTopology:
    """An indexed, validated view over a cluster tree.

    Machines are numbered 0..p-1 in left-to-right (DFS) order; clusters
    are numbered in DFS pre-order with the root cluster first.  The
    tree is immutable, so ``topology_hash`` is one content identity
    that every cache may key on.
    """

    def __init__(self, root: Cluster | MachineSpec) -> None:
        if isinstance(root, MachineSpec):
            # A single processor is an HBSP^0 machine; wrap it so the
            # topology always has a root cluster.
            root = Cluster(f"{root.name}-host", _SELF_NETWORK, [root])
        if not isinstance(root, Cluster):
            raise TopologyError(f"topology root must be a Cluster, got {root!r}")
        self.root = root

        self.machines: list[MachineSpec] = []
        self.clusters: list[Cluster] = []
        self._machine_index: dict[str, int] = {}
        self._cluster_index: dict[str, int] = {}
        self._machine_ancestors: list[tuple[int, ...]] = []  # root-first cluster ids
        self._cluster_depth: list[int] = []
        self._cluster_members: list[list[int]] = []
        self._cluster_parent: list[int | None] = []
        self._cluster_children: list[list[int]] = []
        #: Memo of ``serialization.topology_hash(self)``; the topology
        #: is immutable, so it never goes stale.
        self._content_hash: str | None = None

        self._walk(root, parent_chain=(), depth=0)
        self._height = max(len(chain) for chain in self._machine_ancestors)
        if len(set(m.name for m in self.machines)) != len(self.machines):
            raise TopologyError("machine names must be unique")

    # -- construction ----------------------------------------------------------
    def _walk(self, node: Cluster, parent_chain: tuple[int, ...], depth: int) -> None:
        if node.name in self._cluster_index:
            raise TopologyError(f"duplicate cluster name {node.name!r}")
        cid = len(self.clusters)
        self.clusters.append(node)
        self._cluster_index[node.name] = cid
        self._cluster_depth.append(depth)
        self._cluster_members.append([])
        self._cluster_parent.append(parent_chain[-1] if parent_chain else None)
        self._cluster_children.append([])
        if parent_chain:
            self._cluster_children[parent_chain[-1]].append(cid)
        chain = parent_chain + (cid,)
        for child in node.children:
            if isinstance(child, MachineSpec):
                if child.name in self._machine_index:
                    raise TopologyError(f"duplicate machine name {child.name!r}")
                mid = len(self.machines)
                self.machines.append(child)
                self._machine_index[child.name] = mid
                self._machine_ancestors.append(chain)
                for ancestor in chain:
                    self._cluster_members[ancestor].append(mid)
            else:
                self._walk(child, chain, depth + 1)

    # -- basic queries -----------------------------------------------------------
    @property
    def num_machines(self) -> int:
        """Number of machines (the paper's ``p`` / ``m_0``)."""
        return len(self.machines)

    @property
    def height(self) -> int:
        """The paper's ``k``: number of network levels."""
        return self._height

    def machine_id(self, name: str) -> int:
        """Global index of the machine called ``name``."""
        try:
            return self._machine_index[name]
        except KeyError:
            raise TopologyError(f"no machine named {name!r}") from None

    def cluster_id(self, name: str) -> int:
        """Index of the cluster called ``name``."""
        try:
            return self._cluster_index[name]
        except KeyError:
            raise TopologyError(f"no cluster named {name!r}") from None

    def machine(self, index: int) -> MachineSpec:
        """The machine with global index ``index``."""
        return self.machines[index]

    def members(self, cluster: int | str) -> tuple[int, ...]:
        """Machine indices in the subtree of ``cluster``."""
        cid = cluster if isinstance(cluster, int) else self.cluster_id(cluster)
        return tuple(self._cluster_members[cid])

    def cluster_level(self, cluster: int | str) -> int:
        """The paper's level of a cluster node: ``k - depth``."""
        cid = cluster if isinstance(cluster, int) else self.cluster_id(cluster)
        return self._height - self._cluster_depth[cid]

    def child_clusters(self, cluster: int | str) -> tuple[int, ...]:
        """Ids of the direct child clusters of ``cluster``."""
        cid = cluster if isinstance(cluster, int) else self.cluster_id(cluster)
        return tuple(self._cluster_children[cid])

    def machine_cluster(self, machine: int) -> int:
        """Id of the innermost cluster containing ``machine``."""
        return self._machine_ancestors[machine][-1]

    def ancestors(self, machine: int) -> tuple[int, ...]:
        """Cluster ids from the root down to the machine's own cluster."""
        return self._machine_ancestors[machine]

    # -- speed queries -------------------------------------------------------------
    def _speed_key(self, mid: int) -> tuple[float, float, str]:
        spec = self.machines[mid]
        # Faster CPU first; break ties by faster NIC, then by name for
        # full determinism.
        return (-spec.cpu_rate, spec.nic_gap, spec.name)

    def fastest(self, cluster: int | str | None = None) -> int:
        """Index of the fastest machine (of a cluster, or globally).

        This is the coordinator-selection rule of Section 3.1: the
        coordinator of a subtree is its fastest machine; the root
        coordinator is the fastest machine of the entire system.
        """
        candidates = (
            range(self.num_machines) if cluster is None else self.members(cluster)
        )
        return min(candidates, key=self._speed_key)

    def slowest(self, cluster: int | str | None = None) -> int:
        """Index of the slowest machine (of a cluster, or globally)."""
        candidates = (
            range(self.num_machines) if cluster is None else self.members(cluster)
        )
        return max(candidates, key=self._speed_key)

    def coordinator(self, cluster: int | str) -> int:
        """Coordinator machine of ``cluster`` — its fastest member."""
        return self.fastest(cluster)

    def speed_ranking(self) -> list[int]:
        """Machine indices sorted fastest-first (BYTEmark-style ranking)."""
        return sorted(range(self.num_machines), key=self._speed_key)

    def min_nic_gap(self) -> float:
        """NIC gap of the machine with the fastest network injection.

        This is the model's ``g`` (Section 3.3): the rate at which the
        fastest machine can inject packets into the network.
        """
        return min(m.nic_gap for m in self.machines)

    # -- routing -------------------------------------------------------------------
    def lca_cluster(self, a: int, b: int) -> int:
        """Id of the lowest common ancestor cluster of two machines."""
        if not (0 <= a < self.num_machines and 0 <= b < self.num_machines):
            raise RoutingError(f"machine index out of range: {a}, {b}")
        chain_a, chain_b = self._machine_ancestors[a], self._machine_ancestors[b]
        lca = None
        for ca, cb in zip(chain_a, chain_b):
            if ca == cb:
                lca = ca
            else:
                break
        if lca is None:  # pragma: no cover - single root guarantees an LCA
            raise RoutingError(f"no common ancestor for machines {a} and {b}")
        return lca

    def route(self, a: int, b: int) -> tuple[NetworkSpec, int]:
        """The network (and its level) crossed by a message ``a -> b``.

        Per the hierarchical model, a message between machines in
        different subtrees traverses the network of their lowest common
        ancestor cluster.  Returns ``(network, level)``.
        """
        lca = self.lca_cluster(a, b)
        return self.clusters[lca].network, self.cluster_level(lca)

    # -- transformations --------------------------------------------------------------
    def normalized(self) -> "ClusterTopology":
        """Return a topology where every machine sits at depth ``k``.

        Machines attached above the deepest level (like the lone SGI
        workstation in Figure 1, which is both an HBSP^1 machine and a
        level-0 processor) are wrapped in chains of singleton clusters
        with a zero-cost "self" network, so that every leaf is a level-0
        machine.  Model calibration uses this canonical form.
        """

        def rebuild(node: Cluster | MachineSpec, depth: int) -> Cluster | MachineSpec:
            if isinstance(node, MachineSpec):
                wrapped: Cluster | MachineSpec = node
                for i in range(self._height - depth):
                    wrapped = Cluster(
                        f"{node.name}-self{i}" if i else f"{node.name}-self",
                        _SELF_NETWORK,
                        [wrapped],
                    )
                return wrapped
            return Cluster(
                node.name,
                node.network,
                [rebuild(child, depth + 1) for child in node.children],
            )

        return ClusterTopology(t.cast(Cluster, rebuild(self.root, 0)))

    def describe(self) -> str:
        """A human-readable multi-line summary of the tree."""
        lines = [f"ClusterTopology: k={self.height}, p={self.num_machines}"]

        def walk(node: Cluster, indent: int) -> None:
            pad = "  " * indent
            lines.append(
                f"{pad}[{node.name}] net={node.network.name} "
                f"(gap={node.network.gap:g}, lat={node.network.latency:g})"
            )
            for child in node.children:
                if isinstance(child, MachineSpec):
                    lines.append(
                        f"{pad}  {child.name}: cpu={child.cpu_rate:g}, "
                        f"nic_gap={child.nic_gap:g}"
                    )
                else:
                    walk(child, indent + 1)

        walk(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ClusterTopology(k={self.height}, p={self.num_machines}, "
            f"clusters={len(self.clusters)})"
        )
