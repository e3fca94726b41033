"""Hierarchy inference: probe matrix -> HBSP^k tree.

The algorithm is the one of Estefanel & Mounié (*Identifying Logical
Homogeneous Clusters for Efficient Wide-Area Communications*): machines
whose pairwise communication costs are statistically indistinguishable
belong to the same logical cluster, and the nesting of clusters falls
out of agglomerative clustering of the distance matrix.

Two backends produce the level partitions, picked by matrix size:

``linkage`` (up to :data:`LINKAGE_LIMIT` machines)
    scipy average-linkage over the condensed distance matrix; the
    dendrogram merge heights are grouped into *bands* (the level-cut
    heuristic below) and the tree is cut once per band boundary.
``bands`` (above it)
    Cuts the distance values themselves into bands and computes the
    connected components at each inter-band threshold directly, one
    representative per discovered cluster.  O(k p^2) with numpy row
    operations — this is the path that takes a 10^4-leaf matrix.

**Level-cut heuristic.**  Sorted distance values are chained into a
band while each consecutive value is within ``rel_tol`` (relative)
of the previous one; a larger jump starts a new band.  Each band is
one hierarchy level, so levels whose costs are indistinguishable at
the given tolerance merge into one — exactly the "statistically
homogeneous" criterion of the source paper, and the reason
measurement noise does not hallucinate extra levels.

On a noiseless matrix synthesized from a tree topology the distances
are ultrametric and both backends recover the true partition at every
level exactly (enforced by ``tests/properties/test_prop_discover.py``).
"""

from __future__ import annotations

import dataclasses
import typing as t

import numpy as np

from repro.cluster.discover.matrix import ProbeMatrix
from repro.cluster.discover.reconstruct import reconstruct_topology
from repro.cluster.topology import ClusterTopology
from repro.errors import DiscoveryError

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.model.params import HBSPParams

__all__ = ["DiscoveryResult", "discover", "level_bands"]

#: Default relative tolerance of the level-cut heuristic: consecutive
#: sorted distances within 30% chain into the same band.  Hierarchy
#: levels differ by an order of magnitude or more (Section 1), so the
#: default separates real levels while absorbing realistic noise.
DEFAULT_REL_TOL = 0.3

#: Above this many machines, :func:`discover` switches from scipy
#: average linkage to the banded connected-components backend.
LINKAGE_LIMIT = 4096

#: Cap on recovered levels: if band detection finds more, only the
#: ``MAX_LEVELS - 1`` widest inter-band jumps become cuts (the rest
#: merge — noise never fragments the hierarchy unboundedly).
MAX_LEVELS = 12

#: Row-sample cap for band detection on huge matrices: every value of a
#: sampled row is considered, and every machine's row contains its own
#: cluster's distances at every level, so a stride sample of rows still
#: sees every band that spans a constant fraction of the machines.
BAND_SAMPLE_ROWS = 1024


@dataclasses.dataclass(frozen=True)
class DiscoveryResult:
    """The recovered hierarchy and everything needed to audit it.

    Attributes
    ----------
    matrix:
        The input probe matrix.
    partitions:
        One leaf-labelling per recovered level, innermost first, each a
        length-``p`` tuple of cluster labels in canonical (first-seen)
        order.  The last partition is always the trivial single
        cluster, so ``len(partitions)`` is the recovered ``k``.
    thresholds:
        The distance cut between consecutive bands (one fewer than the
        number of bands).
    bands:
        ``(lo, hi)`` distance range of each detected band, ascending.
    method:
        Backend that produced the partitions: ``linkage`` or ``bands``.
    topology:
        The reconstructed :class:`~repro.cluster.ClusterTopology`
        (estimated networks and machine NIC gaps, see
        :mod:`repro.cluster.discover.reconstruct`).
    params:
        ``calibrate(topology)`` — the recovered HBSP^k parameter tree,
        directly usable by the model, planner, and kernels.
    """

    matrix: ProbeMatrix
    partitions: tuple[tuple[int, ...], ...]
    thresholds: tuple[float, ...]
    bands: tuple[tuple[float, float], ...]
    method: str
    topology: ClusterTopology
    params: "HBSPParams"

    @property
    def k(self) -> int:
        """The recovered hierarchy height (number of levels)."""
        return len(self.partitions)

    def clusters_per_level(self) -> tuple[int, ...]:
        """Number of clusters at each recovered level, innermost first."""
        return tuple(len(set(labels)) for labels in self.partitions)

    def describe(self) -> str:
        """A multi-line audit summary of the discovery."""
        lines = [
            f"discovered HBSP^{self.k} hierarchy over p={self.matrix.p} "
            f"machines (method={self.method})",
            "bands (distance ranges, one per level):",
        ]
        for index, (lo, hi) in enumerate(self.bands):
            cut = (
                f"  cut at {self.thresholds[index]:.3g}"
                if index < len(self.thresholds) else ""
            )
            lines.append(f"  level {index + 1}: [{lo:.3g}, {hi:.3g}]{cut}")
        counts = self.clusters_per_level()
        lines.append(
            "clusters per level (innermost first): "
            + " -> ".join(str(c) for c in counts)
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"DiscoveryResult(k={self.k}, p={self.matrix.p}, "
            f"clusters={self.clusters_per_level()}, method={self.method!r})"
        )


def level_bands(
    values: np.ndarray,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
) -> list[tuple[float, float]]:
    """Group sorted distance values into indistinguishability bands.

    Chains sorted unique values: ``v`` extends the current band when
    ``v <= hi * (1 + rel_tol)`` (``hi`` = the band's current top);
    otherwise it starts a new band.  Returns ``(lo, hi)`` per
    band, ascending.
    """
    if rel_tol < 0:
        raise DiscoveryError("band tolerances must be >= 0")
    unique = np.unique(np.asarray(values, dtype=np.float64).ravel())
    if unique.size == 0:
        return []
    bands: list[tuple[float, float]] = []
    lo = hi = float(unique[0])
    for value in unique[1:]:
        value = float(value)
        if value <= hi * (1.0 + rel_tol):
            hi = value
        else:
            bands.append((lo, hi))
            lo = hi = value
    bands.append((lo, hi))
    return bands


def _band_thresholds(bands: t.Sequence[tuple[float, float]]) -> list[float]:
    """One cut between each pair of consecutive bands.

    The geometric midpoint keeps the cut order-of-magnitude-neutral;
    when the lower band touches zero the arithmetic midpoint is used.
    """
    thresholds = []
    for (_lo_a, hi_a), (lo_b, _hi_b) in zip(bands, bands[1:]):
        if hi_a > 0:
            thresholds.append(float(np.sqrt(hi_a * lo_b)))
        else:
            thresholds.append((hi_a + lo_b) / 2.0)
    return thresholds


def _canonical(labels: np.ndarray) -> tuple[int, ...]:
    """Relabel a partition in first-seen order (canonical form)."""
    mapping: dict[int, int] = {}
    out = []
    for label in labels.tolist():
        if label not in mapping:
            mapping[label] = len(mapping)
        out.append(mapping[label])
    return tuple(out)


def _sample_values(d: np.ndarray) -> np.ndarray:
    """Off-diagonal distance values used for band detection.

    All of them for small matrices; a deterministic stride sample of
    whole rows (see :data:`BAND_SAMPLE_ROWS`) for huge ones.
    """
    p = d.shape[0]
    if p <= 2048:
        return d[~np.eye(p, dtype=bool)]
    stride = max(1, p // BAND_SAMPLE_ROWS)
    rows = np.arange(0, p, stride)
    sample = d[rows]
    mask = np.ones_like(sample, dtype=bool)
    mask[np.arange(rows.size), rows] = False
    return sample[mask]


def _partitions_by_bands(
    d: np.ndarray, thresholds: t.Sequence[float]
) -> list[np.ndarray]:
    """Connected components at each threshold, via cluster representatives.

    Exploits the band structure: below a cut, every intra-cluster
    distance is reachable and every cross-cluster distance is not, so a
    cluster is exactly the set of columns within threshold of any one
    of its rows.  Each level then contracts to one representative per
    cluster, so coarser levels work on tiny submatrices.
    """
    p = d.shape[0]
    reps = np.arange(p)
    leaf_labels = np.arange(p)
    partitions: list[np.ndarray] = []
    for threshold in thresholds:
        sub = d[np.ix_(reps, reps)]
        m = reps.size
        new_id = np.full(m, -1, dtype=np.int64)
        next_label = 0
        for i in range(m):
            if new_id[i] >= 0:
                continue
            members = np.flatnonzero(sub[i] <= threshold)
            members = members[new_id[members] < 0]
            new_id[members] = next_label
            next_label += 1
        leaf_labels = new_id[leaf_labels]
        partitions.append(leaf_labels.copy())
        reps = np.array(
            [reps[np.flatnonzero(new_id == c)[0]] for c in range(next_label)]
        )
    return partitions


def _partitions_by_linkage(
    d: np.ndarray, thresholds: t.Sequence[float]
) -> list[np.ndarray]:
    """Average-linkage dendrogram cut once per band threshold (scipy)."""
    from scipy.cluster.hierarchy import fcluster, linkage
    from scipy.spatial.distance import squareform

    condensed = squareform(d.astype(np.float64, copy=False), checks=False)
    merges = linkage(condensed, method="average")
    return [
        fcluster(merges, threshold, criterion="distance")
        for threshold in thresholds
    ]


def discover(
    matrix: ProbeMatrix,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
) -> DiscoveryResult:
    """Recover an HBSP^k hierarchy from a pairwise probe matrix.

    Parameters
    ----------
    matrix:
        The measurements (see :class:`ProbeMatrix`).
    rel_tol:
        Level-cut tolerance (see :func:`level_bands`).

    The backend is linkage up to :data:`LINKAGE_LIMIT` machines and
    bands beyond; at most :data:`MAX_LEVELS` levels are recovered.

    Returns a :class:`DiscoveryResult` whose ``topology`` and
    ``params`` plug into everything that consumes a declared cluster
    (collectives, planner, kernels, experiments).
    """
    p = matrix.p
    d = matrix.dissimilarity()
    if p == 1:
        bands: list[tuple[float, float]] = []
        thresholds: list[float] = []
        partitions = [np.zeros(1, dtype=np.int64)]
        resolved = "bands"
    else:
        bands = level_bands(_sample_values(d), rel_tol=rel_tol)
        thresholds = _band_thresholds(bands)
        if len(thresholds) > MAX_LEVELS - 1:
            # Keep the widest jumps (largest hi->lo ratio) as the cuts.
            jumps = [
                (bands[i + 1][0] / bands[i][1] if bands[i][1] > 0 else np.inf, i)
                for i in range(len(thresholds))
            ]
            keep = sorted(
                index for _, index in sorted(jumps, reverse=True)[: MAX_LEVELS - 1]
            )
            thresholds = [thresholds[i] for i in keep]
        resolved = "linkage" if p <= LINKAGE_LIMIT else "bands"
        compute = (
            _partitions_by_linkage if resolved == "linkage" else _partitions_by_bands
        )
        partitions = compute(d, thresholds)
        partitions.append(np.zeros(p, dtype=np.int64))

    canonical: list[tuple[int, ...]] = []
    for labels in partitions:
        level = _canonical(np.asarray(labels))
        if canonical and level == canonical[-1]:
            continue
        canonical.append(level)
    if len(set(canonical[-1])) != 1:  # pragma: no cover - trivial top appended
        raise DiscoveryError("inference did not converge to a single root")

    topology = reconstruct_topology(matrix, canonical)
    from repro.model.params import calibrate

    return DiscoveryResult(
        matrix=matrix,
        partitions=tuple(canonical),
        thresholds=tuple(thresholds),
        bands=tuple(bands),
        method=resolved,
        topology=topology,
        params=calibrate(topology),
    )
