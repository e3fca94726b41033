"""Pairwise probe matrices: the measurement input to hierarchy inference.

A :class:`ProbeMatrix` is what a network-probing campaign produces: for
every ordered machine pair, a per-message **latency** (seconds) and a
per-byte **gap** (seconds/byte, the inverse of bandwidth).  This is the
data representation of Estefanel & Mounié's *Identifying Logical
Homogeneous Clusters for Efficient Wide-Area Communications*: the
hierarchy is not declared, it is *recovered* from these measurements
(:func:`repro.cluster.discover.discover`).

Three ways to obtain one:

* :func:`synthesize` — the analytic matrix of a known
  :class:`~repro.cluster.ClusterTopology` (optionally with seeded
  multiplicative noise), used by the round-trip validation experiments;
* :func:`repro.model.probe.probe_matrix` — measured by running an
  all-pairs ping program on the simulated machine in a single run;
* :meth:`ProbeMatrix.load` — from a ``.json`` or ``.npz`` file.
"""

from __future__ import annotations

import dataclasses
import json
import typing as t
from pathlib import Path

import numpy as np

from repro.cluster.machine import MachineSpec
from repro.cluster.topology import Cluster, ClusterTopology
from repro.errors import DiscoveryError
from repro.util.codec import read_json, typed_errors
from repro.util.rng import derive_seed

__all__ = ["ProbeMatrix", "synthesize"]

_SCHEMA = "repro.probe-matrix/1"


@dataclasses.dataclass(frozen=True)
class ProbeMatrix:
    """Dense all-pairs link measurements over ``p`` machines.

    Attributes
    ----------
    names:
        Machine names, indexing rows/columns.
    latency:
        ``(p, p)`` array of per-message latencies in seconds
        (``latency[i, j]`` = fixed cost of one ``i -> j`` message);
        the diagonal is zero.
    gap:
        Optional ``(p, p)`` array of per-byte gaps in seconds/byte
        (``None`` for latency-only campaigns — inference works on
        latency alone, but machine NIC speeds cannot be estimated).
    speeds:
        Optional per-machine compute-speed estimates (BYTEmark-style
        scores / ``cpu_rate`` values) carried alongside the link data
        so a reconstructed topology keeps its speed vector.
    """

    names: tuple[str, ...]
    latency: np.ndarray
    gap: np.ndarray | None = None
    speeds: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        latency = np.asarray(self.latency)
        object.__setattr__(self, "latency", latency)
        p = len(self.names)
        if p == 0:
            raise DiscoveryError("ProbeMatrix needs at least one machine")
        if len(set(self.names)) != p:
            raise DiscoveryError("ProbeMatrix machine names must be unique")
        if latency.shape != (p, p):
            raise DiscoveryError(
                f"latency must be ({p}, {p}) for {p} machines, got {latency.shape}"
            )
        if np.any(latency < 0):
            raise DiscoveryError("latencies must be non-negative")
        if self.gap is not None:
            gap = np.asarray(self.gap)
            object.__setattr__(self, "gap", gap)
            if gap.shape != (p, p):
                raise DiscoveryError(
                    f"gap must be ({p}, {p}) for {p} machines, got {gap.shape}"
                )
            if np.any(gap < 0):
                raise DiscoveryError("gaps must be non-negative")
        if self.speeds is not None:
            object.__setattr__(self, "speeds", tuple(float(s) for s in self.speeds))
            if len(self.speeds) != p:
                raise DiscoveryError(
                    f"speeds must have {p} entries, got {len(self.speeds)}"
                )

    @property
    def p(self) -> int:
        """Number of machines."""
        return len(self.names)

    def dissimilarity(self) -> np.ndarray:
        """The symmetric distance matrix inference clusters on.

        ``d_{ij} = latency_{ij}`` symmetrized as the mean of both
        directions, diagonal forced to zero.  Latency alone is the
        quantity that separates hierarchy levels by an order of
        magnitude (Section 1); the gap matrix still informs the
        reconstructed per-machine NIC speeds.
        """
        d = self.latency
        d = (d + d.T) * d.dtype.type(0.5)
        np.fill_diagonal(d, 0.0)
        return d

    def with_noise(self, sigma: float, *, seed: int = 0) -> "ProbeMatrix":
        """A copy with symmetric multiplicative lognormal noise applied.

        Every off-diagonal entry is scaled by ``exp(sigma * z)`` with
        ``z`` standard normal (median factor 1.0); the factor for
        ``(i, j)`` equals the one for ``(j, i)``, as a real ping-pong
        probe would see.  ``sigma = 0`` returns ``self`` unchanged.
        Deterministic in ``seed``.
        """
        if sigma < 0:
            raise DiscoveryError(f"noise sigma must be >= 0, got {sigma!r}")
        if sigma == 0:
            return self
        out: dict[str, np.ndarray] = {}
        for label, matrix in (("latency", self.latency), ("gap", self.gap)):
            if matrix is None:
                continue
            rng = np.random.default_rng(derive_seed(seed, "probe-noise", label))
            z = rng.standard_normal(matrix.shape)
            z = np.triu(z, 1)
            z = z + z.T
            out[label] = (matrix * np.exp(sigma * z)).astype(matrix.dtype)
        return dataclasses.replace(
            self, latency=out["latency"], gap=out.get("gap")
        )

    # -- persistence -------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-compatible dictionary (lists of floats)."""
        data: dict[str, t.Any] = {
            "schema": _SCHEMA,
            "names": list(self.names),
            "latency": [[float(v) for v in row] for row in self.latency],
        }
        if self.gap is not None:
            data["gap"] = [[float(v) for v in row] for row in self.gap]
        if self.speeds is not None:
            data["speeds"] = list(self.speeds)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ProbeMatrix":
        """Rebuild a matrix serialised by :meth:`to_dict`."""
        with typed_errors(DiscoveryError, "probe matrix"):
            if data.get("schema") != _SCHEMA:
                raise DiscoveryError(
                    f"unsupported probe-matrix schema {data.get('schema')!r} "
                    f"(expected {_SCHEMA!r})"
                )
            return cls(
                names=tuple(data["names"]),
                latency=np.asarray(data["latency"], dtype=np.float64),
                gap=(
                    np.asarray(data["gap"], dtype=np.float64)
                    if "gap" in data else None
                ),
                speeds=tuple(data["speeds"]) if "speeds" in data else None,
            )

    def save(self, path: str | Path) -> None:
        """Write the matrix to ``path`` (``.npz`` binary or ``.json``)."""
        path = Path(path)
        if path.suffix == ".npz":
            arrays: dict[str, np.ndarray] = {
                "names": np.asarray(self.names),
                "latency": self.latency,
            }
            if self.gap is not None:
                arrays["gap"] = self.gap
            if self.speeds is not None:
                arrays["speeds"] = np.asarray(self.speeds, dtype=np.float64)
            with path.open("wb") as handle:
                np.savez_compressed(handle, **arrays)
        else:
            path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ProbeMatrix":
        """Read a matrix written by :meth:`save` (``.npz`` or ``.json``)."""
        path = Path(path)
        if path.suffix == ".npz":
            with np.load(path, allow_pickle=False) as data:
                return cls(
                    names=tuple(str(n) for n in data["names"]),
                    latency=data["latency"],
                    gap=data["gap"] if "gap" in data else None,
                    speeds=(
                        tuple(float(s) for s in data["speeds"])
                        if "speeds" in data else None
                    ),
                )
        return cls.from_dict(read_json(path, error=DiscoveryError, what="probe matrix"))

    def __repr__(self) -> str:
        kind = "latency+gap" if self.gap is not None else "latency-only"
        return f"ProbeMatrix(p={self.p}, {kind}, dtype={self.latency.dtype})"


def synthesize(
    topology: ClusterTopology,
    *,
    noise: float = 0.0,
    seed: int = 0,
    dtype: t.Any = np.float64,
    include_gap: bool = True,
) -> ProbeMatrix:
    """The analytic probe matrix of a known topology.

    For machines ``i != j`` whose lowest common ancestor cluster uses
    network ``net``:

    * ``latency[i, j] = net.latency`` (the wire's one-way message cost);
    * ``gap[i, j] = net.effective_gap(nic_i) + net.effective_gap(nic_j)``
      (inject + drain, each capped below by the wire's own gap) —
      matching what a two-size ping fit measures on the simulator up
      to CPU pack/unpack costs.

    ``speeds`` carries each machine's true ``cpu_rate``.  Pass
    ``noise > 0`` for seeded multiplicative measurement noise and
    ``dtype=numpy.float32`` to halve memory on 10^4-leaf matrices; set
    ``include_gap=False`` for a latency-only matrix (half the memory
    again — inference does not need the gap).

    The fill is blockwise over the tree (machine ids are contiguous per
    subtree), so a 10^4-leaf matrix synthesizes in seconds.
    """
    p = topology.num_machines
    nic = np.array([m.nic_gap for m in topology.machines], dtype=dtype)
    latency = np.zeros((p, p), dtype=dtype)
    gap = np.zeros((p, p), dtype=dtype) if include_gap else None
    counter = 0

    def walk(node: Cluster | MachineSpec) -> tuple[int, int]:
        nonlocal counter
        if isinstance(node, MachineSpec):
            counter += 1
            return counter - 1, counter
        ranges = [walk(child) for child in node.children]
        net = node.network
        lat = net.latency
        for a in range(len(ranges)):
            a0, a1 = ranges[a]
            for b in range(a + 1, len(ranges)):
                b0, b1 = ranges[b]
                latency[a0:a1, b0:b1] = lat
                latency[b0:b1, a0:a1] = lat
                if gap is not None:
                    eff_a = np.maximum(net.gap, nic[a0:a1])
                    eff_b = np.maximum(net.gap, nic[b0:b1])
                    block = eff_a[:, None] + eff_b[None, :]
                    gap[a0:a1, b0:b1] = block
                    gap[b0:b1, a0:a1] = block.T
        return ranges[0][0], ranges[-1][1]

    walk(topology.root)
    matrix = ProbeMatrix(
        names=tuple(m.name for m in topology.machines),
        latency=latency,
        gap=gap,
        speeds=tuple(m.cpu_rate for m in topology.machines),
    )
    if noise:
        matrix = matrix.with_noise(noise, seed=seed)
    return matrix
