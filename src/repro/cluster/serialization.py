"""Save and load cluster topologies as plain dictionaries / JSON.

A calibrated machine description is an asset worth versioning (the
paper's experiments are only meaningful relative to a fixed testbed).
This module round-trips :class:`~repro.cluster.ClusterTopology` through
JSON-compatible dictionaries, preserving machine/network parameters
(including the per-machine speed vector — every :class:`MachineSpec`
field is kept).  Between two machines the tree alone sets the cost, so
a document carrying per-pair multipliers (a field earlier writers
emitted, always empty) is refused unless the list is empty.

Schema ``repro.cluster/2`` additionally carries an optional calibrated
:class:`~repro.model.HBSPParams` tree (``dumps(topology, params=...)``
/ :func:`loads_with_params`), so a discovered machine
(:mod:`repro.cluster.discover`) serialises losslessly: structure,
specs, *and* the per-level model parameters derived from them.
Version-1 documents load unchanged.
"""

from __future__ import annotations

import hashlib
import json
import typing as t

from repro.cluster.machine import MachineSpec
from repro.cluster.network import NetworkSpec
from repro.cluster.topology import Cluster, ClusterTopology
from repro.errors import TopologyError
from repro.util.codec import decode, encode, parse_json, typed_errors

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.model.params import HBSPParams

__all__ = [
    "topology_to_dict",
    "topology_from_dict",
    "topology_hash",
    "params_to_dict",
    "params_from_dict",
    "dumps",
    "loads",
    "loads_with_params",
]

_SCHEMA_V1 = "repro.cluster/1"
_SCHEMA = "repro.cluster/2"
_KNOWN_SCHEMAS = (_SCHEMA_V1, _SCHEMA)


def _check_schema(data: t.Mapping[str, t.Any]) -> None:
    if data.get("schema") not in _KNOWN_SCHEMAS:
        raise TopologyError(
            f"unsupported schema {data.get('schema')!r} "
            f"(expected one of {_KNOWN_SCHEMAS!r})"
        )
    if data.get("pair_multipliers"):
        raise TopologyError(
            "pair_multipliers: per-pair costs are not supported (a message pays "
            "its machines' lowest common ancestor network); only [] loads"
        )


def _node_to_dict(node: Cluster | MachineSpec) -> dict:
    if isinstance(node, MachineSpec):
        return {"kind": "machine", **encode(node)}
    return {
        "kind": "cluster",
        "name": node.name,
        "network": encode(node.network),
        "children": [_node_to_dict(child) for child in node.children],
    }


def topology_to_dict(
    topology: ClusterTopology, *, params: "HBSPParams | None" = None
) -> dict:
    """Serialise a topology (structure and specs).

    Pass ``params`` (a calibrated :class:`~repro.model.HBSPParams`) to
    embed the per-level model parameters alongside the structure.
    """
    data = {
        "schema": _SCHEMA,
        "root": _node_to_dict(topology.root),
    }
    if params is not None:
        data["params"] = params_to_dict(params)
    return data


def params_to_dict(params: "HBSPParams") -> dict:
    """Serialise an :class:`~repro.model.HBSPParams` tree.

    The ``(i, j)`` node keys become ``"i,j"`` strings (JSON objects
    cannot key on tuples).
    """

    def keyed(mapping: t.Mapping[tuple[int, int], t.Any]) -> dict[str, t.Any]:
        return {f"{i},{j}": value for (i, j), value in sorted(mapping.items())}

    return {
        "k": params.k,
        "g": params.g,
        "m": list(params.m),
        "r": keyed(params.r),
        "L": keyed(params.L),
        "c": keyed(params.c),
        "fan_out": keyed(params.fan_out),
    }


def params_from_dict(data: dict) -> "HBSPParams":
    """Rebuild an :class:`~repro.model.HBSPParams` from :func:`params_to_dict`."""
    from repro.model.params import HBSPParams

    def unkeyed(mapping: dict[str, t.Any], cast: type) -> dict[tuple[int, int], t.Any]:
        out = {}
        for key, value in mapping.items():
            i, _, j = key.partition(",")
            out[(int(i), int(j))] = cast(value)
        return out

    with typed_errors(TopologyError, "params"):
        return HBSPParams(
            k=int(data["k"]),
            g=float(data["g"]),
            m=tuple(int(v) for v in data["m"]),
            r=unkeyed(data["r"], float),
            L=unkeyed(data["L"], float),
            c=unkeyed(data["c"], float),
            fan_out=unkeyed(data["fan_out"], int),
        )


def _node_from_dict(data: dict, where: str) -> Cluster | MachineSpec:
    kind = data.get("kind")
    if kind == "machine":
        fields = {k: v for k, v in data.items() if k != "kind"}
        return decode(MachineSpec, fields, error=TopologyError, where=where)
    if kind == "cluster":
        return Cluster(
            data["name"],
            decode(
                NetworkSpec, data["network"], error=TopologyError, where=f"{where}.network"
            ),
            [
                _node_from_dict(child, f"{where}.children[{i}]")
                for i, child in enumerate(data["children"])
            ],
        )
    raise TopologyError(f"{where}: unknown node kind {kind!r}")


def topology_from_dict(data: dict) -> ClusterTopology:
    """Rebuild a topology serialised by :func:`topology_to_dict`.

    Accepts both schema versions; an embedded ``params`` block is
    ignored here — use :func:`loads_with_params` to recover it.
    """
    with typed_errors(TopologyError, "topology document"):
        _check_schema(data)
        return ClusterTopology(_node_from_dict(data["root"], "root"))


def topology_hash(
    source: "ClusterTopology | t.Mapping[str, t.Any] | str",
    *,
    params: "HBSPParams | None" = None,
) -> str:
    """Canonical sha256 hash of a topology description.

    The hash keys the auto-tuner's persistent decision cache, so it
    must be *stable* where the content is equal and *discriminating*
    where it is not:

    * JSON dict/key ordering never matters (canonical ``sort_keys``
      serialisation with fixed separators);
    * the ``schema`` marker is excluded, so a v1 document and its v2
      re-serialisation hash identically (an empty ``pair_multipliers``
      list, which earlier writers emitted, is dropped, absent
      ``params`` omitted);
    * embedded calibrated params *do* contribute — the same structure
      calibrated differently tunes differently, so it must hash
      differently.

    Accepts a live :class:`~repro.cluster.ClusterTopology` (optionally
    with ``params`` to embed), an already-serialised dictionary, or a
    JSON string.  The ``params``-less hash of a live topology is
    memoised on the instance (the tuner's warm lookup is otherwise all
    hashing); the topology is immutable, so the memo never goes stale.
    """
    memo = isinstance(source, ClusterTopology) and params is None
    if memo and source._content_hash is not None:
        return source._content_hash
    if isinstance(source, ClusterTopology):
        data: dict = topology_to_dict(source, params=params)
    elif isinstance(source, str):
        data = json.loads(source)
    else:
        if params is not None:
            raise TopologyError(
                "params can only be supplied with a ClusterTopology source"
            )
        data = dict(source)
    _check_schema(data)
    canonical = {
        key: value for key, value in data.items()
        if key not in ("schema", "pair_multipliers")
    }
    if canonical.get("params") is None:
        canonical.pop("params", None)
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    if memo:
        source._content_hash = digest
    return digest


def dumps(
    topology: ClusterTopology,
    *,
    params: "HBSPParams | None" = None,
    indent: int | None = 2,
) -> str:
    """Serialise a topology (and optionally its params) to JSON."""
    return json.dumps(
        topology_to_dict(topology, params=params), indent=indent, sort_keys=True
    )


def loads(text: str) -> ClusterTopology:
    """Rebuild a topology from :func:`dumps` output."""
    return topology_from_dict(parse_json(text, error=TopologyError, what="topology document"))


def loads_with_params(text: str) -> "tuple[ClusterTopology, HBSPParams | None]":
    """Rebuild a topology and its embedded params (``None`` if absent)."""
    data = parse_json(text, error=TopologyError, what="topology document")
    topology = topology_from_dict(data)
    params = params_from_dict(data["params"]) if "params" in data else None
    return topology, params
