"""Picklable simulation jobs for the parallel sweep executor.

The experiment harness decomposes a sweep (e.g. Fig. 3(a)'s grid of
problem sizes x processor counts x root policies) into independent
:class:`SimJob` values.  A job is a *pure description* of one
simulation — the operation name, the topology, the problem size and
the keyword configuration — so it can be

* pickled to a worker process (every component is plain data),
* content-hashed for the result cache (identical configurations are
  simulated once per executor, and once per worker process), and
* replayed deterministically (the simulator is a pure function of the
  job; see :mod:`repro.perf.executor` for the bit-identity guarantee).

Results come back as compact :class:`~repro.obs.accounting.RunObs`
records rather than the full :class:`~repro.collectives.CollectiveOutcome`
— outcomes drag the whole runtime (virtual machine, processes, barriers)
along and are deliberately not picklable across the pool boundary.  The
record carries what the experiments read (makespan, prediction,
superstep count) and what metrics and ledgers are rebuilt from, so it
is also what the memo, the pool and the disk cache hold.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import struct
import typing as t
from collections import abc

import numpy as np

from repro.cluster.serialization import topology_hash
from repro.cluster.topology import ClusterTopology
from repro.errors import ReproError
from repro.obs.accounting import RunObs, collect_run_obs

__all__ = [
    "COLLECTIVE_OPS",
    "APP_OPS",
    "SimJob",
    "content_tokens",
]

#: Collective operation names accepted by :meth:`SimJob.collective`.
COLLECTIVE_OPS: tuple[str, ...] = (
    "gather",
    "broadcast",
    "scatter",
    "reduce",
    "allgather",
    "alltoall",
    "allreduce",
    "scan",
)

#: Application names accepted by :meth:`SimJob.app`.
APP_OPS: tuple[str, ...] = ("sample_sort", "matvec", "histogram", "jacobi")

#: op name -> runner, resolved lazily (the collectives/apps packages
#: import numpy-heavy modules; workers only pay for what they run).
_RUNNERS: dict[str, t.Callable[..., t.Any]] | None = None


def _resolve_runner(op: str) -> t.Callable[..., t.Any]:
    global _RUNNERS
    if _RUNNERS is None:
        from repro import apps, collectives

        _RUNNERS = {
            **{name: getattr(collectives, f"run_{name}") for name in COLLECTIVE_OPS},
            **{name: getattr(apps, f"run_{name}") for name in APP_OPS},
        }
    try:
        return _RUNNERS[op]
    except KeyError:
        known = ", ".join(sorted(_RUNNERS))
        raise ReproError(f"unknown simulation op {op!r}; known: {known}") from None


# -- content hashing ----------------------------------------------------------
@functools.cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    """A dataclass type's field names (``None`` for any other type), once per type."""
    return tuple(f.name for f in dataclasses.fields(cls)) if dataclasses.is_dataclass(cls) else None


def content_tokens(value: t.Any, out: list[bytes]) -> None:
    """Append a canonical byte encoding of ``value`` to ``out``.

    The encoding is type-tagged and recursion-structured, so distinct
    values never collide by concatenation, and it is independent of
    ``PYTHONHASHSEED``, dict insertion order and process identity —
    the properties a cross-process result cache needs.  Unsupported
    types raise rather than hash ambiguously.
    """
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, enum.Enum):
        out.append(f"E{type(value).__qualname__}:{value.name};".encode())
    elif isinstance(value, int):
        out.append(b"i%d;" % value)
    elif isinstance(value, float):
        out.append(b"f" + struct.pack("<d", value))
    elif isinstance(value, str):
        raw = value.encode()
        out.append(b"s%d:" % len(raw) + raw)
    elif isinstance(value, bytes):
        out.append(b"b%d:" % len(value) + value)
    elif isinstance(value, np.ndarray):
        out.append(f"a{value.dtype.str}{value.shape};".encode())
        out.append(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, np.generic):
        content_tokens(value.item(), out)
    elif isinstance(value, ClusterTopology):
        # The topology's one content identity, memoised on the
        # (immutable) instance: a sweep hashes ~5 jobs per topology.
        out.append(b"Y" + topology_hash(value).encode())
    elif (names := _field_names(type(value))) is not None:
        out.append(f"D{type(value).__qualname__}(".encode())
        for name in names:
            out.append(name.encode() + b"=")
            content_tokens(getattr(value, name), out)
        out.append(b")")
    elif isinstance(value, abc.Mapping):
        # Keys sort by their own canonical encoding, so mixed key types
        # and insertion order cannot change the hash.
        encoded = []
        for key, item in value.items():
            key_out: list[bytes] = []
            content_tokens(key, key_out)
            item_out: list[bytes] = []
            content_tokens(item, item_out)
            encoded.append((b"".join(key_out), b"".join(item_out)))
        out.append(b"m%d(" % len(encoded))
        for key_bytes, item_bytes in sorted(encoded):
            out.append(key_bytes + b">" + item_bytes)
        out.append(b")")
    elif isinstance(value, (frozenset, set)):
        encoded_items = []
        for item in value:
            item_out = []
            content_tokens(item, item_out)
            encoded_items.append(b"".join(item_out))
        out.append(b"S%d(" % len(encoded_items) + b"".join(sorted(encoded_items)) + b")")
    elif isinstance(value, (list, tuple)):
        out.append(b"l%d(" % len(value))
        for item in value:
            content_tokens(item, out)
        out.append(b")")
    else:
        raise ReproError(
            f"cannot content-hash {type(value).__qualname__} value {value!r}; "
            "job parameters must be plain data (numbers, strings, enums, "
            "arrays, dataclasses, mappings, sequences)"
        )


@dataclasses.dataclass(frozen=True, eq=False)
class SimJob:
    """One independent simulation: ``run_<op>(topology, n, **kwargs)``.

    Build with :meth:`collective` / :meth:`app`, which validate the op
    name and canonicalise the keyword order so that equal
    configurations hash equally however they were spelled.
    """

    op: str
    topology: ClusterTopology
    n: int
    kwargs: tuple[tuple[str, t.Any], ...]

    @classmethod
    def collective(
        cls, op: str, topology: ClusterTopology, n: int, **kwargs: t.Any
    ) -> "SimJob":
        """A collective job (gather/broadcast/.../scan)."""
        if op not in COLLECTIVE_OPS:
            raise ReproError(
                f"unknown collective {op!r}; known: {', '.join(COLLECTIVE_OPS)}"
            )
        return cls(op, topology, int(n), tuple(sorted(kwargs.items())))

    @classmethod
    def app(cls, op: str, topology: ClusterTopology, n: int, **kwargs: t.Any) -> "SimJob":
        """An application job (sample_sort/matvec/histogram/jacobi)."""
        if op not in APP_OPS:
            raise ReproError(f"unknown app {op!r}; known: {', '.join(APP_OPS)}")
        return cls(op, topology, int(n), tuple(sorted(kwargs.items())))

    @functools.cached_property
    def content_hash(self) -> str:
        """SHA-256 over the canonical encoding of the configuration."""
        out: list[bytes] = [self.op.encode(), b"|n=%d|" % self.n]
        content_tokens(self.topology, out)
        content_tokens(self.kwargs, out)
        return hashlib.sha256(b"".join(out)).hexdigest()

    def run(self) -> RunObs:
        """Execute the simulation and distil the picklable record."""
        runner = _resolve_runner(self.op)
        return collect_run_obs(runner(self.topology, self.n, **dict(self.kwargs)))

    def __repr__(self) -> str:
        parts = ", ".join(f"{key}={value!r}" for key, value in self.kwargs)
        return f"SimJob({self.op}, p={self.topology.num_machines}, n={self.n}, {parts})"
