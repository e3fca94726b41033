"""Shared plumbing for the collective operations."""

from __future__ import annotations

import collections
import dataclasses
import typing as t

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.hbsplib.runtime import HbspResult, HbspRuntime
from repro.model.cost import CostLedger
from repro.util.rng import RngStream

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan

__all__ = [
    "CollectiveOutcome",
    "ItemsCacheInfo",
    "concat_payloads",
    "count_and_checksum",
    "items_cache_info",
    "make_items",
    "make_runtime",
]


@dataclasses.dataclass
class CollectiveOutcome:
    """Result of running one collective or application on the simulated
    machine (``repro.apps.AppOutcome`` is this class).

    Attributes
    ----------
    name:
        Program name + configuration summary.
    time:
        Simulated makespan (virtual seconds) — the experiment metric.
    supersteps:
        Synchronisations performed (max over processes).
    values:
        Per-pid program return values (program-specific; usually
        verification data such as item counts/checksums).
    result:
        The raw :class:`~repro.hbsplib.HbspResult`.
    runtime:
        The runtime the program executed on (holds params, tree and
        the virtual machine).
    predicted:
        The closed-form cost ledger for the same configuration
        (``None`` for an application that provides none).
    """

    name: str
    time: float
    supersteps: int
    values: dict[int, t.Any]
    result: HbspResult
    runtime: HbspRuntime
    predicted: CostLedger | None = None

    @classmethod
    def of(
        cls, name: str, runtime: HbspRuntime, result: HbspResult,
        predicted: CostLedger | None = None,
    ) -> "CollectiveOutcome":
        """The outcome of ``result``, what ``runtime.run`` returned."""
        if runtime.obs_tracer is not None:  # name the run's Chrome process
            runtime.obs_tracer.group_labels[runtime.obs_group] = name
        return cls(
            name, result.time, result.supersteps, result.values, result, runtime, predicted
        )

    @property
    def predicted_time(self) -> float | None:
        """Total of the analytic cost ledger (``None`` if not predicted)."""
        return self.predicted.total if self.predicted is not None else None

    def __repr__(self) -> str:
        predicted = (
            "" if self.predicted is None else f"predicted={self.predicted.total:.6g}, "
        )
        return (
            f"CollectiveOutcome({self.name!r}, time={self.time:.6g}, "
            f"{predicted}supersteps={self.supersteps})"
        )


def make_runtime(
    topology: ClusterTopology,
    *,
    scores: t.Mapping[str, float] | None = None,
    serialize_nic: bool = True,
    faults: "FaultPlan | None" = None,
    fault_seed: int | None = None,
    seed: int = 0,
    delivery: t.Any | None = None,
    macro: bool | None = None,
) -> HbspRuntime:
    """A fresh runtime for one measured collective run.

    With ``faults`` a fresh :class:`~repro.faults.Injector` is built
    (even for an empty plan, which is guaranteed bit-identical to no
    plan at all), seeded with ``fault_seed`` — the run's ``seed`` when
    omitted; ``delivery`` sets the default send policy;
    ``serialize_nic=False`` is the ablation that gives NIC ports
    unlimited parallel channels.  ``macro`` selects the macro-event
    fast path (``None`` auto-engages it on fault-free untraced runs;
    note an *empty* fault plan still builds an injector and therefore
    falls back to the object path).
    """
    injector = None
    if faults is not None:
        from repro.faults.injector import Injector

        injector = Injector(faults, seed=seed if fault_seed is None else fault_seed)
    return HbspRuntime(
        topology, scores=scores, serialize_nic=serialize_nic,
        injector=injector, delivery=delivery, macro=macro,
    )


#: Bytes of item arrays the process keeps resident (all streams together).
ITEMS_BUDGET_BYTES = 64 * 2**20

#: Charged per resident stream on top of its array bytes (ndarray header,
#: key tuple, dict slot), so 10^6 five-item streams cannot hide ~200 MB
#: of Python objects behind 20 MB of counted data.
_STREAM_OVERHEAD_BYTES = 200


def _stream_cost(size: int) -> int:
    """Budget bytes charged for a resident stream of ``size`` items."""
    return 4 * size + _STREAM_OVERHEAD_BYTES


class ItemsCacheInfo(t.NamedTuple):
    """Counters of the item-stream store (see :func:`items_cache_info`)."""

    streams: int  #: ``(seed, pid)`` streams resident
    bytes: int  #: bytes resident (arrays + per-stream overhead)
    hits: int  #: requests served from a resident stream
    draws: int  #: generator draws (first draws + regrows + unretained)
    regrows: int  #: draws that replaced a shorter resident stream
    evictions: int  #: streams dropped to stay within the byte budget
    integers_drawn: int  #: total integers generated by those draws


class _ItemStore:
    """Longest-drawn-so-far ``int32`` array per ``(seed, pid)`` stream.

    numpy draws bounded integers sequentially, so the first ``m``
    values of a size-``n`` draw from a fresh generator are the size-``m``
    draw: one array per stream serves every size as a prefix.  A longer
    request redraws from a *fresh* generator — the stream is defined as
    what one draw returns, and the store keeps values, not generators
    (docs/performance.md §7) — at least doubling, so a size sweep costs
    O(log) draws.  Streams are evicted least-recently-used first once
    ``budget`` bytes are resident; a stream that alone exceeds the
    budget is served but not retained.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self._streams: collections.OrderedDict[tuple[int, int], np.ndarray] = (
            collections.OrderedDict()
        )  # least recently used first
        self._bytes = 0
        self._hits = self._draws = self._regrows = self._evictions = 0
        self._integers_drawn = 0

    def get(self, seed: int, pid: int, count: int) -> np.ndarray:
        key = (seed, pid)
        held = self._streams.get(key)
        if held is not None and held.size >= count:
            self._hits += 1
            self._streams.move_to_end(key)
            return held[:count]
        capacity = count
        if held is not None and _stream_cost(2 * held.size) <= self.budget:
            capacity = max(count, 2 * held.size)
        drawn = (
            RngStream(seed, "items", pid)
            .uniform_ints(capacity, high=2**31 - 1)
            .astype(np.int32)
        )
        drawn.flags.writeable = False
        self._draws += 1
        self._integers_drawn += capacity
        if _stream_cost(capacity) <= self.budget:
            if held is not None:
                self._regrows += 1
                self._bytes -= _stream_cost(held.size)
            self._streams[key] = drawn
            self._streams.move_to_end(key)
            self._bytes += _stream_cost(capacity)
            while self._bytes > self.budget:
                _, evicted = self._streams.popitem(last=False)
                self._bytes -= _stream_cost(evicted.size)
                self._evictions += 1
        return drawn[:count]

    def info(self) -> ItemsCacheInfo:
        return ItemsCacheInfo(
            len(self._streams), self._bytes, self._hits, self._draws,
            self._regrows, self._evictions, self._integers_drawn,
        )


_ITEMS = _ItemStore(ITEMS_BUDGET_BYTES)


def make_items(seed: int, pid: int, count: int) -> np.ndarray:
    """Deterministic per-processor input data.

    The paper's inputs are uniformly distributed integers; we generate
    them as ``int32`` (4-byte items) from a stream derived from the
    experiment seed and the pid, so inputs don't depend on schedule.

    A size sweep asks the same few ``(seed, pid)`` streams for many
    lengths, so each stream is drawn once (and regrown when a longer
    length is asked for) and every call gets a **read-only prefix
    view** of it: equal to a fresh ``RngStream(seed, "items",
    pid).uniform_ints(count).astype(int32)`` value for value, but not
    writable — ``astype``/``np.sort``/``copy`` first; an in-place write
    raises ``ValueError`` instead of leaking into the next simulation.
    The process keeps at most :data:`ITEMS_BUDGET_BYTES` of streams.
    """
    count = int(count)
    if count < 0:
        raise ValueError(f"item count must be >= 0, got {count}")
    return _ITEMS.get(int(seed), int(pid), count)


def items_cache_info() -> ItemsCacheInfo:
    """What the item-stream store holds and has done in this process."""
    return _ITEMS.info()


def count_and_checksum(items: np.ndarray | None) -> tuple[int, int]:
    """The ``(items, checksum)`` pair a program returns for verification
    — ``(0, 0)`` for a process that ends up holding nothing."""
    if items is None or not items.size:
        return (0, 0)
    return (int(items.size), int(items.astype(np.int64).sum()))


def concat_payloads(arrays: t.Iterable[np.ndarray]) -> np.ndarray:
    """Concatenate item arrays (empty-safe; a lone array is not copied)."""
    arrays = [np.asarray(a) for a in arrays]
    if not arrays:
        return np.empty(0, dtype=np.int32)
    if len(arrays) == 1:
        return arrays[0]
    return np.concatenate(arrays)
