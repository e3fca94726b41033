"""Persistent memo of tuning decisions (the warm path).

A tuned schedule is worth remembering: the cold pipeline enumerates
and prices the whole plan space and DES-validates a shortlist, while
the *decision* itself is a few hundred bytes of JSON.  The
:class:`DecisionCache` stores one :class:`TunedDecision` per
``(op, topology-hash, n, root)`` tuple — the topology hash
is :func:`repro.cluster.topology_hash`, canonical across dict ordering
and schema versions — so repeated traffic on a known machine resolves
its plan in O(1) with zero enumeration.

Storage rides on :class:`repro.perf.DiskCache`, inheriting its
guarantees: atomic writes, any unreadable entry is a miss, and entries
live under a ``v{schema}-{package-version}`` directory so a version
bump orphans stale decisions wholesale (the simulator whose timings
justified them may have changed).  A per-process in-memory memo sits
in front of the disk for the hot path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from pathlib import Path

from repro.errors import CollectiveError
from repro.perf.diskcache import CacheStats, DiskCache
from repro.tuning.plan import SchedulePlan
from repro.util.codec import Spec

__all__ = [
    "DecisionCache",
    "TunedDecision",
    "decision_key",
    "default_decision_dir",
]


def default_decision_dir() -> Path:
    """Where tuning decisions persist.

    ``$REPRO_CACHE_DIR/decisions`` if the override is set (so tests
    and sandboxes redirect every repro cache with one variable); else
    ``$XDG_CACHE_HOME/repro/decisions``; else ``~/.cache/repro/decisions``.
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override) / "decisions"
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "decisions"


@dataclasses.dataclass(frozen=True)
class TunedDecision(Spec):
    """The outcome of one tuning run, JSON-round-trippable.

    ``simulated_time`` is the DES-validated makespan of the winning
    ``plan``; ``default_time`` is the same machine running the paper's
    default schedule, so ``improvement`` is directly the tuned-vs-default
    win.  ``candidates``/``validated`` record how much space was priced
    analytically and how much of the shortlist was simulated.
    """

    op: str
    topology_hash: str
    n: int
    root: int
    plan: SchedulePlan
    predicted_time: float
    simulated_time: float
    default_time: float
    candidates: int
    validated: int

    _error = CollectiveError

    @property
    def improvement(self) -> float:
        """Fractional makespan win over the default schedule (>= 0)."""
        if self.default_time <= 0:
            return 0.0
        return 1.0 - self.simulated_time / self.default_time


def decision_key(op: str, topology_hash: str, n: int, root: int) -> str:
    """Stable cache key for one tuning decision.

    The composed tuple is hashed so every key is a uniform hex string
    (well distributed over the disk cache's two-character fan-out and
    trivially filename-safe); the readable fields live inside the
    stored payload.

    The tuning ``seed`` stays out of the key: it only draws the item
    values, and a gather's or broadcast's simulated time depends on
    item counts, never values, so every seed validates to the same
    decision.  The space searched is fixed, so it needs no field.
    """
    if op not in ("gather", "broadcast"):
        raise CollectiveError(f"op must be 'gather' or 'broadcast', got {op!r}")
    text = f"{op}|{topology_hash}|{int(n)}|{int(root)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class DecisionCache:
    """Two-tier (memory, disk) store of :class:`TunedDecision`\\ s."""

    def __init__(
        self,
        root: str | os.PathLike[str] | None = None,
        *,
        version: str | None = None,
    ) -> None:
        self.disk = DiskCache(
            default_decision_dir() if root is None else root, version=version
        )
        self._memo: dict[str, TunedDecision] = {}

    def get(
        self, op: str, topology_hash: str, n: int, root: int
    ) -> TunedDecision | None:
        """The memoized decision, or ``None`` on any miss/failure."""
        key = decision_key(op, topology_hash, n, root)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        data = self.disk.get_json(key)
        if data is None:
            return None
        try:
            decision = TunedDecision.from_dict(data)
        except CollectiveError:  # a malformed record is a miss
            return None
        self._memo[key] = decision
        return decision

    def put(self, decision: TunedDecision) -> None:
        """Memoize a decision in memory and (best-effort) on disk."""
        key = decision_key(
            decision.op, decision.topology_hash, decision.n, decision.root
        )
        self._memo[key] = decision
        self.disk.put_json(key, decision.to_dict())

    def stats(self) -> CacheStats:
        return self.disk.stats()

    def prune(self, max_bytes: int = 0) -> tuple[int, int]:
        self._memo.clear()
        return self.disk.prune(max_bytes)

    def clear(self) -> None:
        """Drop every decision, all versions, memory included."""
        self._memo.clear()
        self.disk.wipe()

    def __len__(self) -> int:
        return len(self.disk)

    def __repr__(self) -> str:
        return (
            f"DecisionCache({str(self.disk.root)!r}, entries={len(self)}, "
            f"memo={len(self._memo)})"
        )
