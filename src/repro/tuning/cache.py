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
justified them may have changed).  Which root :func:`repro.tuning.tune`
keeps a decision in when given no cache is its one rule: the active
sweep's disk tier, else :func:`~repro.perf.default_cache_dir`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

from repro.errors import CollectiveError
from repro.perf.diskcache import DiskCache
from repro.tuning.plan import SchedulePlan
from repro.util.codec import Spec

__all__ = [
    "DecisionCache",
    "TunedDecision",
    "decision_key",
]


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
    """:class:`TunedDecision` entries in a :class:`~repro.perf.DiskCache` root.

    Hides the decision key and the record's codec; the store itself
    (stats, pruning, clearing) is the :class:`~repro.perf.DiskCache`
    over the same root.
    """

    def __init__(
        self, root: str | os.PathLike[str], *, version: str | None = None
    ) -> None:
        self.disk = DiskCache(root, version=version)

    def get(
        self, op: str, topology_hash: str, n: int, root: int
    ) -> TunedDecision | None:
        """The stored decision, or ``None`` on any miss/failure."""
        data = self.disk.get_json(decision_key(op, topology_hash, n, root))
        if data is None:
            return None
        try:
            return TunedDecision.from_dict(data)
        except CollectiveError:  # a malformed record is a miss
            return None

    def put(self, decision: TunedDecision) -> None:
        """Persist a decision (best-effort, like every disk-cache write)."""
        key = decision_key(
            decision.op, decision.topology_hash, decision.n, decision.root
        )
        self.disk.put_json(key, decision.to_dict())
