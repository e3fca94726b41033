"""Declarative, JSON-serialisable collective schedule plans.

A :class:`SchedulePlan` pins, for every hierarchy level, *how* that
level's super-step communicates — the expanded schedule space of
Barchet-Estefanel & Mounié's tuning programme, generalised to HBSP^k:

* **gather** levels choose ``flat`` (every child coordinator sends its
  accumulated subtree to the cluster coordinator in one step,
  optionally *segmented* into ``S`` chunked sub-steps) or ``binomial``
  (a ⌈log₂C⌉-round binomial tree over the child-coordinator
  positions);
* **broadcast** levels choose ``one`` (coordinator fan-out, optionally
  segmented), ``two`` (the paper's scatter + total-exchange two-phase
  scheme), or ``binomial`` (log-round doubling).

Plans are *pure data*: the cost model prices them
(:func:`repro.model.predict.predict_gather_plan` /
:func:`~repro.model.predict.predict_broadcast_plan`, vectorized by
``model.kernels``), the DES executes them (``collectives/`` programs
take a ``plan=`` argument), and the decision cache persists them as
JSON.  A plan is also the *only* thing those layers price and run:
``default_plan`` is the paper's hand schedule and
:func:`plan_from_phases` the plan a ``"one"|"two"|{level: …}`` spec
denotes, so every plan-less entry point converts once at its boundary
and a plan-less run *is* a default-plan run.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import typing as t

from repro.errors import CollectiveError
from repro.util.codec import Spec

__all__ = [
    "GATHER_ALGORITHMS",
    "BROADCAST_ALGORITHMS",
    "LevelSchedule",
    "SchedulePlan",
    "default_plan",
    "plan_from_phases",
]

#: Per-level algorithms understood by the gather program/model.
GATHER_ALGORITHMS = ("flat", "binomial")
#: Per-level algorithms understood by the broadcast program/model.
BROADCAST_ALGORITHMS = ("one", "two", "binomial")

#: Algorithms that accept message segmentation (``segments > 1``).
_SEGMENTABLE = ("flat", "one")

#: One-/two-phase broadcast spec: one scheme for every level, or a
#: per-level map (see :func:`plan_from_phases`).
PhaseSpec = t.Union[str, t.Mapping[int, str]]


def binomial_rounds(fan_out: int) -> int:
    """Rounds of a binomial tree over ``fan_out`` positions: ⌈log₂C⌉."""
    return max(0, fan_out - 1).bit_length()


def split_segments(total: int, segments: int) -> list[int]:
    """Chunk sizes of ``total`` items over ``segments`` sub-steps.

    The single integer rule shared by the cost model and the executable
    programs: chunk ``s`` holds ``total // S + (1 if s < total % S)``.
    """
    base, extra = divmod(int(total), segments)
    return [base + (1 if s < extra else 0) for s in range(segments)]


def segment_bounds(total: int, segments: int) -> list[int]:
    """Slice offsets of the chunks: chunk ``s`` is ``[b[s], b[s + 1])``."""
    return [0, *itertools.accumulate(split_segments(total, segments))]


def segment_suffix(s: int, segments: int) -> str:
    """Label suffix of sub-step ``s``: none for an unsegmented level.

    ``super1`` / ``gather up L1`` name the whole-message step,
    ``super1.2`` / ``gather up L1.2`` the second chunk of a segmented one.
    """
    return "" if segments == 1 else f".{s + 1}"


@dataclasses.dataclass(frozen=True)
class LevelSchedule(Spec):
    """How one hierarchy level communicates.

    ``segments`` splits each message into that many chunks, one
    cluster-scoped super-step per chunk (latency-for-bandwidth trade,
    only meaningful for the segmentable algorithms).
    """

    algorithm: str
    segments: int = 1

    _error = CollectiveError

    def validated(self, op: str) -> "LevelSchedule":
        allowed = GATHER_ALGORITHMS if op == "gather" else BROADCAST_ALGORITHMS
        if self.algorithm not in allowed:
            raise CollectiveError(
                f"unknown {op} level algorithm {self.algorithm!r} "
                f"(expected one of {allowed})"
            )
        if not isinstance(self.segments, int) or self.segments < 1:
            raise CollectiveError(
                f"segments must be a positive int, got {self.segments!r}"
            )
        if self.segments > 1 and self.algorithm not in _SEGMENTABLE:
            raise CollectiveError(
                f"algorithm {self.algorithm!r} does not support "
                f"segmentation (segments={self.segments})"
            )
        return self

    @property
    def key(self) -> str:
        """Compact canonical token, e.g. ``flat``, ``flat/4``, ``binomial``."""
        if self.segments == 1:
            return self.algorithm
        return f"{self.algorithm}/{self.segments}"


@dataclasses.dataclass(frozen=True)
class SchedulePlan(Spec):
    """A complete per-level schedule for one collective.

    ``levels[i]`` schedules hierarchy level ``i + 1`` (gather ascends
    1..k, broadcast descends k..1 — the tuple is always stored in
    ascending level order).
    """

    op: str
    levels: tuple[LevelSchedule, ...]

    _error = CollectiveError

    def __post_init__(self) -> None:
        if self.op not in ("gather", "broadcast"):
            raise CollectiveError(
                f"op must be 'gather' or 'broadcast', got {self.op!r}"
            )
        object.__setattr__(self, "levels", tuple(self.levels))
        for schedule in self.levels:
            schedule.validated(self.op)

    @property
    def k(self) -> int:
        """Number of scheduled hierarchy levels."""
        return len(self.levels)

    def level(self, level: int) -> LevelSchedule:
        """The schedule of hierarchy level ``level`` (1-based)."""
        if not 1 <= level <= self.k:
            raise CollectiveError(
                f"level {level} out of range for a k={self.k} plan"
            )
        return self.levels[level - 1]

    @property
    def key(self) -> str:
        """Canonical compact form, e.g. ``gather:flat/2|binomial``."""
        return f"{self.op}:" + "|".join(s.key for s in self.levels)

    @property
    def is_default(self) -> bool:
        """Whether this plan reproduces the paper's hand schedule."""
        return self == default_plan(self.op, self.k)

    def __str__(self) -> str:
        return self.key


@functools.lru_cache(maxsize=None)
def default_plan(op: str, k: int) -> SchedulePlan:
    """The paper's hand schedule as a plan.

    Gather: flat single-step fan-in at every level (Sections 4.2–4.3).
    Broadcast: two-phase at every level (the paper's recommended
    scheme, and the plan-less default of ``run_broadcast``).
    """
    algorithm = "flat" if op == "gather" else "two"
    return SchedulePlan(op, tuple(LevelSchedule(algorithm) for _ in range(k)))


def plan_from_phases(phases: PhaseSpec, k: int) -> SchedulePlan:
    """The broadcast plan a one-/two-phase spec denotes on ``k`` levels.

    The single place a phase spec is parsed and rejected: a string
    applies to every level; a mapping schedules the levels it names,
    the others default to ``"two"`` and entries beyond ``k`` are
    ignored.
    """
    if isinstance(phases, str):
        # Rejected even where no level would use it (k = 0).
        given, modes = [phases], [phases] * k
    elif isinstance(phases, t.Mapping):
        given = modes = [phases.get(level, "two") for level in range(1, k + 1)]
    else:
        raise CollectiveError(
            f"phases must be 'one', 'two' or a {{level: scheme}} mapping, "
            f"got {phases!r}"
        )
    for mode in given:
        if mode not in ("one", "two"):
            raise CollectiveError(f"phase must be 'one' or 'two', got {mode!r}")
    return SchedulePlan("broadcast", tuple(LevelSchedule(m) for m in modes))


def check_plan(plan: t.Any, op: str, k: int) -> SchedulePlan:
    """Reject a ``plan`` argument that cannot schedule ``op`` on ``k`` levels."""
    if not isinstance(plan, SchedulePlan):
        raise CollectiveError(f"plan must be a SchedulePlan, got {plan!r}")
    if plan.op != op:
        raise CollectiveError(f"plan is for {plan.op!r}, expected {op!r}")
    if plan.k != k:
        raise CollectiveError(
            f"plan schedules {plan.k} levels, topology has k={k}"
        )
    return plan
