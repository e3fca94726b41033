"""Enumeration of the per-collective schedule space.

The candidate set per hierarchy level:

* gather — ``flat`` at each configured segmentation plus ``binomial``;
* broadcast — ``one`` at each segmentation, ``two``, and ``binomial``.

A plan is the cross product over the ``k`` levels, so the space is
``(1 + |segments|)^k`` for gather and ``(2 + |segments|)^k`` for
broadcast — e.g. 64 / 125 plans at ``k = 3`` with the default
``segments = (1, 2, 4)``.  The model cost is a sum over levels, so
pricing the space exhaustively (the analytic pruning stage) takes only
``|level_choices| · k`` vectorized kernel passes — 12 / 15 — whose
steps every plan shares; it is far too large to DES-simulate
exhaustively (hence the top-N shortlist).
"""

from __future__ import annotations

import itertools
import typing as t

from repro.errors import CollectiveError
from repro.tuning.plan import LevelSchedule, SchedulePlan, default_plan

__all__ = ["DEFAULT_SEGMENTS", "level_choices", "enumerate_plans"]

#: Segmentation factors explored for the segmentable algorithms.
DEFAULT_SEGMENTS: tuple[int, ...] = (1, 2, 4)


def level_choices(
    op: str, segments: t.Sequence[int] = DEFAULT_SEGMENTS
) -> list[LevelSchedule]:
    """Candidate schedules for one hierarchy level, in canonical order."""
    segments = _check_segments(segments)
    if op == "gather":
        choices = [LevelSchedule("flat", s) for s in segments]
        choices.append(LevelSchedule("binomial"))
    elif op == "broadcast":
        choices = [LevelSchedule("one", s) for s in segments]
        choices.append(LevelSchedule("two"))
        choices.append(LevelSchedule("binomial"))
    else:
        raise CollectiveError(
            f"op must be 'gather' or 'broadcast', got {op!r}"
        )
    return choices


def enumerate_plans(
    op: str,
    k: int,
    *,
    segments: t.Sequence[int] = DEFAULT_SEGMENTS,
) -> list[SchedulePlan]:
    """Every plan in the space, the default plan always first."""
    if k < 0:
        raise CollectiveError(f"k must be >= 0, got {k}")
    choices = level_choices(op, segments)
    plans = [
        SchedulePlan(op, levels)
        for levels in itertools.product(choices, repeat=k)
    ]
    base = default_plan(op, k)
    plans.sort(key=lambda plan: plan != base)  # stable: default first
    return plans


def _check_segments(segments: t.Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(s) for s in segments)
    if not out or any(s < 1 for s in out) or len(set(out)) != len(out):
        raise CollectiveError(
            f"segments must be distinct positive ints, got {segments!r}"
        )
    if 1 not in out:
        out = (1,) + out
    return out
