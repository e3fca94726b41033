"""Auto-tuned collective schedules (Barchet-Estefanel-style pipeline).

``repro.tuning`` turns the hand-picked gather/broadcast schedules into
a search: enumerate an expanded per-level schedule space
(:mod:`~repro.tuning.space`), price the whole grid analytically with
the vectorized cost kernels, DES-validate the analytic shortlist on the
macro engine, and memoize the winning
:class:`~repro.tuning.plan.SchedulePlan` in a persistent
:class:`~repro.tuning.cache.DecisionCache` keyed by
``(op, topology-hash, n, root)`` — repeated traffic resolves a
tuned schedule in O(1) with zero enumeration.

The heavy modules (:mod:`~repro.tuning.tuner`,
:mod:`~repro.tuning.cache`) import the collectives layer, which itself
imports :mod:`repro.model` — so they load lazily here to keep
``repro.model.kernels`` → ``repro.tuning.plan`` cycle-free.
"""

from __future__ import annotations

import typing as t

from repro.tuning.plan import (
    BROADCAST_ALGORITHMS,
    GATHER_ALGORITHMS,
    LevelSchedule,
    SchedulePlan,
    binomial_rounds,
    default_plan,
    plan_from_phases,
    split_segments,
)
from repro.tuning.space import (
    DEFAULT_SEGMENTS,
    enumerate_plans,
    level_choices,
)

__all__ = [
    "BROADCAST_ALGORITHMS",
    "DEFAULT_SEGMENTS",
    "GATHER_ALGORITHMS",
    "LevelSchedule",
    "SchedulePlan",
    "binomial_rounds",
    "default_plan",
    "enumerate_plans",
    "level_choices",
    "plan_from_phases",
    "split_segments",
    "DecisionCache",
    "TunedDecision",
    "tune",
    "tuned_plan",
]

_LAZY = {
    "DecisionCache": ("repro.tuning.cache", "DecisionCache"),
    "TunedDecision": ("repro.tuning.tuner", "TunedDecision"),
    "tune": ("repro.tuning.tuner", "tune"),
    "tuned_plan": ("repro.tuning.tuner", "tuned_plan"),
}


def __getattr__(name: str) -> t.Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)
