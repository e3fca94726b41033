"""Dynamic clusters: membership churn as a declarative plan.

A :class:`DynamicPlan` is a list of :class:`MachineJoin` /
:class:`MachineLeave` events.  Its one consumer is the serving layer:
:func:`membership_epochs` turns the plan into a deterministic sequence
of constant-membership epochs that :func:`repro.serve.run_service`
re-plans placement against.  :func:`churn_plan` is the seeded preset
generator.

Everything is seeded and pure data: plans JSON-round-trip, equal plans
yield equal epochs, and the empty plan is one all-present epoch.
"""

from repro.dynamics.epochs import Epoch, membership_epochs
from repro.dynamics.plan import DynamicPlan, MachineJoin, MachineLeave, churn_plan

__all__ = [
    "DynamicPlan",
    "MachineJoin",
    "MachineLeave",
    "churn_plan",
    "Epoch",
    "membership_epochs",
]
