"""Shared plumbing for the application layer."""

from __future__ import annotations

from repro.collectives.base import CollectiveOutcome

__all__ = ["AppOutcome", "CPU_OPS"]

#: One application run: the collectives' outcome class (``predicted`` is
#: ``None`` where the application provides no closed form).
AppOutcome = CollectiveOutcome

#: CPU work-unit charges for application computation, per element.
#: One work unit corresponds to one simple machine operation on the
#: calibrated ``cpu_rate`` scale (see repro.cluster.machine).
CPU_OPS = {
    "compare": 1.0,       # one comparison in sort/merge/partition
    "flop": 2.0,          # one multiply-add
    "bucket": 2.0,        # binary-search bucket assignment step
    "count": 1.0,         # one histogram increment
}
