"""HBSP^k collective communication algorithms.

The paper designs and analyses **gather** and **one-to-all broadcast**
(Section 4) and refers to its companion dissertation [20] for further
collectives; this package implements the full toolkit on the same
two design rules (Section 4.1):

1. faster machines do the coordination work (roots/coordinators are
   the fastest machines unless an experiment overrides them);
2. faster machines receive more data (balanced workloads via ``c_j``).

All of them are compositions of three communication steps — an ascent,
a descent and a flat exchange (:mod:`repro.collectives.steps`) — each
with one program body and one cost body.

Every collective exists in two forms that the benchmarks compare:

* a *runnable HBSP program* executed on the simulated machine
  (``run_gather`` etc., returning a :class:`CollectiveOutcome` with
  the simulated makespan and the per-pid results), and
* a *closed-form cost prediction* over :class:`~repro.model.HBSPParams`
  (``predict_*`` functions returning a
  :class:`~repro.model.cost.CostLedger`).
"""

from repro.collectives.base import CollectiveOutcome, make_runtime
from repro.collectives.schedules import (
    RootPolicy,
    SchedulePolicy,
    WorkloadPolicy,
    resolve_plan,
    effective_coordinator,
    resolve_root,
    split_counts,
)
from repro.collectives.gather import gather_program, run_gather
from repro.collectives.broadcast import (
    broadcast_program,
    run_broadcast,
)
from repro.collectives.scatter import predict_scatter_cost, run_scatter, scatter_program
from repro.collectives.reduce import predict_reduce_cost, reduce_program, run_reduce
from repro.collectives.allgather import (
    allgather_program,
    predict_allgather_cost,
    run_allgather,
)
from repro.collectives.alltoall import (
    alltoall_program,
    predict_alltoall_cost,
    run_alltoall,
)
from repro.collectives.allreduce import (
    allreduce_program,
    predict_allreduce_cost,
    run_allreduce,
)
from repro.collectives.scan import predict_scan_cost, run_scan, scan_program

__all__ = [
    "CollectiveOutcome",
    "make_runtime",
    "RootPolicy",
    "SchedulePolicy",
    "WorkloadPolicy",
    "resolve_plan",
    "effective_coordinator",
    "resolve_root",
    "split_counts",
    "gather_program",
    "run_gather",
    "broadcast_program",
    "run_broadcast",
    "scatter_program",
    "run_scatter",
    "predict_scatter_cost",
    "reduce_program",
    "run_reduce",
    "predict_reduce_cost",
    "allgather_program",
    "run_allgather",
    "predict_allgather_cost",
    "alltoall_program",
    "run_alltoall",
    "predict_alltoall_cost",
    "scan_program",
    "run_scan",
    "predict_scan_cost",
    "allreduce_program",
    "run_allreduce",
    "predict_allreduce_cost",
]
