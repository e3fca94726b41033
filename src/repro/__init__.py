"""repro — a reproduction of the HBSP^k model and its collectives.

Paper: Tiffani Williams and Rebecca Parsons, *Exploiting Hierarchy in
Heterogeneous Environments*, IPPS/IPDPS 2001.

Layered architecture (bottom-up):

* :mod:`repro.sim` — discrete-event simulation engine;
* :mod:`repro.cluster` — heterogeneous k-level cluster descriptions;
* :mod:`repro.cluster.discover` — hierarchy inference from pairwise
  probe matrices + parametric 10^3-10^4-leaf topology generators;
* :mod:`repro.bytemark` — simulated BYTEmark-style scores, machine
  ranking and ``c_j`` workload shares;
* :mod:`repro.pvm` — PVM-like message-passing runtime on the simulator;
* :mod:`repro.model` — the HBSP^k machine tree, parameters, and cost model;
* :mod:`repro.hbsplib` — the BSPlib-style programming library;
* :mod:`repro.collectives` — gather, broadcast, and the extended toolkit;
* :mod:`repro.faults` — deterministic fault injection and background load;
* :mod:`repro.perf` — parallel sweep execution with deterministic merge;
* :mod:`repro.obs` — span tracing, metrics, and superstep cost accounting;
* :mod:`repro.tuning` — auto-tuned collective schedules with a
  persistent decision cache;
* :mod:`repro.serve` — an open-loop serving layer: seeded arrivals,
  admission control, batching, and proportional subtree placement;
* :mod:`repro.experiments` — the harness regenerating every figure/table.

Quickstart::

    from repro import ucf_testbed, run_gather, RootPolicy
    outcome = run_gather(ucf_testbed(8), 25600, root=RootPolicy.FASTEST)
    print(outcome.time, outcome.predicted_time)

Robustness (see ``docs/faults.md``)::

    from repro import FaultPlan, DeliveryPolicy, run_gather, ucf_testbed
    from repro.faults import straggler_plan
    outcome = run_gather(
        ucf_testbed(8), 25600,
        faults=straggler_plan("sun-ultra1", factor=4.0), seed=1,
        delivery=DeliveryPolicy.retry(3, timeout=0.25),
    )
"""

from repro.errors import FaultError, TimeoutError  # noqa: A004
from repro.faults import DeliveryPolicy, FaultPlan, Injector
from repro.cluster import (
    Cluster,
    ClusterTopology,
    DiscoveryResult,
    MachineSpec,
    NetworkSpec,
    ProbeMatrix,
    cloud_spot_mix,
    discover,
    fat_tree,
    flat_cluster,
    grid_three_level,
    multi_rack,
    multicore_nodes,
    smp_sgi_lan,
    synthesize,
    two_lans,
    ucf_testbed,
)
from repro.collectives import (
    CollectiveOutcome,
    RootPolicy,
    WorkloadPolicy,
    run_allgather,
    run_allreduce,
    run_alltoall,
    run_broadcast,
    run_gather,
    run_reduce,
    run_scan,
    run_scatter,
)
from repro.hbsplib import HbspContext, HbspResult, HbspRuntime
from repro.model import HBSPParams, HBSPTree, CostLedger, calibrate
from repro.obs import (
    MetricsRegistry,
    Observation,
    RunObs,
    Span,
    SuperstepLedger,
    Tracer,
    chrome_trace,
    current_observation,
    observe,
    prometheus_text,
)
from repro.perf import SimJob, SimResult, SweepExecutor, evaluate, sweep
from repro.serve import (
    ServiceConfig,
    ServiceReport,
    default_config,
    run_service,
)

__version__ = "1.5.0"

__all__ = [
    "Cluster",
    "ClusterTopology",
    "MachineSpec",
    "NetworkSpec",
    "flat_cluster",
    "grid_three_level",
    "smp_sgi_lan",
    "two_lans",
    "ucf_testbed",
    "ProbeMatrix",
    "DiscoveryResult",
    "discover",
    "synthesize",
    "fat_tree",
    "multi_rack",
    "cloud_spot_mix",
    "multicore_nodes",
    "CollectiveOutcome",
    "RootPolicy",
    "WorkloadPolicy",
    "run_allgather",
    "run_allreduce",
    "run_alltoall",
    "run_broadcast",
    "run_gather",
    "run_reduce",
    "run_scan",
    "run_scatter",
    "HbspContext",
    "HbspResult",
    "HbspRuntime",
    "HBSPParams",
    "HBSPTree",
    "CostLedger",
    "calibrate",
    "SimJob",
    "SimResult",
    "SweepExecutor",
    "evaluate",
    "sweep",
    "FaultPlan",
    "Injector",
    "DeliveryPolicy",
    "FaultError",
    "TimeoutError",
    "MetricsRegistry",
    "Observation",
    "RunObs",
    "Span",
    "SuperstepLedger",
    "Tracer",
    "chrome_trace",
    "current_observation",
    "observe",
    "prometheus_text",
    "ServiceConfig",
    "ServiceReport",
    "default_config",
    "run_service",
    "__version__",
]
