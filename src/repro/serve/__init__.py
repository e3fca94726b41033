"""repro.serve — an open-loop collective-scheduling service.

The production north star made concrete: a long-running simulated
service where requests — each a small chain of ``apps/`` kernels and
gather/broadcast collectives — arrive from simulated users via seeded
open-loop processes and contend for one shared heterogeneous cluster
through admission control, batching, and proportional subtree
placement.  See ``docs/serving.md``.

Quickstart::

    from repro.serve import default_config, run_service
    report = run_service(default_config(seed=0, duration=20.0))
    print(report.render())
"""

from repro.serve.arrivals import Arrival, diurnal_rate, generate_arrivals, offered_rate
from repro.serve.config import (
    REQUEST_TEMPLATES,
    STAGE_OPS,
    ArrivalSpec,
    PolicySpec,
    RequestKind,
    ServiceConfig,
    StageSpec,
    default_config,
)
from repro.serve.costs import StageCostModel
from repro.serve.placement import (
    Slice,
    carve_slices,
    pick_slice,
    restrict_topology,
    slice_variants,
)
from repro.serve.report import ServiceReport, percentile
from repro.serve.service import ServeSession, resolve_cluster, run_service, serve_slices

__all__ = [
    "Arrival",
    "ArrivalSpec",
    "PolicySpec",
    "REQUEST_TEMPLATES",
    "RequestKind",
    "STAGE_OPS",
    "ServeSession",
    "ServiceConfig",
    "ServiceReport",
    "Slice",
    "StageCostModel",
    "StageSpec",
    "carve_slices",
    "default_config",
    "diurnal_rate",
    "generate_arrivals",
    "offered_rate",
    "percentile",
    "pick_slice",
    "resolve_cluster",
    "restrict_topology",
    "run_service",
    "serve_slices",
    "slice_variants",
]
