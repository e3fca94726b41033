"""The HBSP^k model: machine tree, parameters, and cost algebra.

This package is the paper's primary contribution (Section 3):

* :mod:`repro.model.tree` — the tree representation ``T = (V, E)`` of an
  HBSP^k machine, with the paper's ``M_{i,j}`` indexing, levels, and
  coordinator selection;
* :mod:`repro.model.params` — the parameter set (``g``, ``r_{i,j}``,
  ``L_{i,j}``, ``c_{i,j}``, ``m_i``, ``m_{i,j}``) with validation and
  calibration from a :class:`~repro.cluster.ClusterTopology`;
* :mod:`repro.model.cost` — the cost model: heterogeneous h-relations
  and super^i-step costs ``T_i = w_i + g h + L_{i,j}``, with an
  itemised :class:`~repro.model.cost.CostLedger`;
* :mod:`repro.model.predict` — closed-form costs for every algorithm
  analysed in Section 4 (gather, one-phase and two-phase broadcast, at
  levels 1, 2, and general k);
* :mod:`repro.model.kernels` — the same predictions vectorized: whole
  grids of ``(n, root, workload, phases)`` points in one numpy pass,
  bit-identical to the scalar predictors.
"""

from repro.model.tree import HBSPNode, HBSPTree
from repro.model.params import HBSPParams, calibrate
from repro.model.cost import CostLedger, SuperstepCost, h_relation, superstep_cost
from repro.model import predict
from repro.model.kernels import (
    BroadcastKernel,
    GatherKernel,
    KernelGrid,
    PlanGrid,
    balanced_counts,
    equal_counts,
)
from repro.model.planner import (
    best_broadcast_phases,
    best_root,
    hierarchy_penalty,
    rank_plans,
    score_plans,
)
from repro.model.residuals import OBSERVATION_SOURCES, StepEquation, step_equations
from repro.model.probe import (
    LinkEstimate,
    ProbeReport,
    probe_link,
    probe_matrix,
    probe_params,
    probe_sync,
)

__all__ = [
    "HBSPNode",
    "HBSPTree",
    "HBSPParams",
    "calibrate",
    "CostLedger",
    "SuperstepCost",
    "h_relation",
    "superstep_cost",
    "OBSERVATION_SOURCES",
    "StepEquation",
    "step_equations",
    "predict",
    "BroadcastKernel",
    "GatherKernel",
    "KernelGrid",
    "PlanGrid",
    "balanced_counts",
    "equal_counts",
    "best_broadcast_phases",
    "best_root",
    "rank_plans",
    "score_plans",
    "hierarchy_penalty",
    "LinkEstimate",
    "ProbeReport",
    "probe_link",
    "probe_matrix",
    "probe_params",
    "probe_sync",
]
