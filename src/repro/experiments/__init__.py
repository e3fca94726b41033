"""The experiment harness: regenerates every figure and table.

Each experiment function returns an :class:`ExperimentReport` whose
``render()`` prints the same rows/series the paper reports (improvement
factors per processor count, one series per problem size).
``tests/integration/test_shapes.py`` and ``tests/experiments/`` assert
the qualitative shapes; ``python -m repro.experiments <id>`` runs one
from the command line.

Experiment ids (see DESIGN.md §4): ``table1``, ``fig3a``, ``fig3b``,
``fig4a``, ``fig4b``, ``sec4-bcast-phases``, ``sec4-gather-hierarchy``,
``model-vs-sim``, ``ablations``, ``scaling``, ``bsp-vs-hbsp``,
``sensitivity``, ``robustness``, ``discovery``.
"""

from repro.experiments.improvement import ExperimentReport, improvement_factor
from repro.experiments.fig3_gather import fig3a_gather_root, fig3b_gather_balance
from repro.experiments.fig4_broadcast import (
    fig4a_broadcast_root,
    fig4b_broadcast_balance,
)
from repro.experiments.ablations import (
    ablation_nic_serialization,
    ablation_pack_asymmetry,
    ablation_rank_noise,
    ablation_report,
    symmetric_pack_topology,
)
from repro.experiments.analysis import (
    model_fidelity,
    sec4_broadcast_phases,
    sec4_gather_hierarchy,
    table1_parameters,
)
from repro.experiments.bsp_vs_hbsp import bsp_vs_hbsp
from repro.experiments.discovery import discovery_roundtrip
from repro.experiments.robustness import robustness_plans, robustness_report
from repro.experiments.scaling import app_scaling
from repro.experiments.sensitivity import calibration_sensitivity
from repro.experiments.tuning import tuning_improvement
from repro.experiments.runner import EXPERIMENTS, run_experiment

__all__ = [
    "ExperimentReport",
    "improvement_factor",
    "fig3a_gather_root",
    "fig3b_gather_balance",
    "fig4a_broadcast_root",
    "fig4b_broadcast_balance",
    "table1_parameters",
    "sec4_broadcast_phases",
    "sec4_gather_hierarchy",
    "model_fidelity",
    "ablation_report",
    "ablation_pack_asymmetry",
    "ablation_nic_serialization",
    "ablation_rank_noise",
    "symmetric_pack_topology",
    "app_scaling",
    "bsp_vs_hbsp",
    "calibration_sensitivity",
    "tuning_improvement",
    "robustness_plans",
    "robustness_report",
    "discovery_roundtrip",
    "EXPERIMENTS",
    "run_experiment",
]
