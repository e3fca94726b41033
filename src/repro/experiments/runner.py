"""The experiment registry and :func:`run_experiment`.

The command line is ``python -m repro experiment [ID ...]``
(:mod:`repro.cli`); ``python -m repro.experiments [ID ...]`` is the
same command.
"""

from __future__ import annotations

import inspect
import typing as t

from repro.errors import ExperimentError
from repro.experiments.ablations import ablation_report
from repro.experiments.bsp_vs_hbsp import bsp_vs_hbsp
from repro.experiments.discovery import discovery_roundtrip
from repro.experiments.dynamics import dynamics_curves
from repro.experiments.scaling import app_scaling
from repro.experiments.sensitivity import calibration_sensitivity
from repro.experiments.tuning import tuning_improvement
from repro.experiments.analysis import (
    model_fidelity,
    sec4_broadcast_phases,
    sec4_gather_hierarchy,
    table1_parameters,
)
from repro.experiments.fig3_gather import fig3a_gather_root, fig3b_gather_balance
from repro.experiments.fig4_broadcast import (
    fig4a_broadcast_root,
    fig4b_broadcast_balance,
)
from repro.experiments.improvement import ExperimentReport
from repro.experiments.robustness import robustness_report
from repro.experiments.serving import serving_curves
from repro.util.validation import check_known

__all__ = ["EXPERIMENTS", "check_experiment", "run_experiment"]

#: Experiment id -> zero-config callable (matches DESIGN.md's index).
EXPERIMENTS: dict[str, t.Callable[[], ExperimentReport]] = {
    "table1": table1_parameters,
    "fig3a": fig3a_gather_root,
    "fig3b": fig3b_gather_balance,
    "fig4a": fig4a_broadcast_root,
    "fig4b": fig4b_broadcast_balance,
    "sec4-bcast-phases": sec4_broadcast_phases,
    "sec4-gather-hierarchy": sec4_gather_hierarchy,
    "model-vs-sim": model_fidelity,
    "ablations": ablation_report,
    "scaling": app_scaling,
    "bsp-vs-hbsp": bsp_vs_hbsp,
    "sensitivity": calibration_sensitivity,
    "robustness": robustness_report,
    "discovery": discovery_roundtrip,
    "tuning": tuning_improvement,
    "serve": serving_curves,
    "dynamics": dynamics_curves,
}

#: Friendly aliases accepted anywhere an experiment id is (the paper's
#: figures are easier to remember by what they show).
EXPERIMENT_ALIASES: dict[str, str] = {
    "fig3_gather": "fig3a",
    "fig4_broadcast": "fig4a",
}

#: Experiments whose factory takes a ``seed`` keyword — resolved once
#: at registry-build time so ``run_experiment`` stays signature-free
#: on its hot path.
_ACCEPTS_SEED: frozenset[str] = frozenset(
    experiment_id
    for experiment_id, factory in EXPERIMENTS.items()
    if "seed" in inspect.signature(factory).parameters
)

#: Experiments that can run their collectives under an auto-tuned
#: schedule (``--schedule tuned``); resolved like :data:`_ACCEPTS_SEED`.
_ACCEPTS_SCHEDULE: frozenset[str] = frozenset(
    experiment_id
    for experiment_id, factory in EXPERIMENTS.items()
    if "schedule" in inspect.signature(factory).parameters
)


def check_experiment(
    experiment_id: str,
    *,
    seed: int | None = None,
    schedule: str | None = None,
) -> str:
    """The registered id of ``experiment_id`` (an id or alias).

    Raises :class:`~repro.errors.ExperimentError` for an unknown id, or
    for a ``seed``/``schedule`` the experiment does not accept.
    """
    experiment_id = EXPERIMENT_ALIASES.get(experiment_id, experiment_id)
    check_known("experiment", experiment_id, sorted(EXPERIMENTS), ExperimentError)
    if seed is not None and experiment_id not in _ACCEPTS_SEED:
        raise ExperimentError(
            f"experiment {experiment_id!r} does not accept a seed"
        )
    if schedule is not None and experiment_id not in _ACCEPTS_SCHEDULE:
        raise ExperimentError(
            f"experiment {experiment_id!r} does not accept a schedule"
        )
    return experiment_id


def run_experiment(
    experiment_id: str,
    *,
    seed: int | None = None,
    schedule: str | None = None,
) -> ExperimentReport:
    """Run one experiment by id (or alias); raises for unknown ids.

    ``seed`` overrides the experiment's default seed for experiments
    that accept one (raises for those that don't); ``schedule``
    (``"default"``/``"tuned"``) likewise selects the collective
    schedule for experiments that support it.
    """
    factory = EXPERIMENTS[check_experiment(experiment_id, seed=seed, schedule=schedule)]
    kwargs: dict[str, t.Any] = {}
    if seed is not None:
        kwargs["seed"] = seed
    if schedule is not None:
        kwargs["schedule"] = schedule
    from repro.obs.observe import current_observation

    observation = current_observation()
    if observation is not None:
        # Metrics only — no wall-clock span: exported traces carry
        # nothing but simulated time, so identical invocations stay
        # bit-identical.
        observation.metrics.inc("repro_experiments_total")
    return factory(**kwargs)
