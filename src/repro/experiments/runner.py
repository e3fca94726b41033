"""Command-line entry point: ``python -m repro.experiments <id>``."""

from __future__ import annotations

import argparse
import contextlib
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

__all__ = ["EXPERIMENTS", "run_experiment", "main"]

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
    experiment_id = EXPERIMENT_ALIASES.get(experiment_id, experiment_id)
    check_known("experiment", experiment_id, sorted(EXPERIMENTS), ExperimentError)
    factory = EXPERIMENTS[experiment_id]
    if seed is not None and experiment_id not in _ACCEPTS_SEED:
        raise ExperimentError(
            f"experiment {experiment_id!r} does not accept a seed"
        )
    if schedule is not None and experiment_id not in _ACCEPTS_SCHEDULE:
        raise ExperimentError(
            f"experiment {experiment_id!r} does not accept a schedule"
        )
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


def main(argv: t.Sequence[str] | None = None) -> int:
    """CLI: run one or all experiments and print their reports."""
    from repro.obs.observe import add_obs_flags, observe_to

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument(
        "experiment",
        nargs="*",
        default=["all"],
        help=f"experiment id(s) or 'all'; known: {', '.join(sorted(EXPERIMENTS))}",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the experiment seed (for experiments that accept one)",
    )
    parser.add_argument(
        "--schedule", choices=["default", "tuned"], default=None,
        help="collective schedule for experiments that support it "
        "(tuned = auto-tuned via the persistent decision cache)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the simulation sweeps (default: serial); "
        "output is bit-identical at any value",
    )
    parser.add_argument(
        "--cache-dir", type=str, default=None,
        help="persistent result cache location (default: "
        "$REPRO_CACHE_DIR or ~/.cache/repro/sweeps); repeated "
        "invocations skip already-computed grid points",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent result cache for this invocation",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="cProfile each experiment and dump the top functions by "
        "cumulative time",
    )
    parser.add_argument(
        "--profile-limit", type=int, default=15,
        help="rows to show per experiment with --profile (default: 15)",
    )
    add_obs_flags(parser)
    args = parser.parse_args(argv)
    wanted = list(args.experiment)
    if wanted == ["all"]:
        wanted = list(EXPERIMENTS)
    # One executor for the whole invocation (even serially): experiments
    # sharing grid points simulate them once.
    from repro.perf import default_cache_dir, effective_jobs, sweep

    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    with observe_to(args.trace_out, args.metrics_out, args.obs_summary, args.runs_out):
        with sweep(jobs=effective_jobs(args.jobs), cache_dir=cache_dir):
            for experiment_id in wanted:
                with (
                    _profiled(experiment_id, args.profile_limit)
                    if args.profile
                    else contextlib.nullcontext()
                ):
                    report = run_experiment(
                        experiment_id, seed=args.seed, schedule=args.schedule
                    )
                print(report.render())
                print()
    return 0


@contextlib.contextmanager
def _profiled(experiment_id: str, limit: int) -> t.Iterator[None]:
    """cProfile the block, dumping top-N to stderr."""
    import cProfile
    import io
    import pstats
    import sys

    profile = cProfile.Profile()
    profile.enable()
    try:
        yield
    finally:
        profile.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profile, stream=buffer)
        stats.sort_stats("cumulative").print_stats(limit)
        print(f"--- profile: {experiment_id} (top {limit} by cumulative) ---",
              file=sys.stderr)
        print(buffer.getvalue(), file=sys.stderr)
