"""The ``python -m repro`` command line.

Subcommands:

``list``
    Available machine presets and experiment ids.
``describe PRESET``
    Print a preset topology's tree.
``calibrate PRESET``
    Print the calibrated HBSP^k parameters (Table-1 style).
``probe PRESET``
    Measure parameters empirically and compare to calibration.
``run COLLECTIVE PRESET``
    Simulate one collective (gather/broadcast/scatter/reduce/
    allgather/alltoall/allreduce/scan) and print times, the predicted
    cost ledger, and optionally a Gantt chart.
``tune COLLECTIVE PRESET``
    Auto-tune a gather/broadcast schedule for a machine (enumerate,
    price analytically, DES-validate the shortlist) and memoize the
    decision in the persistent cache; ``run --schedule tuned`` then
    resolves it in O(1).
``cache {stats,prune,clear}``
    Inspect or reclaim the persistent sweep-result and
    tuning-decision caches (per-tier breakdown plus totals).
``serve``
    Play one open-loop serving session (seeded arrivals, admission
    control, batching, subtree placement) and print its goodput,
    latency percentiles, and per-slice utilisation.
``experiment ID``
    Regenerate a paper artifact (same ids as ``python -m
    repro.experiments``).
``topology generate SPEC``
    Build a generated (or preset) topology, print a summary, and
    optionally write the topology JSON and/or a synthesized probe
    matrix.
``topology discover``
    Recover a hierarchy from a probe matrix file (or synthesize one
    from a spec on the fly) and print the discovered levels.
``topology inspect FILE``
    Summarise a topology JSON or probe-matrix file.

Presets take an optional ``:p`` size suffix where it makes sense,
e.g. ``testbed:6`` or ``flat:8``.  Generator specs are
``family:key=value,...``, e.g. ``fat_tree:pods=8,hosts_per_rack=16``.
"""

from __future__ import annotations

import argparse
import typing as t

from repro.cluster import (
    ClusterTopology,
    deep_hierarchy,
    flat_cluster,
    grid_three_level,
    multi_lan,
    smp_sgi_lan,
    two_lans,
    ucf_testbed,
)
from repro.errors import ReproError

__all__ = ["PRESETS", "build_preset", "main"]

#: Preset name -> (factory taking an optional size, description).
PRESETS: dict[str, tuple[t.Callable[[int | None], ClusterTopology], str]] = {
    "testbed": (
        lambda p: ucf_testbed(p if p is not None else 10),
        "the paper's SUN/SGI testbed (k=1, p<=10; default 10)",
    ),
    "flat": (
        lambda p: flat_cluster(p if p is not None else 8),
        "parametric heterogeneous Ethernet LAN (k=1; default p=8)",
    ),
    "fig1": (
        lambda p: smp_sgi_lan(),
        "the paper's Figure-1 machine: SMP + SGI + LAN (k=2, p=9)",
    ),
    "two-lans": (
        lambda p: two_lans(p if p is not None else 4),
        "two LANs on a campus backbone (k=2; default 4 per LAN)",
    ),
    "multi-lan": (
        lambda p: multi_lan(p if p is not None else 3),
        "N LANs on a campus backbone (k=2; default 3 LANs)",
    ),
    "grid": (
        lambda p: grid_three_level(),
        "two-site computational grid over a WAN (k=3, p=12)",
    ),
    "deep": (
        lambda p: deep_hierarchy(p if p is not None else 4),
        "complete binary hierarchy of depth k (default k=4)",
    ),
}

_COLLECTIVES = (
    "gather",
    "broadcast",
    "scatter",
    "reduce",
    "allgather",
    "alltoall",
    "allreduce",
    "scan",
)


def build_preset(spec: str) -> ClusterTopology:
    """Build a preset from ``name`` or ``name:size``."""
    name, _, size_text = spec.partition(":")
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ReproError(f"unknown preset {name!r}; known: {known}")
    size = int(size_text) if size_text else None
    return PRESETS[name][0](size)


def _cmd_list() -> int:
    from repro.cluster.discover import GENERATORS
    from repro.experiments import EXPERIMENTS

    print("presets (use with describe/calibrate/probe/run):")
    for name, (_factory, description) in sorted(PRESETS.items()):
        print(f"  {name:10s} {description}")
    print()
    print("generators (use with topology generate/discover; key=value args):")
    print("  " + ", ".join(sorted(GENERATORS)))
    print()
    print("collectives (use with run):")
    print("  " + ", ".join(_COLLECTIVES))
    print()
    print("experiments (use with experiment):")
    print("  " + ", ".join(sorted(EXPERIMENTS)))
    return 0


def _cmd_describe(preset: str) -> int:
    print(build_preset(preset).describe())
    return 0


def _cmd_calibrate(
    preset: str,
    fit: str | None = None,
    out: str | None = None,
    source: str = "simulated",
) -> int:
    from repro.model import calibrate

    topology = build_preset(preset)
    if fit is None:
        print(calibrate(topology).describe())
        return 0
    from repro.calib import fit_params, load_runs

    result = fit_params(load_runs(fit), topology, source=source)
    print(result.describe())
    if out is not None:
        from pathlib import Path

        from repro.cluster.serialization import dumps

        Path(out).write_text(dumps(topology, params=result.params))
        print(f"wrote fitted topology (+params) to {out}")
    return 0


def _cmd_probe(preset: str) -> int:
    from repro.model import calibrate, probe_params
    from repro.util.tables import AsciiTable

    topology = build_preset(preset)
    params = calibrate(topology)
    report = probe_params(topology)
    table = AsciiTable(
        f"calibrated vs probed parameters for {preset}",
        ["machine", "r (calibrated)", "r (probed, effective)"],
    )
    for j, machine in enumerate(topology.normalized().machines):
        table.add_row([machine.name, params.r_of(0, j), report.r[j]])
    print(table.render())
    print(f"g: calibrated {params.g:.3g} s/B, probed {report.g:.3g} s/B")
    return 0


def _root_spec(root: str) -> t.Any:
    """``--root`` as the collectives take it: a policy or an explicit pid."""
    from repro.collectives import RootPolicy

    if root in ("fastest", "slowest"):
        return RootPolicy(root)
    try:
        return int(root)
    except ValueError:
        raise ReproError(
            f"--root must be 'fastest', 'slowest' or a pid, got {root!r}"
        ) from None


def _cmd_run(
    collective: str,
    preset: str,
    n: int,
    root: str,
    workload: str,
    gantt: bool,
    seed: int = 0,
    faults: str | None = None,
    retries: int = 0,
    send_timeout: float | None = None,
    trace_out: str | None = None,
    metrics_out: str | None = None,
    obs_summary: bool = False,
    runs_out: str | None = None,
    schedule: str = "default",
) -> int:
    import contextlib
    import inspect

    from repro import collectives as coll
    from repro.collectives import WorkloadPolicy, resolve_plan
    from repro.util.units import format_time

    if collective not in _COLLECTIVES:
        raise ReproError(
            f"unknown collective {collective!r}; known: {', '.join(_COLLECTIVES)}"
        )
    topology = build_preset(preset)
    runner = getattr(coll, f"run_{collective}")
    kwargs: dict[str, t.Any] = {"trace": gantt, "seed": seed}
    root_spec = _root_spec(root)
    if schedule != "default":
        plan = resolve_plan(topology, collective, n, schedule, root=root_spec)
        if plan is not None:
            kwargs["plan"] = plan
            print(f"tuned schedule: {plan.key}")
    if faults is not None:
        from repro.faults import FaultPlan

        kwargs["faults"] = FaultPlan.from_file(faults)
    if send_timeout is not None:
        from repro.faults import DeliveryPolicy

        kwargs["delivery"] = (
            DeliveryPolicy.retry(retries, timeout=send_timeout)
            if retries > 0
            else DeliveryPolicy(timeout=send_timeout)
        )
    elif retries > 0:
        raise ReproError("--retries needs --send-timeout to arm the timer")
    accepted = inspect.signature(runner).parameters
    if "root" in accepted:
        kwargs["root"] = root_spec
    if "workload" in accepted:
        kwargs["workload"] = (
            WorkloadPolicy.EQUAL if workload == "equal" else WorkloadPolicy.BALANCED
        )
    observation = None
    with contextlib.ExitStack() as stack:
        if trace_out or metrics_out or obs_summary or runs_out:
            from repro.obs import observe

            observation = stack.enter_context(observe(spans=trace_out is not None))
        outcome = runner(topology, n, **kwargs)
    if observation is not None:
        observation.ingest_outcome(outcome)
    print(f"{outcome.name} on {preset}")
    print(f"simulated: {format_time(outcome.time)}   "
          f"predicted: {format_time(outcome.predicted_time)}   "
          f"supersteps: {outcome.supersteps}")
    injector = outcome.runtime.vm.injector
    if injector is not None:
        print(f"faults: {len(injector.plan)} spec(s), "
              f"{injector.dropped_messages} message(s) dropped, "
              f"{injector.delayed_messages} delayed")
    print()
    print(outcome.predicted.describe())
    if gantt:
        print()
        print(outcome.result.trace.gantt())
    if observation is not None:
        from repro.experiments.runner import _export_observation

        if obs_summary:
            print()
        _export_observation(
            observation, trace_out, metrics_out, obs_summary, runs_out
        )
    return 0


def _cmd_tune(
    collective: str,
    preset: str,
    n: int,
    root: str,
    force: bool,
    shortlist: int,
) -> int:
    from repro.tuning.tuner import tune
    from repro.util.units import format_time

    if collective not in ("gather", "broadcast"):
        raise ReproError(
            f"tune supports gather/broadcast, got {collective!r}"
        )
    topology = _build_any(preset)
    decision = tune(
        topology, collective, n, root=_root_spec(root), force=force,
        shortlist=shortlist,
    )
    print(f"{collective}(n={n}) on {preset} -> {decision.plan.key}")
    print(f"  topology hash : {decision.topology_hash[:16]}…  root pid{decision.root}")
    print(f"  space         : {decision.candidates} plans priced analytically, "
          f"{decision.validated} DES-validated")
    print(f"  tuned         : {format_time(decision.simulated_time)} simulated "
          f"({format_time(decision.predicted_time)} predicted)")
    print(f"  default       : {format_time(decision.default_time)} simulated")
    if decision.plan.is_default:
        print("  verdict       : the default schedule is already optimal")
    else:
        print(f"  verdict       : {100 * decision.improvement:.1f}% faster "
              "than the default schedule")
    return 0


def _cmd_cache(action: str, max_bytes: int | None) -> int:
    from repro.perf import DiskCache, default_cache_dir
    from repro.tuning.cache import DecisionCache
    from repro.util.units import format_bytes

    stores: list[tuple[str, t.Any]] = [
        ("sweeps", DiskCache(default_cache_dir())),
        ("decisions", DecisionCache()),
    ]
    if action == "stats":
        per_tier: list[tuple[str, int, int]] = []
        for label, store in stores:
            stats = store.stats()
            root = store.root if hasattr(store, "root") else store.disk.root
            print(f"{label} cache at {root}")
            print(f"  current ({stats.version}): {stats.entries} entries, "
                  f"{format_bytes(stats.bytes)}")
            if stats.stale_versions:
                print(f"  stale: {format_bytes(stats.stale_bytes)} in "
                      f"{', '.join(stats.stale_versions)}")
            else:
                print("  stale: none")
            per_tier.append((label, stats.entries, stats.bytes))
        breakdown = ", ".join(f"{label} {n}" for label, n, _ in per_tier)
        print(f"total: {sum(n for _, n, _ in per_tier)} entries, "
              f"{format_bytes(sum(b for _, _, b in per_tier))} ({breakdown})")
        return 0
    if action == "prune":
        limit = 0 if max_bytes is None else max_bytes
        totals = [0, 0]
        for label, store in stores:
            removed, freed = store.prune(limit)
            totals[0] += removed
            totals[1] += freed
            print(f"{label}: removed {removed} item(s), freed {format_bytes(freed)}")
        print(f"total: removed {totals[0]} item(s), freed "
              f"{format_bytes(totals[1])}")
        return 0
    # clear
    for label, store in stores:
        entries = len(store)
        if isinstance(store, DiskCache):
            store.wipe()
        else:
            store.clear()
        print(f"{label}: cleared ({entries} entries)")
    return 0


def _cmd_serve(
    config_path: str | None,
    seed: int | None = None,
    duration: float | None = None,
    rate: float | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
    dynamics: str | None = None,
    trace_out: str | None = None,
    metrics_out: str | None = None,
    obs_summary: bool = False,
    runs_out: str | None = None,
) -> int:
    import contextlib
    import dataclasses

    from repro.perf import effective_jobs, sweep
    from repro.serve import ServiceConfig, default_config, run_service

    if config_path is not None:
        config = ServiceConfig.from_file(config_path)
    else:
        config = default_config()
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    if duration is not None:
        config = dataclasses.replace(config, duration=duration)
    if rate is not None:
        config = dataclasses.replace(
            config, arrival=dataclasses.replace(config.arrival, rate=rate)
        )
    plan = None
    if dynamics is not None:
        from repro.dynamics import DynamicPlan

        plan = DynamicPlan.from_file(dynamics)
    observation = None
    with contextlib.ExitStack() as stack:
        if trace_out or metrics_out or obs_summary or runs_out:
            from repro.obs import observe

            observation = stack.enter_context(observe(spans=trace_out is not None))
        stack.enter_context(sweep(jobs=effective_jobs(jobs), cache_dir=cache_dir))
        report = run_service(config, dynamics=plan)
    print(report.render())
    if observation is not None:
        from repro.experiments.runner import _export_observation

        if obs_summary:
            print()
        _export_observation(
            observation, trace_out, metrics_out, obs_summary, runs_out
        )
    return 0


def _cmd_experiment(
    experiment_id: str,
    plot: bool = False,
    seed: int | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
    trace_out: str | None = None,
    metrics_out: str | None = None,
    obs_summary: bool = False,
    runs_out: str | None = None,
    schedule: str | None = None,
) -> int:
    import contextlib

    from repro.experiments import run_experiment
    from repro.perf import effective_jobs, sweep

    observation = None
    with contextlib.ExitStack() as stack:
        if trace_out or metrics_out or obs_summary or runs_out:
            from repro.obs import observe

            observation = stack.enter_context(observe(spans=trace_out is not None))
        stack.enter_context(sweep(jobs=effective_jobs(jobs), cache_dir=cache_dir))
        report = run_experiment(experiment_id, seed=seed, schedule=schedule)
    print(report.render(plot=plot))
    if observation is not None:
        from repro.experiments.runner import _export_observation

        if obs_summary:
            print()
        _export_observation(
            observation, trace_out, metrics_out, obs_summary, runs_out
        )
    return 0


def _build_any(spec: str) -> ClusterTopology:
    """Build from a generator spec, falling back to the presets."""
    from repro.cluster.discover import GENERATORS, build_generated

    family = spec.partition(":")[0]
    if family in GENERATORS:
        return build_generated(spec)
    try:
        return build_preset(spec)
    except ReproError:
        known = ", ".join(sorted(list(PRESETS) + list(GENERATORS)))
        raise ReproError(
            f"unknown preset or generator {family!r}; known: {known}"
        ) from None


def _topology_summary(topology: ClusterTopology) -> str:
    from repro.cluster.discover import topology_partitions

    counts = [len(set(level)) for level in topology_partitions(topology)]
    lines = [
        f"p = {topology.num_machines} machines, k = {topology.height} levels",
        "clusters per level (innermost first): "
        + " -> ".join(str(c) for c in counts),
    ]
    if topology.num_machines <= 64:
        lines.append(topology.describe())
    return "\n".join(lines)


def _cmd_topology_generate(
    spec: str,
    out: str | None,
    matrix_out: str | None,
    noise: float,
    seed: int,
    with_params: bool,
) -> int:
    from repro.cluster.discover.matrix import synthesize

    topology = _build_any(spec)
    print(f"generated {spec!r}")
    print(_topology_summary(topology))
    if out:
        from pathlib import Path

        from repro.cluster.serialization import dumps

        params = None
        if with_params:
            from repro.model import calibrate

            params = calibrate(topology)
        Path(out).write_text(dumps(topology, params=params) + "\n")
        print(f"wrote topology JSON to {out}")
    if matrix_out:
        matrix = synthesize(topology, noise=noise, seed=seed)
        matrix.save(matrix_out)
        print(f"wrote probe matrix ({matrix!r}) to {matrix_out}")
    return 0


def _cmd_topology_discover(
    matrix_path: str | None,
    spec: str | None,
    method: str,
    rel_tol: float,
    noise: float,
    seed: int,
    out: str | None,
) -> int:
    from repro.cluster.discover import (
        ProbeMatrix,
        discover,
        exact_recovery,
        hierarchy_distance,
        synthesize,
        topology_partitions,
    )

    if (matrix_path is None) == (spec is None):
        raise ReproError("topology discover needs exactly one of --matrix / --spec")
    truth = None
    if matrix_path is not None:
        matrix = ProbeMatrix.load(matrix_path)
    else:
        topology = _build_any(t.cast(str, spec))
        truth = topology_partitions(topology)
        matrix = synthesize(topology, noise=noise, seed=seed)
    result = discover(matrix, method=method, rel_tol=rel_tol)
    print(result.describe())
    if truth is not None:
        score = 1.0 - hierarchy_distance(truth, result.partitions)
        exact = exact_recovery(truth, result.partitions)
        print(f"recovery vs truth: score {score:.4f}, exact {exact}")
    if out:
        from pathlib import Path

        from repro.cluster.serialization import dumps

        Path(out).write_text(dumps(result.topology, params=result.params) + "\n")
        print(f"wrote recovered topology JSON to {out}")
    return 0


def _cmd_topology_inspect(path: str) -> int:
    import json
    from pathlib import Path

    from repro.cluster.discover import ProbeMatrix

    text = None
    if not path.endswith(".npz"):
        text = Path(path).read_text()
        data = json.loads(text)
        schema = data.get("schema", "")
        if schema.startswith("repro.cluster/"):
            from repro.cluster.serialization import loads_with_params

            topology, params = loads_with_params(text)
            print(f"topology file ({schema})")
            print(_topology_summary(topology))
            if params is not None:
                print(params.describe())
            return 0
    matrix = ProbeMatrix.load(path)
    print(f"probe matrix: {matrix!r}")
    import numpy as np

    off_diagonal = matrix.latency[~np.eye(matrix.p, dtype=bool)]
    if off_diagonal.size:
        print(
            f"latency range: [{off_diagonal.min():.3g}, {off_diagonal.max():.3g}] s"
        )
    return 0


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags (see docs/observability.md)."""
    parser.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write a Chrome trace_event JSON timeline of the run "
        "(open in chrome://tracing or ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write aggregated metrics in Prometheus text format",
    )
    parser.add_argument(
        "--obs-summary", action="store_true",
        help="print the per-superstep predicted-vs-simulated ledger",
    )
    parser.add_argument(
        "--runs-out", metavar="FILE", default=None,
        help="write the observed run records as JSON — the input "
        "format of 'repro calibrate --fit' (docs/calibration.md)",
    )


def main(argv: t.Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="HBSP^k reproduction: simulate heterogeneous collectives.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list presets, collectives, experiments")
    for name in ("describe", "probe"):
        command = sub.add_parser(name, help=f"{name} a preset machine")
        command.add_argument("preset")
    calibrate_parser = sub.add_parser(
        "calibrate",
        help="derive HBSP^k parameters from specs, or fit them from traces",
    )
    calibrate_parser.add_argument("preset")
    calibrate_parser.add_argument(
        "--fit", metavar="RUNS.json", default=None,
        help="fit parameters from exported run records "
        "(write them with --runs-out) instead of the topology specs",
    )
    calibrate_parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="with --fit: write the topology + fitted params as "
        "topology JSON v2 (repro.cluster/2)",
    )
    calibrate_parser.add_argument(
        "--source", default="simulated",
        choices=["simulated", "predicted"],
        help="with --fit: fit against what the DES took (effective "
        "parameters) or the exported analytic step costs "
        "(estimator round-trip)",
    )
    run_parser = sub.add_parser("run", help="simulate one collective")
    run_parser.add_argument("collective")
    run_parser.add_argument("preset")
    run_parser.add_argument("--n", type=int, default=25_600,
                            help="problem size in items (default 25600 = 100 KB)")
    run_parser.add_argument("--root", default="fastest",
                            help="fastest | slowest | explicit pid")
    run_parser.add_argument("--workload", default="balanced",
                            choices=["balanced", "equal"])
    run_parser.add_argument("--gantt", action="store_true",
                            help="print an ASCII Gantt chart of the run")
    run_parser.add_argument("--seed", type=int, default=0,
                            help="experiment seed (inputs + fault coins)")
    run_parser.add_argument("--faults", metavar="PLAN.json", default=None,
                            help="inject faults from a JSON FaultPlan file")
    run_parser.add_argument("--send-timeout", type=float, default=None,
                            help="per-send delivery timeout in seconds")
    run_parser.add_argument("--retries", type=int, default=0,
                            help="retransmissions per send (needs --send-timeout)")
    run_parser.add_argument("--schedule", default="default",
                            choices=["default", "tuned"],
                            help="collective schedule: the paper's default or "
                            "the auto-tuned plan (gather/broadcast only; "
                            "tunes cold on first use, then cached)")
    _add_obs_flags(run_parser)
    tune_parser = sub.add_parser(
        "tune", help="auto-tune a collective schedule for a machine"
    )
    tune_parser.add_argument("collective", help="gather | broadcast")
    tune_parser.add_argument("preset",
                             help="preset name or generator spec "
                             '"family:key=value,..."')
    tune_parser.add_argument("--n", type=int, default=25_600,
                             help="problem size in items (default 25600)")
    tune_parser.add_argument("--root", default="fastest",
                             help="fastest | slowest | explicit pid")
    tune_parser.add_argument("--force", action="store_true",
                             help="re-tune even if a cached decision exists")
    tune_parser.add_argument("--shortlist", type=int, default=4,
                             help="analytic top-N to DES-validate (default 4)")
    cache_parser = sub.add_parser(
        "cache", help="inspect or reclaim the persistent caches"
    )
    cache_parser.add_argument("cache_action",
                              choices=["stats", "prune", "clear"],
                              help="stats: per-tier (sweeps/decisions) entries "
                              "and bytes plus totals; prune: per tier, drop "
                              "stale versions then oldest entries, reporting "
                              "a combined total; clear: wipe both tiers")
    cache_parser.add_argument("--max-bytes", type=int, default=None,
                              help="prune target size per tier — sweeps and "
                              "decisions each keep at most this many bytes "
                              "(default 0 = keep nothing)")
    experiment_parser = sub.add_parser("experiment", help="regenerate a paper artifact")
    experiment_parser.add_argument("id")
    experiment_parser.add_argument("--plot", action="store_true",
                                   help="render as an ASCII line plot")
    experiment_parser.add_argument("--seed", type=int, default=None,
                                   help="override the experiment seed")
    experiment_parser.add_argument("--jobs", type=int, default=1,
                                   help="worker processes for the simulation "
                                   "sweep (output is bit-identical)")
    experiment_parser.add_argument("--cache-dir", default=None,
                                   help="persist sweep results under this "
                                   "directory and reuse them across runs")
    experiment_parser.add_argument("--schedule", default=None,
                                   choices=["default", "tuned"],
                                   help="collective schedule for experiments "
                                   "that support it (fig3a, fig4a)")
    _add_obs_flags(experiment_parser)

    serve_parser = sub.add_parser(
        "serve", help="play one open-loop serving session"
    )
    serve_parser.add_argument(
        "--config", metavar="FILE", default=None,
        help="ServiceConfig JSON (see docs/serving.md); defaults to a "
        "built-in demo session on two-lans:3",
    )
    serve_parser.add_argument("--seed", type=int, default=None,
                              help="override the session seed (arrivals, "
                              "kind mix, kernel inputs)")
    serve_parser.add_argument("--duration", type=float, default=None,
                              help="override the arrival window in "
                              "simulated seconds")
    serve_parser.add_argument("--rate", type=float, default=None,
                              help="override the mean offered load in "
                              "requests per simulated second")
    serve_parser.add_argument("--jobs", type=int, default=1,
                              help="worker processes for the kernel-cost "
                              "prewarm (output is bit-identical)")
    serve_parser.add_argument("--cache-dir", default=None,
                              help="persist kernel-cost results under this "
                              "directory and reuse them across sessions")
    serve_parser.add_argument("--dynamics", metavar="PLAN.json", default=None,
                              help="play the session against a DynamicPlan "
                              "(churn/drift/diurnal; see docs/faults.md)")
    _add_obs_flags(serve_parser)

    topology_parser = sub.add_parser(
        "topology", help="generate, discover, and inspect cluster hierarchies"
    )
    topology_sub = topology_parser.add_subparsers(
        dest="topology_command", required=True
    )
    generate_parser = topology_sub.add_parser(
        "generate", help="build a generated (or preset) topology"
    )
    generate_parser.add_argument(
        "spec", help='generator spec "family:key=value,..." or preset name'
    )
    generate_parser.add_argument("--out", metavar="FILE", default=None,
                                 help="write the topology as JSON")
    generate_parser.add_argument("--params", action="store_true",
                                 help="embed calibrated HBSP^k params in --out")
    generate_parser.add_argument("--matrix-out", metavar="FILE", default=None,
                                 help="write the synthesized probe matrix "
                                 "(.json or .npz)")
    generate_parser.add_argument("--noise", type=float, default=0.0,
                                 help="multiplicative noise sigma for "
                                 "--matrix-out (default 0)")
    generate_parser.add_argument("--seed", type=int, default=0,
                                 help="noise seed (default 0)")
    discover_parser = topology_sub.add_parser(
        "discover", help="recover a hierarchy from a probe matrix"
    )
    discover_parser.add_argument("--matrix", metavar="FILE", default=None,
                                 help="probe matrix file (.json or .npz)")
    discover_parser.add_argument("--spec", default=None,
                                 help="synthesize the matrix from this "
                                 "generator/preset spec instead (round-trip "
                                 "demo: scores recovery against the truth)")
    discover_parser.add_argument("--method", default="auto",
                                 choices=["auto", "linkage", "bands"])
    discover_parser.add_argument("--rel-tol", type=float, default=0.3,
                                 help="level-cut relative tolerance "
                                 "(default 0.3)")
    discover_parser.add_argument("--noise", type=float, default=0.0,
                                 help="noise sigma applied with --spec")
    discover_parser.add_argument("--seed", type=int, default=0,
                                 help="noise seed (default 0)")
    discover_parser.add_argument("--out", metavar="FILE", default=None,
                                 help="write the recovered topology (+params) "
                                 "as JSON")
    inspect_parser = topology_sub.add_parser(
        "inspect", help="summarise a topology JSON or probe-matrix file"
    )
    inspect_parser.add_argument("file")

    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "describe":
            return _cmd_describe(args.preset)
        if args.command == "calibrate":
            return _cmd_calibrate(
                args.preset, fit=args.fit, out=args.out, source=args.source
            )
        if args.command == "probe":
            return _cmd_probe(args.preset)
        if args.command == "run":
            return _cmd_run(
                args.collective, args.preset, args.n, args.root,
                args.workload, args.gantt, seed=args.seed,
                faults=args.faults, retries=args.retries,
                send_timeout=args.send_timeout,
                trace_out=args.trace_out, metrics_out=args.metrics_out,
                obs_summary=args.obs_summary, runs_out=args.runs_out,
                schedule=args.schedule,
            )
        if args.command == "tune":
            return _cmd_tune(
                args.collective, args.preset, args.n, args.root,
                args.force, args.shortlist,
            )
        if args.command == "cache":
            return _cmd_cache(args.cache_action, args.max_bytes)
        if args.command == "serve":
            return _cmd_serve(
                args.config, seed=args.seed, duration=args.duration,
                rate=args.rate, jobs=args.jobs, cache_dir=args.cache_dir,
                dynamics=args.dynamics,
                trace_out=args.trace_out, metrics_out=args.metrics_out,
                obs_summary=args.obs_summary, runs_out=args.runs_out,
            )
        if args.command == "topology":
            if args.topology_command == "generate":
                return _cmd_topology_generate(
                    args.spec, args.out, args.matrix_out, args.noise,
                    args.seed, args.params,
                )
            if args.topology_command == "discover":
                return _cmd_topology_discover(
                    args.matrix, args.spec, args.method, args.rel_tol,
                    args.noise, args.seed, args.out,
                )
            if args.topology_command == "inspect":
                return _cmd_topology_inspect(args.file)
        if args.command == "experiment":
            return _cmd_experiment(
                args.id, plot=args.plot, seed=args.seed, jobs=args.jobs,
                cache_dir=args.cache_dir,
                trace_out=args.trace_out, metrics_out=args.metrics_out,
                obs_summary=args.obs_summary, runs_out=args.runs_out,
                schedule=args.schedule,
            )
    except ReproError as error:
        parser.exit(2, f"error: {error}\n")
    return 0  # pragma: no cover - argparse guarantees a command
