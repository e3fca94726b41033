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
    Inspect or reclaim the persistent cache: simulation results,
    tuning decisions and experiment rows, one store.
``serve``
    Play one open-loop serving session (seeded arrivals, admission
    control, batching, subtree placement) and print its goodput,
    latency percentiles, and per-slice utilisation.
``experiment [ID ...]``
    Regenerate paper artifacts, every one by default (``python -m
    repro.experiments`` is the same command).
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

from repro.cluster import ClusterTopology
from repro.cluster.presets import PRESETS, build_any, build_preset
from repro.errors import ReproError
from repro.util.validation import check_known

__all__ = ["PRESETS", "build_preset", "main"]

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


def _cmd_list(args: argparse.Namespace) -> int:
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


def _cmd_describe(args: argparse.Namespace) -> int:
    print(build_preset(args.preset).describe())
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.model import calibrate

    topology = build_preset(args.preset)
    if args.fit is None:
        print(calibrate(topology).describe())
        return 0
    from repro.calib import fit_params, load_runs

    result = fit_params(load_runs(args.fit), topology, source=args.source)
    print(result.describe())
    if args.out is not None:
        from pathlib import Path

        from repro.cluster.serialization import dumps

        Path(args.out).write_text(dumps(topology, params=result.params))
        print(f"wrote fitted topology (+params) to {args.out}")
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    from repro.model import calibrate, probe_params
    from repro.util.tables import AsciiTable

    topology = build_preset(args.preset)
    params = calibrate(topology)
    report = probe_params(topology)
    table = AsciiTable(
        f"calibrated vs probed parameters for {args.preset}",
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


def _cmd_run(args: argparse.Namespace) -> int:
    import inspect

    from repro import collectives as coll
    from repro.collectives import WorkloadPolicy, resolve_plan
    from repro.obs import collect_run_obs, current_observation, gantt, observe
    from repro.util.units import format_time

    check_known("collective", args.collective, _COLLECTIVES, ReproError)
    topology = build_preset(args.preset)
    runner = getattr(coll, f"run_{args.collective}")
    kwargs: dict[str, t.Any] = {"seed": args.seed}
    root_spec = _root_spec(args.root)
    if args.schedule != "default":
        plan = resolve_plan(topology, args.collective, args.n, args.schedule, root=root_spec)
        if plan is not None:
            kwargs["plan"] = plan
            print(f"tuned schedule: {plan.key}")
    if args.faults is not None:
        from repro.faults import FaultPlan

        kwargs["faults"] = FaultPlan.from_file(args.faults)
    if args.send_timeout is not None or args.retries:
        from repro.faults import DeliveryPolicy

        if args.send_timeout is None and args.retries > 0:
            raise ReproError("--retries needs --send-timeout to arm the timer")
        kwargs["delivery"] = DeliveryPolicy(timeout=args.send_timeout, retries=args.retries)
    accepted = inspect.signature(runner).parameters
    if "root" in accepted:
        kwargs["root"] = root_spec
    if "workload" in accepted:
        kwargs["workload"] = (
            WorkloadPolicy.EQUAL if args.workload == "equal" else WorkloadPolicy.BALANCED
        )
    observation = current_observation()
    if args.gantt and (observation is None or not observation.tracer.enabled):
        with observe(spans=True):  # private: the chart needs the spans
            outcome = runner(topology, args.n, **kwargs)
    else:
        outcome = runner(topology, args.n, **kwargs)
    if observation is not None:
        observation.record_run(collect_run_obs(outcome))
    print(f"{outcome.name} on {args.preset}")
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
    if args.gantt:
        print()
        runtime = outcome.runtime
        spans = runtime.obs_tracer.filter(group=runtime.obs_group)
        print(gantt(spans, actors=[m.name for m in runtime.topology.machines]))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.tuning.tuner import tune
    from repro.util.units import format_time

    if args.collective not in ("gather", "broadcast"):
        raise ReproError(
            f"tune supports gather/broadcast, got {args.collective!r}"
        )
    topology = build_any(args.preset)
    decision = tune(
        topology, args.collective, args.n, root=_root_spec(args.root), force=args.force
    )
    print(f"{args.collective}(n={args.n}) on {args.preset} -> {decision.plan.key}")
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


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.perf import DiskCache, default_cache_dir
    from repro.util.units import format_bytes

    store = DiskCache(default_cache_dir())
    if args.cache_action == "stats":
        stats = store.stats()
        print(f"cache at {store.root}")
        print(f"  current ({stats.version}): {stats.entries} entries, "
              f"{format_bytes(stats.bytes)}")
        if stats.stale_versions:
            print(f"  stale: {format_bytes(stats.stale_bytes)} in "
                  f"{', '.join(stats.stale_versions)}")
        else:
            print("  stale: none")
        return 0
    if args.cache_action == "prune":
        removed, freed = store.prune(0 if args.max_bytes is None else args.max_bytes)
        print(f"removed {removed} item(s), freed {format_bytes(freed)}")
        return 0
    # clear
    entries = len(store)
    store.wipe()
    print(f"cleared ({entries} entries)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.perf import effective_jobs, sweep
    from repro.serve import ServiceConfig, default_config, run_service

    if args.config is not None:
        config = ServiceConfig.from_file(args.config)
    else:
        config = default_config()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.duration is not None:
        config = dataclasses.replace(config, duration=args.duration)
    if args.rate is not None:
        config = dataclasses.replace(
            config, arrival=dataclasses.replace(config.arrival, rate=args.rate)
        )
    plan = None
    if args.dynamics is not None:
        from repro.dynamics import DynamicPlan

        plan = DynamicPlan.from_file(args.dynamics)
    with sweep(jobs=effective_jobs(args.jobs), cache_dir=args.cache_dir):
        report = run_service(config, dynamics=plan)
    print(report.render())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.runner import EXPERIMENTS, check_experiment, run_experiment
    from repro.perf import default_cache_dir, effective_jobs, sweep

    wanted = list(EXPERIMENTS) if args.ids in ([], ["all"]) else args.ids
    # Check every id first: a typo must not surface after a long sweep.
    ids = [check_experiment(i, seed=args.seed, schedule=args.schedule) for i in wanted]
    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    # One executor for the whole invocation (even serially): experiments
    # sharing grid points simulate them once.
    with sweep(jobs=effective_jobs(args.jobs), cache_dir=cache_dir):
        for experiment_id in ids:
            report = run_experiment(experiment_id, seed=args.seed, schedule=args.schedule)
            print(report.render(plot=args.plot))
            print()
    return 0


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


def _cmd_topology_generate(args: argparse.Namespace) -> int:
    from repro.cluster.discover.matrix import synthesize

    topology = build_any(args.spec)
    print(f"generated {args.spec!r}")
    print(_topology_summary(topology))
    if args.out:
        from pathlib import Path

        from repro.cluster.serialization import dumps

        params = None
        if args.params:
            from repro.model import calibrate

            params = calibrate(topology)
        Path(args.out).write_text(dumps(topology, params=params) + "\n")
        print(f"wrote topology JSON to {args.out}")
    if args.matrix_out:
        matrix = synthesize(topology, noise=args.noise, seed=args.seed)
        matrix.save(args.matrix_out)
        print(f"wrote probe matrix ({matrix!r}) to {args.matrix_out}")
    return 0


def _cmd_topology_discover(args: argparse.Namespace) -> int:
    from repro.cluster.discover import (
        ProbeMatrix,
        discover,
        exact_recovery,
        hierarchy_distance,
        synthesize,
        topology_partitions,
    )

    if (args.matrix is None) == (args.spec is None):
        raise ReproError("topology discover needs exactly one of --matrix / --spec")
    truth = None
    if args.matrix is not None:
        matrix = ProbeMatrix.load(args.matrix)
    else:
        topology = build_any(t.cast(str, args.spec))
        truth = topology_partitions(topology)
        matrix = synthesize(topology, noise=args.noise, seed=args.seed)
    result = discover(matrix, rel_tol=args.rel_tol)
    print(result.describe())
    if truth is not None:
        score = 1.0 - hierarchy_distance(truth, result.partitions)
        exact = exact_recovery(truth, result.partitions)
        print(f"recovery vs truth: score {score:.4f}, exact {exact}")
    if args.out:
        from pathlib import Path

        from repro.cluster.serialization import dumps

        Path(args.out).write_text(dumps(result.topology, params=result.params) + "\n")
        print(f"wrote recovered topology JSON to {args.out}")
    return 0


def _cmd_topology_inspect(args: argparse.Namespace) -> int:
    from repro.cluster.discover import ProbeMatrix
    from repro.errors import TopologyError
    from repro.util.codec import read_json

    if args.file.endswith(".npz"):
        matrix = ProbeMatrix.load(args.file)
    else:
        data = read_json(args.file, error=TopologyError, what="topology or probe-matrix file")
        schema = data.get("schema") if isinstance(data, dict) else None
        if isinstance(schema, str) and schema.startswith("repro.cluster/"):
            from repro.cluster.serialization import params_from_dict, topology_from_dict

            topology = topology_from_dict(data)
            print(f"topology file ({schema})")
            print(_topology_summary(topology))
            if "params" in data:
                print(params_from_dict(data["params"]).describe())
            return 0
        matrix = ProbeMatrix.from_dict(data)
    print(f"probe matrix: {matrix!r}")
    import numpy as np

    off_diagonal = matrix.latency[~np.eye(matrix.p, dtype=bool)]
    if off_diagonal.size:
        print(
            f"latency range: [{off_diagonal.min():.3g}, {off_diagonal.max():.3g}] s"
        )
    return 0


def main(argv: t.Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    from repro import __version__
    from repro.obs.observe import add_obs_flags, observe_to

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="HBSP^k reproduction: simulate heterogeneous collectives.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    list_parser = sub.add_parser("list", help="list presets, collectives, experiments")
    list_parser.set_defaults(handler=_cmd_list)
    for name, handler in (("describe", _cmd_describe), ("probe", _cmd_probe)):
        command = sub.add_parser(name, help=f"{name} a preset machine")
        command.add_argument("preset")
        command.set_defaults(handler=handler)
    calibrate_parser = sub.add_parser(
        "calibrate",
        help="derive HBSP^k parameters from specs, or fit them from traces",
    )
    calibrate_parser.add_argument("preset")
    calibrate_parser.set_defaults(handler=_cmd_calibrate)
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
    run_parser.set_defaults(handler=_cmd_run)
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
    add_obs_flags(run_parser)
    tune_parser = sub.add_parser(
        "tune", help="auto-tune a collective schedule for a machine"
    )
    tune_parser.add_argument("collective", help="gather | broadcast")
    tune_parser.set_defaults(handler=_cmd_tune)
    tune_parser.add_argument("preset",
                             help="preset name or generator spec "
                             '"family:key=value,..."')
    tune_parser.add_argument("--n", type=int, default=25_600,
                             help="problem size in items (default 25600)")
    tune_parser.add_argument("--root", default="fastest",
                             help="fastest | slowest | explicit pid")
    tune_parser.add_argument("--force", action="store_true",
                             help="re-tune even if a cached decision exists")
    cache_parser = sub.add_parser(
        "cache", help="inspect or reclaim the persistent caches"
    )
    cache_parser.set_defaults(handler=_cmd_cache)
    cache_parser.add_argument("cache_action",
                              choices=["stats", "prune", "clear"],
                              help="stats: entries and bytes, current version "
                              "vs stale ones; prune: drop stale versions then "
                              "oldest entries; clear: wipe every version")
    cache_parser.add_argument("--max-bytes", type=int, default=None,
                              help="prune target size: keep at most this many "
                              "bytes of entries (default 0 = keep nothing)")
    experiment_parser = sub.add_parser(
        "experiment", help="regenerate paper artifacts (all of them by default)"
    )
    experiment_parser.set_defaults(handler=_cmd_experiment)
    experiment_parser.add_argument("ids", nargs="*", metavar="ID",
                                   help="experiment id(s) or 'all' (the default)")
    experiment_parser.add_argument("--plot", action="store_true",
                                   help="render as an ASCII line plot")
    experiment_parser.add_argument("--seed", type=int, default=None,
                                   help="override the experiment seed")
    experiment_parser.add_argument("--jobs", type=int, default=1,
                                   help="worker processes for the simulation "
                                   "sweep (output is bit-identical)")
    experiment_parser.add_argument("--cache-dir", default=None,
                                   help="persistent cache of simulation results "
                                   "and tuning decisions (default: "
                                   "$REPRO_CACHE_DIR or ~/.cache/repro/sweeps)")
    experiment_parser.add_argument("--no-cache", action="store_true",
                                   help="persist nothing, tuning decisions "
                                   "included")
    experiment_parser.add_argument("--schedule", default=None,
                                   choices=["default", "tuned"],
                                   help="collective schedule for experiments "
                                   "that support it (fig3a, fig4a)")
    add_obs_flags(experiment_parser)

    serve_parser = sub.add_parser(
        "serve", help="play one open-loop serving session"
    )
    serve_parser.set_defaults(handler=_cmd_serve)
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
                              help="persist kernel-cost results and tuning "
                              "decisions under this directory and reuse them "
                              "across sessions")
    serve_parser.add_argument("--dynamics", metavar="PLAN.json", default=None,
                              help="play the session against a churn plan: "
                              "machine_join / machine_leave events (see "
                              "docs/faults.md)")
    add_obs_flags(serve_parser)

    topology_parser = sub.add_parser(
        "topology", help="generate, discover, and inspect cluster hierarchies"
    )
    topology_sub = topology_parser.add_subparsers(
        dest="topology_command", required=True
    )
    generate_parser = topology_sub.add_parser(
        "generate", help="build a generated (or preset) topology"
    )
    generate_parser.set_defaults(handler=_cmd_topology_generate)
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
    discover_parser.set_defaults(handler=_cmd_topology_discover)
    discover_parser.add_argument("--matrix", metavar="FILE", default=None,
                                 help="probe matrix file (.json or .npz)")
    discover_parser.add_argument("--spec", default=None,
                                 help="synthesize the matrix from this "
                                 "generator/preset spec instead (round-trip "
                                 "demo: scores recovery against the truth)")
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
    inspect_parser.set_defaults(handler=_cmd_topology_inspect)

    # Commands without the observability flags observe nothing.
    parser.set_defaults(trace_out=None, metrics_out=None, obs_summary=False, runs_out=None)
    args = parser.parse_args(argv)
    try:
        with observe_to(args.trace_out, args.metrics_out, args.obs_summary, args.runs_out):
            code = args.handler(args)
            if args.obs_summary:
                print()
        return code
    except ReproError as error:
        parser.exit(2, f"error: {error}\n")
