"""What the benchmark measures: workloads, metrics, units, bounds.

The single source for ``BENCHMARK.json`` (``python bench/run.py
--write-benchmark-json`` regenerates it), for ``bench/compare.py``'s
bounds and for the schema test.  Names are permanent: a metric or a
workload is added by a ``benchmark`` issue of its own, never renamed.

*Simulated* numbers are what the modelled cluster would take — they
are deterministic and must not move under a performance or simplicity
change.  *Host* numbers are what this process takes.
"""

from __future__ import annotations

import typing as t

__all__ = [
    "COMMAND",
    "RUN_SECONDS",
    "WORKLOADS",
    "END_TO_END",
    "DRIVER_END_TO_END",
    "PER_LAYER",
    "EXPERIMENT_IDS",
    "benchmark_json",
]

COMMAND = ["python3", "bench/run.py"]

#: Timed window of one run (``--seconds``): as many rounds as come nearest to it.
RUN_SECONDS = 12

#: name -> why this workload exists (one line, <= 200 characters).
WORKLOADS: dict[str, str] = {
    "sweep_cold": (
        "all 17 experiments into an empty cache: ~890 small DES runs, so per-run fixed cost "
        "(topology, calibrate, make_runtime, hashing, cache writes) dominates and per-event cost does not"
    ),
    "sweep_warm": (
        "the same 17 experiments over a populated disk cache: DiskCache.get, content_hash, RunObs "
        "rebuild and rendering do the work, the DES almost none (reads beside sweep_cold's writes)"
    ),
    "des_object_1k": (
        "event-by-event engine path at 1k leaves (faults, delivery policy, spans force it): engine "
        "heap, pvm send/drain and hbsplib sync do the work, model and perf none"
    ),
    "macro_scale": (
        "the same collectives on the auto-selected macro path at 1k and 10k leaves: macro replay, "
        "hbsplib set-up and calibrate dominate, the event heap is nearly idle"
    ),
    "tune_cold": (
        "tune() cold on three scenarios then 60 warm lookups: enumerate, one kernel pass, DES-validate "
        "the shortlist; the only workload where validated count, plan branches and decision cache matter"
    ),
    "model_pricing": (
        "the analytic model alone, no DES: scalar single-call latency beside vectorised grid "
        "throughput, planner and rank_plans at 1k/10k leaves, calibrate and kernel compile"
    ),
    "serve_session": (
        "run_service below, at and past the knee, one churned and one cold session: serve loop, "
        "admission, batching, placement and dynamics epochs work; DES kernels are prewarmed away"
    ),
}

EXPERIMENT_IDS: tuple[str, ...] = (
    "table1", "fig3a", "fig3b", "fig4a", "fig4b", "sec4-bcast-phases",
    "sec4-gather-hierarchy", "model-vs-sim", "ablations", "scaling", "bsp-vs-hbsp",
    "sensitivity", "robustness", "discovery", "tuning", "serve", "dynamics",
)


class Metric(t.NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None  # share of the parent's value it may worsen by; None = no bound
    what: str
    #: end-to-end: the workloads it applies to; per-layer: what it should move.
    where: str


_ALL = "all"

#: The nine end-to-end metrics ``bench/run.py`` prints and
#: ``bench/compare.py`` bounds.  A metric that does not apply to a
#: workload is omitted there, not reported as 0.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           "host: imports + input generation + cache population + one warm-up round", _ALL),
    Metric("op_s_p50", "s", "lower", 0.25,
           "host seconds per round (inside the ops' calls): each op's low median over the timed "
           "rounds, summed", _ALL),
    Metric("work_per_s", "1/s", "higher", 0.25,
           "the workload's work units per round / host seconds of the fastest round seen, built op "
           "by op (each op's fastest call over the timed rounds, summed)", _ALL),
    Metric("peak_rss_mb", "MB", "lower", 0.25,
           "ru_maxrss of the workload's subprocess", _ALL),
    Metric("failed_frac", "ratio", "lower", 0.0,
           "ops failed / ops attempted (raised, digest != pin, or self-consistency)", _ALL),
    Metric("model_vs_sim_err_max", "ratio", "lower", 0.0,
           "simulated: max |sim - predicted| / predicted over the fault-free collectives",
           "des_object_1k macro_scale"),
    Metric("sim_tuned_over_default", "ratio", "lower", 0.0,
           "simulated: min tuned / default makespan over the scenarios", "tune_cold"),
    Metric("sim_p99_s", "s", "lower", 0.0,
           "simulated p99 latency of the static 24 req/s session", "serve_session"),
    Metric("sim_goodput_rps", "1/s", "higher", 0.0,
           "simulated goodput of the static 24 req/s session", "serve_session"),
)

#: The subset the driver's contract can carry as ``end_to_end``: host
#: metrics that every workload has and that are never 0.  ``failed_frac``
#: travels as the result line's ``failed``/``attempted``; the four
#: simulated metrics are seed-dependent and workload-specific, so the
#: driver sees them in the per-layer list (checked exactly by the pins).
#: Of the two round timings the driver holds ``work_per_s``: one client
#: in a closed loop makes the two reciprocal, and the fastest-call
#: reading is the one that stays put while a neighbour loads the host
#: (``op_s_p50`` spread 3-6 times wider under a synthetic bursty load).
DRIVER_END_TO_END: tuple[str, ...] = ("setup_s", "work_per_s", "peak_rss_mb")


def _layer(name: str, unit: str, better: str, what: str, moves: str) -> Metric:
    return Metric(name, unit, better, None, what, moves)


_DES = "op_s_p50@des_object_1k"
_MACRO = "op_s_p50@macro_scale"
_MODEL = "op_s_p50@model_pricing"
_TUNE = "op_s_p50@tune_cold"
_SERVE = "op_s_p50@serve_session"
_COLD = "op_s_p50@sweep_cold"
_WARM = "op_s_p50@sweep_warm"

#: Per-layer metrics (layer = module name).  Counts are per round and
#: repeat bit for bit; times are host seconds per traced round.
PER_LAYER: tuple[Metric, ...] = (
    # sim
    _layer("sim.engine.events", "count", "lower", "events the engines processed", _DES),
    _layer("sim.engine.events_per_s", "1/s", "higher", "events / time inside Engine.run", _DES),
    _layer("sim.engine.run_s", "s", "lower", "time inside Engine.run/run_until", _DES),
    _layer("sim.engine.probe_timeout_events_per_s", "1/s", "higher",
           "pure engine: 40 000 chained timeouts", _DES),
    _layer("sim.engine.probe_store_events_per_s", "1/s", "higher",
           "pure engine: 10 producer/consumer pairs x 800", _DES),
    _layer("sim.engine.probe_resource_events_per_s", "1/s", "higher",
           "pure engine: 20 processes x 400 holds of one resource", _DES),
    _layer("sim.macro.engaged_frac", "ratio", "higher",
           "runs on the macro path / fault-free untraced runs (1.0 wherever it is not forced off)",
           f"{_MACRO} {_TUNE}"),
    _layer("sim.macro.boundary_events", "count", "lower", "engine events of the macro-path runs",
           f"{_MACRO} {_TUNE}"),
    _layer("sim.macro.speedup_bcast_1k_fat_tree", "ratio", "higher",
           "object s / macro s, base = macro", _MACRO),
    _layer("sim.macro.speedup_gather_1k_fat_tree", "ratio", "higher",
           "object s / macro s, base = macro", _MACRO),
    _layer("sim.macro.speedup_gather_1k_multi_rack", "ratio", "higher",
           "object s / macro s, base = macro", _MACRO),
    # pvm
    _layer("pvm.messages", "count", "lower", "simulated messages sent (vm.metrics)", _DES),
    _layer("pvm.bytes", "count", "lower", "simulated bytes sent (vm.metrics)", _DES),
    _layer("pvm.msgs_per_s", "1/s", "higher", "messages / time inside HbspRuntime.run", _DES),
    _layer("pvm.probe_pingpong_msgs_per_s", "1/s", "higher",
           "two spawned tasks, 20 000 send/recv through the public Task API", _DES),
    _layer("pvm.send_retries", "count", "lower", "retransmissions of the faulted ops", _DES),
    _layer("pvm.send_timeouts", "count", "lower", "send timeouts of the faulted ops", _DES),
    _layer("pvm.sends_failed", "count", "lower", "sends that exhausted their retries", _DES),
    # hbsplib
    _layer("hbsplib.supersteps", "count", "lower", "supersteps over the round's runs", _DES),
    _layer("hbsplib.make_runtime_s", "s", "lower",
           "make_runtime self time: tree, VM, barriers (calibrate excluded)", f"{_MACRO} {_COLD}"),
    _layer("hbsplib.run_self_s", "s", "lower", "HbspRuntime.run minus Engine.run", f"{_MACRO} {_DES}"),
    _layer("hbsplib.probe_syncs_per_s", "1/s", "higher",
           "1 024 processes x 50 empty supersteps", _DES),
    # collectives
    _layer("collectives.gather_self_s", "s", "lower",
           "run_gather minus make_runtime, HbspRuntime.run, predict", _MACRO),
    _layer("collectives.broadcast_self_s", "s", "lower",
           "run_broadcast minus make_runtime, HbspRuntime.run, predict", _MACRO),
    _layer("collectives.plan_runs", "count", "lower", "runs with a non-default plan=", _TUNE),
    # faults
    _layer("faults.straggler_over_clean", "ratio", "lower",
           "faulted / clean object-path time of the same two ops, base = clean", _DES),
    _layer("faults.dropped", "count", "lower", "messages the injector dropped", _DES),
    _layer("faults.delayed", "count", "lower", "messages the injector delayed", _DES),
    # obs
    _layer("obs.spans_over_off", "ratio", "lower",
           "spans-on / object-path-off time of the same broadcast (ROADMAP target <= 1.3)", _DES),
    _layer("obs.spans_recorded", "count", "lower", "spans that broadcast recorded", _DES),
    _layer("obs.metrics_over_off", "ratio", "lower",
           "observe() / off time of one macro-path broadcast", _MACRO),
    # model
    _layer("model.predict_call_us_p50", "us", "lower",
           "single predict_gather/predict_broadcast call at p = 10, median of 5 120", f"{_MODEL} {_TUNE}"),
    _layer("model.predict_call_us_p99", "us", "lower", "same calls, p99", f"{_MODEL} {_TUNE}"),
    _layer("model.predict_1k_call_ms", "ms", "lower",
           "single scalar predict_* call at 1k leaves, median of 25", f"{_MODEL} {_TUNE}"),
    _layer("model.kernel_points_per_s", "1/s", "higher",
           "grid points / kernel evaluate time", "work_per_s@model_pricing"),
    _layer("model.kernel_compile_1k_s", "s", "lower", "Gather+BroadcastKernel.__init__ at 1k leaves",
           "work_per_s@model_pricing"),
    _layer("model.kernel_compile_10k_s", "s", "lower", "same at 10k leaves", "work_per_s@model_pricing"),
    _layer("model.kernel_over_scalar_gather", "ratio", "higher",
           "scalar s / kernel s on one grid, base = kernel", "work_per_s@model_pricing"),
    _layer("model.kernel_over_scalar_broadcast", "ratio", "higher",
           "scalar s / kernel s on one grid, base = kernel", "work_per_s@model_pricing"),
    _layer("model.rank_plans_1k_s", "s", "lower", "rank_plans over 64 + 125 plans at 1k leaves",
           f"{_MODEL} {_TUNE}"),
    _layer("model.rank_plans_10k_s", "s", "lower", "rank_plans over 125 plans at 10k leaves", _MODEL),
    _layer("model.plans_priced", "count", "lower", "plans handed to rank_plans", f"{_MODEL} {_TUNE}"),
    _layer("model.calibrate_1k_s", "s", "lower", "calibrate at 1k leaves", f"{_MACRO} {_MODEL}"),
    _layer("model.calibrate_10k_s", "s", "lower", "calibrate at 10k leaves", f"{_MACRO} {_MODEL}"),
    _layer("model.best_root_1k_s", "s", "lower", "best_root over 1k candidate roots", _MODEL),
    # perf
    _layer("perf.jobs_submitted", "count", "lower", "SimJobs handed to evaluate", "work_per_s@sweep_cold"),
    _layer("perf.jobs_computed", "count", "lower", "SimJobs actually simulated", "work_per_s@sweep_cold"),
    _layer("perf.memo_hits", "count", "higher", "lookups the executor memo answered", "work_per_s@sweep_cold"),
    _layer("perf.disk_hits", "count", "higher", "lookups the disk cache answered", "work_per_s@sweep_warm"),
    _layer("perf.hit_ratio", "ratio", "higher", "(memo + disk hits) / submitted", "work_per_s@sweep_warm"),
    _layer("perf.hash_s", "s", "lower", "time inside SimJob.content_hash", _COLD),
    _layer("perf.evaluate_self_s", "s", "lower",
           "SweepExecutor.evaluate minus SimJob.run, hashing and disk", _COLD),
    _layer("perf.disk_get_s", "s", "lower", "time inside DiskCache.get", _WARM),
    _layer("perf.disk_put_s", "s", "lower", "time inside DiskCache.put", _COLD),
    _layer("perf.disk_bytes", "count", "lower", "bytes one round leaves in the cache", _COLD),
    _layer("perf.cache_populate_s", "s", "lower", "the cold pass that fills sweep_warm's cache",
           "setup_s@sweep_warm"),
    _layer("perf.warm_over_cold", "ratio", "lower",
           "warm round / populating cold pass, base = cold (0.10 -> 0.25 in the legacy record)", _WARM),
    # experiments
    *(
        _layer(f"experiments.{eid}_s", "s", "lower", f"run_experiment({eid!r}) + render", _COLD)
        for eid in EXPERIMENT_IDS
    ),
    _layer("experiments.render_s", "s", "lower", "time inside ExperimentReport.render", f"{_COLD} {_WARM}"),
    # tuning
    _layer("tuning.candidates", "count", "lower", "plans enumerated over the scenarios", _TUNE),
    _layer("tuning.validated", "count", "lower", "plans DES-validated over the scenarios", _TUNE),
    _layer("tuning.default_confirmed_frac", "ratio", "lower",
           "scenarios whose winner is the default plan / scenarios: the wasted-validation ratio", _TUNE),
    _layer("tuning.rank_s", "s", "lower", "time inside rank_plans", _TUNE),
    _layer("tuning.validate_s", "s", "lower", "time inside the run_* calls under tune", _TUNE),
    _layer("tuning.cache_put_s", "s", "lower", "time inside DecisionCache.put", _TUNE),
    _layer("tuning.warm_lookup_ms", "ms", "lower", "one warm tune() through a fresh DecisionCache, median", _TUNE),
    _layer("tuning.cold_over_warm", "ratio", "higher", "mean cold tune / warm lookup, base = warm", _TUNE),
    # cluster
    _layer("cluster.generate_1k_s", "s", "lower", "fat_tree(4,16,16)", "setup_s@macro_scale"),
    _layer("cluster.generate_10k_s", "s", "lower", "fat_tree(25,25,16)", "setup_s@macro_scale"),
    _layer("cluster.topology_hash_1k_s", "s", "lower", "topology_hash at 1k leaves", _TUNE),
    _layer("cluster.synthesize_1k_s", "s", "lower", "synthesize at 1k leaves", "none yet"),
    _layer("cluster.discover_1k_s", "s", "lower", "discover at 1k leaves", "none yet"),
    _layer("cluster.discover_exact", "ratio", "higher", "1 when discovery recovers the hierarchy exactly",
           "none yet"),
    # serve
    _layer("serve.prewarm_s", "s", "lower", "StageCostModel.prewarm of the static universe",
           "setup_s@serve_session"),
    _layer("serve.universe_jobs", "count", "lower", "stage keys in that universe", "setup_s@serve_session"),
    _layer("serve.overhead_over_raw", "ratio", "lower",
           "cold session / raw evaluate() of the same universe - 1", _SERVE),
    _layer("serve.loop_s", "s", "lower", "run_service self time + its own engine's run (prewarm, arrivals excluded)", _SERVE),
    _layer("serve.sim_requests_per_s", "1/s", "higher", "simulated requests offered / run_service time",
           "work_per_s@serve_session"),
    _layer("serve.offered", "count", "lower", "requests offered over the sessions", "work_per_s@serve_session"),
    _layer("serve.completed", "count", "higher", "requests completed", "work_per_s@serve_session"),
    _layer("serve.shed", "count", "lower", "requests shed", "work_per_s@serve_session"),
    _layer("serve.batches", "count", "lower", "batches dispatched", "work_per_s@serve_session"),
    _layer("serve.batch_size_mean", "ratio", "higher", "completed / batches", "work_per_s@serve_session"),
    _layer("serve.queue_depth_max", "count", "lower", "deepest queue over the sessions",
           "work_per_s@serve_session"),
    _layer("serve.arrivals_gen_s", "s", "lower", "time inside generate_arrivals", "work_per_s@serve_session"),
    # dynamics
    _layer("dynamics.epochs", "count", "lower", "membership epochs of the churned session", _SERVE),
    _layer("dynamics.redispatched", "count", "lower", "batches re-dispatched", _SERVE),
    _layer("dynamics.degraded", "count", "lower", "requests served degraded", _SERVE),
    _layer("dynamics.churn_over_static", "ratio", "lower",
           "churned / static 24 req/s session, base = static", _SERVE),
    _layer("dynamics.plan_build_s", "s", "lower", "churn_plan + epoch/slice expansion",
           "setup_s@serve_session"),
    # cli
    _layer("cli.import_s", "s", "lower", "python -c 'import repro', median of 5 subprocesses", "setup_s@all"),
    _layer("cli.version_s", "s", "lower", "python -m repro --version, median of 5", "setup_s@all"),
    # harness
    _layer("harness.samples", "count", "higher", "traced rounds behind the per-layer numbers", "-"),
    _layer("harness.op_s_min", "s", "lower", "fastest untraced round of the traced pass", "-"),
    _layer("harness.op_s_max", "s", "lower", "slowest untraced round of the traced pass", "-"),
    _layer("harness.trace_overhead", "ratio", "lower", "traced round / untraced round - 1, medians", "-"),
    _layer("harness.cpu_count", "count", "higher", "os.cpu_count()", "-"),
    _layer("harness.loadavg_start", "ratio", "lower", "1-minute load average when the pass began", "-"),
    # simulated end-to-end metrics, as the driver's contract carries them
    *(
        _layer(m.name, m.unit, m.better, m.what, f"exact; end-to-end on {m.where}")
        for m in END_TO_END
        if m.name.startswith(("model_vs_sim", "sim_"))
    ),
)


def benchmark_json() -> dict[str, t.Any]:
    """``BENCHMARK.json`` in exactly the shape the driver's contract fixes."""
    by_name = {m.name: m for m in END_TO_END}
    return {
        "command": COMMAND,
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in (by_name[name] for name in DRIVER_END_TO_END)
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
