"""The seven workloads.

Load shape, all of them: closed loop, one client, one process,
``jobs=1``, no pools and no threads — every caller here (CLI user,
tuner, planner, experiment harness) waits for its reply, and on a
2-core shared host a process pool would measure the scheduler.  The
serve workload's *simulated* arrivals are open-loop inside the
simulation; host-side it is still one caller.

``--seed`` drives every experiment seed, collective item seed, fault
seed, tuning seed, pricing grid and serve/churn seed; the program only
ever receives the generated inputs.  The big generated machines are
the one exception (:data:`TOPOLOGY_SEED`).  Work units are fixed by those inputs, never by how the implementation
does the work (messages, not engine events; decisions, not plans
validated).
"""

from __future__ import annotations

import inspect
import os
import shutil
import statistics
import tempfile
import typing as t

import numpy as np

from bench import probes
from bench.harness import Observed, Recorder, Workload, collective_observed, digest
from bench.layers import LayerContext

__all__ = ["SIZES", "TOPOLOGY_SEED", "WORKLOAD_CLASSES"]

#: Generator seed of the 10^2-10^4-leaf machines, the same at every
#: ``--seed``.  Host cost depends on the machine drawn — the 10^4-leaf
#: gather takes 1.8 s when the fastest leaf is pid 840 and 3.2 s when it
#: is pid 9869 — and runs at different seeds must be comparable: the
#: driver takes the spread across seeds as the benchmark's noise.
TOPOLOGY_SEED = 0

#: Problem sizes per profile.  "full" is what the numbers are quoted
#: at; "smoke" is the harness self-test (128-leaf machines, 200 s
#: sessions) and shares every code path.
SIZES: dict[str, dict[str, t.Any]] = {
    "full": {
        "fat_tree": (4, 16, 16),  # 1 024 leaves, three levels
        "multi_rack": (8, 128),  # 1 024 leaves, 128-wide racks
        "fat_tree_big": (25, 25, 16),  # 10 000 leaves
        "multi_rack_small": (8, 16),
        "n": 20_000,
        "n_big": 50_000,
        "n_small": 500,
        "grid_copies": 64,  # x 4 sizes x 10 roots = 2 560 points
        "warm_lookups": 20,
        "serve_duration": 1000.0,
        "serve_cold_duration": 20.0,
    },
    "smoke": {
        "fat_tree": (2, 8, 8),
        "multi_rack": (4, 32),
        "fat_tree_big": (4, 8, 8),
        "multi_rack_small": (4, 8),
        "n": 5_000,
        "n_big": 5_000,
        "n_small": 500,
        "grid_copies": 4,
        "warm_lookups": 5,
        "serve_duration": 200.0,
        "serve_cold_duration": 20.0,
    },
}


def _text_observed(text: str) -> Observed:
    return Observed(digest=digest(text), work=1)


# -- sweep_cold / sweep_warm ----------------------------------------------------
class _Sweep(Workload):
    """All registered experiments inside one ``sweep(jobs=1, cache_dir=...)``."""

    work_unit = "experiments regenerated"

    def setup(self) -> None:
        from repro.experiments import EXPERIMENTS

        #: experiment id -> the seed keyword it takes, if it takes one.
        self.experiments = {
            eid: {"seed": self.seed}
            if "seed" in inspect.signature(factory).parameters
            else {}
            for eid, factory in EXPERIMENTS.items()
        }

    def _pass(self, cache_dir: str, each: t.Callable[[str, t.Callable[[], str]], None]) -> t.Any:
        from repro.experiments import run_experiment
        from repro.perf import sweep

        with sweep(jobs=1, cache_dir=cache_dir) as executor:
            for eid, kwargs in self.experiments.items():
                each(eid, lambda: run_experiment(eid, **kwargs).render())
        return executor

    def _note_executor(self, rec: Recorder, executor: t.Any) -> None:
        rec.note_impl("executor", {
            "jobs_computed": executor.cache_misses,
            "memo_hits": executor.cache_hits,
            "disk_hits": executor.disk_hits,
        })


class SweepCold(_Sweep):
    name = "sweep_cold"

    def round(self, rec: Recorder) -> None:
        cache_dir = tempfile.mkdtemp(prefix="sweep-", dir=self.scratch)
        executor = self._pass(cache_dir, lambda eid, call: rec.op(eid, call, _text_observed))
        self._note_executor(rec, executor)
        self.disk_bytes = sum(
            os.path.getsize(os.path.join(folder, name))
            for folder, _, names in os.walk(cache_dir)
            for name in names
        )
        shutil.rmtree(cache_dir)

    def layer_metrics(self, ctx: LayerContext) -> dict[str, float]:
        return {
            "perf.disk_bytes": self.disk_bytes,
            "cli.import_s": probes.cli_seconds(["-c", "import repro"]),
            "cli.version_s": probes.cli_seconds(["-m", "repro", "--version"]),
        }


class SweepWarm(_Sweep):
    name = "sweep_warm"

    def setup(self) -> None:
        super().setup()
        self.cache_dir = tempfile.mkdtemp(prefix="sweep-", dir=self.scratch)
        self.cold_text: dict[str, str] = {}

        def keep(eid: str, call: t.Callable[[], str]) -> None:
            self.cold_text[eid] = call()

        self.populate_s, _ = probes.timed(lambda: self._pass(self.cache_dir, keep))

    def round(self, rec: Recorder) -> None:
        def warm(text: str, eid: str) -> Observed:
            seen = _text_observed(text)
            if text != self.cold_text[eid]:
                seen.problems.append("warm render differs from the cold render")
            return seen

        executor = self._pass(
            self.cache_dir,
            lambda eid, call: rec.op(eid, call, lambda text: warm(text, eid)),
        )
        self._note_executor(rec, executor)

    def layer_metrics(self, ctx: LayerContext) -> dict[str, float]:
        return {
            "perf.cache_populate_s": self.populate_s,
            "perf.warm_over_cold": ctx.untraced_p50 / self.populate_s,
        }


# -- des_object_1k / macro_scale ------------------------------------------------
class _Collectives(Workload):
    def setup(self) -> None:
        from repro.cluster.discover.generators import fat_tree, multi_rack

        self.ft = fat_tree(*self.sizes["fat_tree"], seed=TOPOLOGY_SEED)
        self.mr = multi_rack(*self.sizes["multi_rack"], seed=TOPOLOGY_SEED)
        self.n = self.sizes["n"]

    def _run(self, collective: str, topology: t.Any, n: int | None = None, **kwargs: t.Any) -> t.Any:
        from repro.collectives import run_broadcast, run_gather

        run = run_broadcast if collective == "broadcast" else run_gather
        return run(topology, self.n if n is None else n, seed=self.seed, **kwargs)

    def sim_metrics(self, rec: Recorder) -> dict[str, float]:
        return {"model_vs_sim_err_max": max(rec.sim_values("model_err"))}


class DesObject1k(_Collectives):
    name = "des_object_1k"
    work_unit = "simulated messages delivered"

    #: object-path op -> (collective, topology attribute); verify() reruns
    #: these on the macro path and demands the same digest.
    SHARED = {
        "bcast_ft_object": ("broadcast", "ft"),
        "gather_ft_object": ("gather", "ft"),
        "gather_mr_object": ("gather", "mr"),
    }

    def setup(self) -> None:
        from repro.faults import DeliveryPolicy, straggler_plan

        super().setup()
        machines = self.ft.machines
        straggler = machines[(self.seed * 7919) % len(machines)].name
        self.faulted = {
            "faults": straggler_plan(straggler, factor=4.0),
            "delivery": DeliveryPolicy.retry(3, timeout=0.25),
        }

    def round(self, rec: Recorder) -> None:
        from repro.obs import observe

        def messages(outcome: t.Any, fault_free: bool = True) -> Observed:
            seen = collective_observed(outcome, fault_free=fault_free)
            seen.work = seen.counts["messages"]
            return seen

        def with_spans() -> t.Any:
            with observe(spans=True) as observation:
                outcome = self._run("broadcast", self.ft)
            self.spans_recorded = len(observation.tracer)
            return outcome

        rec.op("bcast_ft_object", lambda: self._run("broadcast", self.ft, macro=False), messages)
        rec.op("gather_ft_object", lambda: self._run("gather", self.ft, macro=False), messages)
        rec.op("bcast_ft_straggler", lambda: self._run("broadcast", self.ft, **self.faulted),
               lambda outcome: messages(outcome, fault_free=False))
        rec.op("gather_ft_straggler", lambda: self._run("gather", self.ft, **self.faulted),
               lambda outcome: messages(outcome, fault_free=False))
        rec.op("bcast_ft_spans", with_spans, messages)
        rec.op("gather_mr_object", lambda: self._run("gather", self.mr, macro=False), messages)

    def verify(self, rec: Recorder) -> None:
        for name, (collective, topology) in self.SHARED.items():
            outcome = self._run(collective, getattr(self, topology))
            same = (
                outcome.runtime.macro is not None
                and name in rec.observed
                and collective_observed(outcome).digest == rec.observed[name].digest
            )
            rec.check(f"macro_equals_{name}", same, "macro path differs from the object path")

    def layer_metrics(self, ctx: LayerContext) -> dict[str, float]:
        clean = ctx.op("bcast_ft_object") + ctx.op("gather_ft_object")
        faulted = ctx.op("bcast_ft_straggler") + ctx.op("gather_ft_straggler")
        return {
            "sim.engine.probe_timeout_events_per_s": probes.engine_timeouts(),
            "sim.engine.probe_store_events_per_s": probes.engine_stores(),
            "sim.engine.probe_resource_events_per_s": probes.engine_resources(),
            "pvm.probe_pingpong_msgs_per_s": probes.pingpong(),
            "hbsplib.probe_syncs_per_s": probes.empty_supersteps(self.ft),
            "faults.straggler_over_clean": faulted / clean,
            "obs.spans_over_off": ctx.op("bcast_ft_spans") / ctx.op("bcast_ft_object"),
            "obs.spans_recorded": self.spans_recorded,
        }


class MacroScale(_Collectives):
    name = "macro_scale"
    work_unit = "leaf-supersteps"

    def setup(self) -> None:
        from repro.cluster.discover.generators import fat_tree

        super().setup()
        self.generate_1k_s, _ = probes.timed(
            lambda: fat_tree(*self.sizes["fat_tree"], seed=TOPOLOGY_SEED)
        )
        self.generate_10k_s, self.ft_big = probes.timed(
            lambda: fat_tree(*self.sizes["fat_tree_big"], seed=TOPOLOGY_SEED)
        )

    def round(self, rec: Recorder) -> None:
        def on_macro(outcome: t.Any) -> Observed:
            seen = collective_observed(outcome)
            seen.work = outcome.runtime.nprocs * outcome.supersteps
            if outcome.runtime.macro is None:
                seen.problems.append("the macro path did not engage")
            return seen

        rec.op("bcast_mr_macro", lambda: self._run("broadcast", self.mr), on_macro)
        rec.op("gather_mr_macro", lambda: self._run("gather", self.mr), on_macro)
        rec.op("bcast_ft_macro", lambda: self._run("broadcast", self.ft), on_macro)
        rec.op("gather_ft_macro", lambda: self._run("gather", self.ft), on_macro)
        rec.op(
            "gather_ft10k_macro",
            lambda: self._run("gather", self.ft_big, self.sizes["n_big"]),
            on_macro,
        )

    def layer_metrics(self, ctx: LayerContext) -> dict[str, float]:
        from repro.cluster import topology_hash
        from repro.cluster.discover import (
            discover,
            exact_recovery,
            synthesize,
            topology_partitions,
        )
        from repro.obs import observe

        def observed_broadcast() -> None:
            with observe():
                self._run("broadcast", self.ft)

        object_s = {
            name: probes.timed(lambda: self._run(collective, getattr(self, topology), macro=False))[0]
            for name, (collective, topology) in DesObject1k.SHARED.items()
        }
        hash_s, _ = probes.timed(lambda: topology_hash(self.ft))
        synthesize_s, matrix = probes.timed(lambda: synthesize(self.ft))
        discover_s, found = probes.timed(lambda: discover(matrix))
        exact = exact_recovery(topology_partitions(self.ft), found.partitions)
        return {
            "sim.macro.speedup_bcast_1k_fat_tree": object_s["bcast_ft_object"] / ctx.op("bcast_ft_macro"),
            "sim.macro.speedup_gather_1k_fat_tree": object_s["gather_ft_object"] / ctx.op("gather_ft_macro"),
            "sim.macro.speedup_gather_1k_multi_rack": object_s["gather_mr_object"] / ctx.op("gather_mr_macro"),
            "obs.metrics_over_off": probes.timed(observed_broadcast)[0] / ctx.op("bcast_ft_macro"),
            "cluster.generate_1k_s": self.generate_1k_s,
            "cluster.generate_10k_s": self.generate_10k_s,
            "cluster.topology_hash_1k_s": hash_s,
            "cluster.synthesize_1k_s": synthesize_s,
            "cluster.discover_1k_s": discover_s,
            "cluster.discover_exact": float(exact),
        }


# -- tune_cold --------------------------------------------------------------------
class TuneCold(Workload):
    name = "tune_cold"
    work_unit = "tuning decisions returned"

    def setup(self) -> None:
        from repro.cluster.discover.generators import fat_tree, multi_rack

        sizes = self.sizes
        self.scenarios = (
            ("bcast_small_multi_rack", multi_rack(*sizes["multi_rack_small"], seed=TOPOLOGY_SEED),
             "broadcast", sizes["n_small"]),
            ("bcast_1k_fat_tree", fat_tree(*sizes["fat_tree"], seed=TOPOLOGY_SEED),
             "broadcast", sizes["n"]),
            ("gather_1k_multi_rack", multi_rack(*sizes["multi_rack"], seed=TOPOLOGY_SEED),
             "gather", sizes["n"]),
        )
        self.decisions: dict[str, t.Any] = {}

    def round(self, rec: Recorder) -> None:
        from repro.tuning.cache import DecisionCache
        from repro.tuning.tuner import tune

        cache_dir = tempfile.mkdtemp(prefix="decisions-", dir=self.scratch)

        def decided(decision: t.Any, label: str) -> Observed:
            self.decisions[label] = decision
            problems = []
            if decision.simulated_time > decision.default_time:
                problems.append("tuned plan is slower than the default plan")
            return Observed(
                digest=digest(decision.plan.key, decision.predicted_time,
                              decision.simulated_time, decision.default_time),
                counts={"candidates": decision.candidates},
                impl={"validated": decision.validated},
                work=1,
                sim={"tuned_over_default": decision.simulated_time / decision.default_time},
                problems=problems,
            )

        def recalled(decisions: list[t.Any], label: str) -> Observed:
            problems = []
            if any(decision != self.decisions.get(label) for decision in decisions):
                problems.append("warm lookup differs from the cold decision")
            return Observed(
                digest=digest([d.plan.key for d in decisions]), work=len(decisions),
                problems=problems,
            )

        for label, topology, op, n in self.scenarios:
            rec.op(
                f"tune_{label}",
                lambda: tune(topology, op, n, seed=self.seed,
                             cache=DecisionCache(cache_dir), force=True),
                lambda decision: decided(decision, label),
            )
            rec.op(
                f"warm_{label}",
                lambda: [
                    tune(topology, op, n, seed=self.seed, cache=DecisionCache(cache_dir))
                    for _ in range(self.sizes["warm_lookups"])
                ],
                lambda decisions: recalled(decisions, label),
            )
        shutil.rmtree(cache_dir)

    def sim_metrics(self, rec: Recorder) -> dict[str, float]:
        return {"sim_tuned_over_default": min(rec.sim_values("tuned_over_default"))}

    def layer_metrics(self, ctx: LayerContext) -> dict[str, float]:
        from repro.tuning.plan import default_plan

        decisions = list(self.decisions.values())
        confirmed = sum(d.plan == default_plan(d.op, len(d.plan.levels)) for d in decisions)
        labels = [label for label, *_ in self.scenarios]
        warm_s = statistics.median(
            seconds for label in labels for seconds in ctx.under(f"op:warm_{label}", "tune")
        )
        cold_s = statistics.fmean(ctx.op(f"tune_{label}") for label in labels)
        return {
            "tuning.candidates": sum(d.candidates for d in decisions),
            "tuning.validated": sum(d.validated for d in decisions),
            "tuning.default_confirmed_frac": confirmed / len(decisions),
            "tuning.rank_s": ctx.total("rank_plans"),
            "tuning.validate_s": ctx.total("run_gather", "run_broadcast"),
            "tuning.cache_put_s": ctx.total("DecisionCache.put"),
            "tuning.warm_lookup_ms": warm_s * 1e3,
            "tuning.cold_over_warm": cold_s / warm_s,
        }


# -- model_pricing ----------------------------------------------------------------
class ModelPricing(Workload):
    name = "model_pricing"
    work_unit = "cost points priced"

    def setup(self) -> None:
        from repro.cluster.discover.generators import fat_tree
        from repro.cluster.presets import ucf_testbed
        from repro.model import calibrate
        from repro.tuning.space import enumerate_plans

        self.params = calibrate(ucf_testbed(10))
        # The BENCH_kernels grid, its four sizes jittered by the seed.
        rng = np.random.default_rng(self.seed)
        sizes = [int(n * rng.uniform(0.9, 1.1)) for n in (1_000, 16_000, 128_000, 1_000_000)]
        self.points = [
            (n, root)
            for _ in range(self.sizes["grid_copies"])
            for n in sizes
            for root in range(self.params.p)
        ]
        self.ns = np.array([n for n, _ in self.points], dtype=np.int64)
        self.roots = np.array([root for _, root in self.points], dtype=np.int64)
        self.ft = fat_tree(*self.sizes["fat_tree"], seed=TOPOLOGY_SEED)
        self.ft_big = fat_tree(*self.sizes["fat_tree_big"], seed=TOPOLOGY_SEED)
        self.n = self.sizes["n"]
        self.gather_plans = enumerate_plans("gather", 3)
        self.broadcast_plans = enumerate_plans("broadcast", 3)

    def round(self, rec: Recorder) -> None:
        from repro.model import (
            BroadcastKernel,
            GatherKernel,
            best_broadcast_phases,
            best_root,
            calibrate,
            rank_plans,
        )
        from repro.model.predict import (
            predict_broadcast,
            predict_broadcast_plan,
            predict_gather,
            predict_gather_plan,
        )

        params, points, n = self.params, self.points, self.n

        def totals(values: t.Iterable[float], work: int, same_as: str | None = None) -> Observed:
            seen = Observed(digest=digest([float(v) for v in values]), work=work)
            if same_as and seen.digest != rec.observed[same_as].digest:
                seen.problems.append(f"totals differ from {same_as}")
            return seen

        def ranking(ranked: list[tuple[t.Any, float]]) -> Observed:
            return Observed(
                digest=digest([(plan.key, total) for plan, total in ranked]), work=len(ranked)
            )

        def compiled(model_params: t.Any) -> Observed:
            return Observed(digest=digest(model_params.g, model_params.k, model_params.p))

        def calibrate_and_compile(topology: t.Any) -> t.Any:
            model_params = calibrate(topology)
            GatherKernel(model_params)
            BroadcastKernel(model_params)
            return model_params

        rec.op(
            "scalar_gather_grid",
            lambda: [predict_gather(params, n_, root=root).total for n_, root in points],
            lambda out: totals(out, len(points)),
        )
        rec.op(
            "scalar_broadcast_grid",
            lambda: [
                predict_broadcast(params, n_, root=root, phases="two").total
                for n_, root in points
            ],
            lambda out: totals(out, len(points)),
        )
        rec.op(
            "kernel_gather_grid",
            lambda: GatherKernel(params).evaluate(self.ns, roots=self.roots).totals,
            lambda out: totals(out, len(points), same_as="scalar_gather_grid"),
        )
        rec.op(
            "kernel_broadcast_grid",
            lambda: BroadcastKernel(params).evaluate(
                self.ns, roots=self.roots, phases="two"
            ).totals,
            lambda out: totals(out, len(points), same_as="scalar_broadcast_grid"),
        )
        params_1k = rec.op("calibrate_compile_1k", lambda: calibrate_and_compile(self.ft), compiled)
        params_10k = rec.op(
            "calibrate_compile_10k", lambda: calibrate_and_compile(self.ft_big), compiled
        )
        rec.op(
            "scalar_1k",
            lambda: [predict_gather(params_1k, n).total for _ in range(5)]
            + [predict_broadcast(params_1k, n).total for _ in range(5)]
            + [predict_gather_plan(params_1k, n, plan).total for plan in self.gather_plans[:8]]
            + [predict_broadcast_plan(params_1k, n, plan).total for plan in self.broadcast_plans[:7]],
            lambda out: totals(out, len(out)),
        )

        def best() -> tuple:
            root, root_ledger = best_root(params_1k, n)
            phases, phase_ledger = best_broadcast_phases(params_1k, n)
            return root, root_ledger.total, phases, phase_ledger.total

        rec.op(
            "best_1k", best,
            lambda out: Observed(digest=digest(*out), work=params_1k.p + 2 ** params_1k.k),
        )
        rec.op(
            "rank_1k",
            lambda: rank_plans(params_1k, n, self.gather_plans)
            + rank_plans(params_1k, n, self.broadcast_plans),
            ranking,
        )
        # Every fifth plan of the space (default plan first): the whole
        # 125 cost 4 s at 10k leaves, two thirds of the round.
        rec.op("rank_10k", lambda: rank_plans(params_10k, n, self.broadcast_plans[::5]), ranking)
        self.params_1k = params_1k

    def verify(self, rec: Recorder) -> None:
        from repro.model import rank_plans
        from repro.model.predict import predict_broadcast_plan

        # The vectorised plan pricing against the scalar predictor, on
        # the three plans that matter most: the cheapest ones.
        for plan, total in rank_plans(self.params_1k, self.n, self.broadcast_plans, top=3):
            scalar = predict_broadcast_plan(self.params_1k, self.n, plan).total
            rec.check(f"kernel_equals_scalar_{plan.key}", scalar == total,
                      f"kernel {total!r} != scalar {scalar!r}")

    def layer_metrics(self, ctx: LayerContext) -> dict[str, float]:
        calls = sorted(
            ctx.under("op:scalar_gather_grid", "predict_gather")
            + ctx.under("op:scalar_broadcast_grid", "predict_broadcast")
        )
        kernel_s = ctx.op("kernel_gather_grid") + ctx.op("kernel_broadcast_grid")
        compile_spans = ("GatherKernel.__init__", "BroadcastKernel.__init__")
        return {
            "model.predict_call_us_p50": statistics.median(calls) * 1e6,
            "model.predict_call_us_p99": calls[-1 - len(calls) // 100] * 1e6,
            "model.predict_1k_call_ms": statistics.median(
                ctx.under("op:scalar_1k", "predict_gather", "predict_broadcast",
                          "predict_gather_plan", "predict_broadcast_plan")
            ) * 1e3,
            "model.kernel_points_per_s": 2 * len(self.points) / kernel_s,
            "model.kernel_compile_1k_s": sum(ctx.under("op:calibrate_compile_1k", *compile_spans)) / ctx.rounds,
            "model.kernel_compile_10k_s": sum(ctx.under("op:calibrate_compile_10k", *compile_spans)) / ctx.rounds,
            "model.kernel_over_scalar_gather": ctx.op("scalar_gather_grid") / ctx.op("kernel_gather_grid"),
            "model.kernel_over_scalar_broadcast": ctx.op("scalar_broadcast_grid") / ctx.op("kernel_broadcast_grid"),
            "model.rank_plans_1k_s": ctx.op("rank_1k"),
            "model.rank_plans_10k_s": ctx.op("rank_10k"),
            "model.calibrate_1k_s": sum(ctx.under("op:calibrate_compile_1k", "calibrate")) / ctx.rounds,
            "model.calibrate_10k_s": sum(ctx.under("op:calibrate_compile_10k", "calibrate")) / ctx.rounds,
            "model.best_root_1k_s": ctx.total("best_root"),
        }


# -- serve_session ------------------------------------------------------------------
class ServeSession(Workload):
    name = "serve_session"
    work_unit = "simulated requests offered"

    #: Offered rates below, at and past the ~22 req/s knee of two-lans:3.
    RATES = (8.0, 24.0, 48.0)
    REFERENCE = "static_24"

    def setup(self) -> None:
        from repro.dynamics import churn_plan
        from repro.experiments.serving import serving_config
        from repro.serve import StageCostModel, serve_slices
        from repro.serve.service import resolve_cluster

        duration = self.sizes["serve_duration"]
        self.configs = {
            f"static_{rate:g}": serving_config(rate, seed=self.seed, duration=duration)
            for rate in self.RATES
        }
        reference = self.configs[self.REFERENCE]
        self.cold_config = serving_config(
            self.RATES[0], seed=self.seed, duration=self.sizes["serve_cold_duration"]
        )
        slices, _ = serve_slices(reference)
        self.static_model = StageCostModel(reference, slices)
        self.universe_jobs = len(self.static_model.universe())
        self.prewarm_s, _ = probes.timed(self.static_model.prewarm)

        def build_plan() -> tuple:
            machines = [m.name for m in resolve_cluster(reference.cluster).machines]
            # Short outages (~6 % machine absence) keep completed work
            # comparable to the static session, so the churned op
            # measures the epoch machinery, not shed requests.
            plan = churn_plan(machines, rate=0.25, duration=duration, seed=self.seed,
                              outage_mean=2.0)
            return plan, serve_slices(reference, plan)[0]

        self.plan_build_s, (self.plan, expanded) = probes.timed(build_plan)
        self.churn_model = StageCostModel(reference, expanded)
        self.churn_model.prewarm()
        self.reports: dict[str, t.Any] = {}

    def round(self, rec: Recorder) -> None:
        from repro.serve import run_service

        def reported(report: t.Any, name: str) -> Observed:
            self.reports[name] = report
            problems = []
            if report.offered != report.completed + report.shed + report.degraded_shed:
                problems.append("offered != completed + shed + degraded_shed")
            return Observed(
                digest=digest(report.to_jsonable(), report.latencies),
                counts={"offered": report.offered, "completed": report.completed,
                        "shed": report.shed},
                work=report.offered,
                problems=problems,
            )

        for name, config in self.configs.items():
            rec.op(name, lambda: run_service(config, costs=self.static_model),
                   lambda report: reported(report, name))
        rec.op(
            "churned_24",
            lambda: run_service(self.configs[self.REFERENCE], dynamics=self.plan,
                                costs=self.churn_model),
            lambda report: reported(report, "churned_24"),
        )
        rec.op("cold_8", lambda: run_service(self.cold_config),
               lambda report: reported(report, "cold_8"))

    def sim_metrics(self, rec: Recorder) -> dict[str, float]:
        reference = self.reports[self.REFERENCE]
        return {"sim_p99_s": reference.latency_p99, "sim_goodput_rps": reference.goodput}

    def layer_metrics(self, ctx: LayerContext) -> dict[str, float]:
        from repro.perf import evaluate
        from repro.serve import StageCostModel, serve_slices

        raw_jobs = StageCostModel(self.cold_config, serve_slices(self.cold_config)[0]).jobs()
        raw_s, _ = probes.timed(lambda: evaluate(raw_jobs))
        reports = list(self.reports.values())
        churned = self.reports["churned_24"]
        offered = sum(r.offered for r in reports)
        completed = sum(r.completed for r in reports)
        batches = sum(r.batches for r in reports)
        return {
            "serve.prewarm_s": self.prewarm_s,
            "serve.universe_jobs": self.universe_jobs,
            "serve.overhead_over_raw": ctx.op("cold_8") / raw_s - 1.0,
            "serve.loop_s": ctx.self_s("run_service") + (
                sum(ctx.under("run_service", "Engine.run"))
                - sum(ctx.under("StageCostModel.prewarm", "Engine.run"))
            ) / ctx.rounds,
            "serve.sim_requests_per_s": offered / ctx.total("run_service"),
            "serve.offered": offered,
            "serve.completed": completed,
            "serve.shed": sum(r.shed for r in reports),
            "serve.batches": batches,
            "serve.batch_size_mean": completed / batches,
            "serve.queue_depth_max": max(r.queue_depth_max for r in reports),
            "serve.arrivals_gen_s": ctx.total("generate_arrivals"),
            "dynamics.epochs": churned.epochs,
            "dynamics.redispatched": churned.redispatched,
            "dynamics.degraded": churned.degraded,
            "dynamics.churn_over_static": ctx.op("churned_24") / ctx.op(self.REFERENCE),
            "dynamics.plan_build_s": self.plan_build_s,
        }


WORKLOAD_CLASSES: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (SweepCold, SweepWarm, DesObject1k, MacroScale, TuneCold, ModelPricing, ServeSession)
}
