"""Standalone benchmark harness: ``python benchmarks/bench_runner.py``.

Emits two machine-readable artifacts next to this file's repo root:

``BENCH_substrate.json``
    Microbenchmarks of the simulation substrate (event churn, resource
    contention, mailbox churn, one full collective) — the single-core
    hot paths the ``repro.perf`` work optimised.

``BENCH_sweep.json``
    Wall-clock of the full experiment sweep (``python -m
    repro.experiments all``), serial and parallel, against the recorded
    pre-optimisation seed baseline — plus a cold/warm pair against a
    fresh persistent cache (the warm run must not be slower, and its
    output must be byte-identical).

``BENCH_kernels.json``
    Scalar ``predict_*`` loop vs one vectorized
    ``repro.model.kernels`` evaluation over the same grid (the ledgers
    are bit-identical; only the wall-clock differs).

``BENCH_obs.json``
    Observability overhead (``benchmarks/bench_obs_overhead.py``):
    in-process experiment runs with observation off vs metrics-on vs
    spans-on.  ``--check`` gates the metrics-on overhead under 3%.

``BENCH_discover.json``
    Hierarchy-discovery round-trip (``benchmarks/bench_discover.py``):
    generate + synthesize + discover wall-clock at 10^3 and 10^4
    leaves.  ``--check`` gates exact recovery, the 10^4-leaf 60 s
    acceptance ceiling, and a gross timing regression.

``BENCH_scale.json``
    Macro-event superstep engine (``benchmarks/bench_scale.py``):
    10^3- and 10^4-leaf collectives, macro vs object path.  ``--check``
    gates bit-identical dual-path results, the macro speedup floor
    on the send-heavy 10^3 broadcast, and the 10^4 completion ceiling.

``BENCH_tuning.json``
    Schedule auto-tuner (``benchmarks/bench_tuning.py``): cold-tune
    cost vs warm decision-cache lookup, and tuned-vs-default simulated
    makespans at 10^2-10^4 leaves.  ``--check`` gates the warm-lookup
    speedup floor, tuned never slower than default, and the expected
    >=10% win on the latency-dominated broadcast scenario.

``BENCH_serve.json``
    Open-loop serving layer (``benchmarks/bench_serve.py``): the
    goodput-vs-offered-load curve, simulated p99 at the reference
    rate, and cold-session wall-clock vs a raw ``evaluate()`` of the
    same kernel-job universe.  ``--check`` gates the p99 ceiling,
    goodput monotone up to the knee, and service overhead under 5%.

``BENCH_dynamics.json``
    Dynamic clusters (``benchmarks/bench_dynamics.py``): churned-vs-
    static session wall-clock on shared prewarmed cost models, and one
    ``fit_params`` call at the calibration acceptance operating point.
    ``--check`` gates churn overhead under 10%, the fit wall-time
    ceiling, and three deterministic gates (empty plan bit-identical,
    request conservation under churn, exact noise-free round-trip).

Modes:

``--quick``
    CI-sized run: fewer iterations and a reduced experiment subset;
    results land under a ``"quick"`` key so they are never compared
    against full-run numbers.
``--check``
    Compare against the committed artifacts and exit non-zero on a
    >25% wall-clock regression (the CI gate).  Timing comparisons are
    refused — skipped with a message, leaving only the absolute gates
    (speedup floors, equivalence, ceilings) — when the committed
    artifact was recorded on a different machine (``cpu_count`` or
    python major.minor differ): cross-host wall-clock ratios are
    noise, not signal.

Timings use the median of ``--runs`` subprocess invocations; the
committed artifacts also record the host CPU count, because parallel
speedups are meaningless without it (a 1-CPU container *loses* time
at ``--jobs 4`` to pool overhead, and the JSON says so).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Wall-clock of ``python -m repro.experiments all`` at the seed commit
#: (pre-``repro.perf``), median of 3 on the reference 1-CPU container.
SEED_BASELINE_SECONDS = 5.918

#: Reduced experiment subset for ``--quick`` (CI smoke).
QUICK_EXPERIMENTS = ["fig3a", "fig4a", "model-vs-sim"]

#: Regression gate: fail ``--check`` beyond this slowdown factor.
REGRESSION_LIMIT = 1.25

#: Minimum vectorized-vs-scalar speedup ``--check`` accepts.
KERNEL_SPEEDUP_FLOOR = 5.0

#: A warm-cache run may exceed the cold run by at most this factor
#: before ``--check`` fails (small head-room for timer noise; the real
#: expectation is warm << cold).
WARM_CACHE_LIMIT = 1.05


# -- substrate microbenchmarks -------------------------------------------------
def _bench_timeout_churn(n: int) -> dict:
    from repro.sim.engine import Engine

    def chain(engine, count):
        for _ in range(count):
            yield engine.timeout(0.001)

    engine = Engine()
    engine.process(chain(engine, n))
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    return {
        "name": "engine_timeout_churn",
        "what": f"one process yielding {n} back-to-back timeouts",
        "events": engine.events_processed,
        "seconds": elapsed,
        "events_per_second": engine.events_processed / elapsed,
    }


def _bench_resource_contention(processes: int, rounds: int) -> dict:
    from repro.sim.engine import Engine
    from repro.sim.resources import Resource

    def worker(resource, count):
        for _ in range(count):
            yield from resource.occupy(0.01)

    engine = Engine()
    cpu = Resource(engine, capacity=1, name="cpu")
    for _ in range(processes):
        engine.process(worker(cpu, rounds))
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    return {
        "name": "resource_contention",
        "what": f"{processes} processes x {rounds} holds of one capacity-1 resource",
        "events": engine.events_processed,
        "seconds": elapsed,
        "events_per_second": engine.events_processed / elapsed,
    }


def _bench_store_churn(pairs: int, messages: int) -> dict:
    from repro.sim.engine import Engine
    from repro.sim.resources import Store

    def producer(engine, store, count):
        for i in range(count):
            yield engine.timeout(0.001)
            store.put(i)

    def consumer(store, count):
        for _ in range(count):
            yield store.get()

    engine = Engine()
    for _ in range(pairs):
        store = Store(engine)
        engine.process(producer(engine, store, messages))
        engine.process(consumer(store, messages))
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    return {
        "name": "store_churn",
        "what": f"{pairs} producer/consumer pairs x {messages} messages",
        "events": engine.events_processed,
        "seconds": elapsed,
        "events_per_second": engine.events_processed / elapsed,
    }


def _bench_gather_collective(n: int) -> dict:
    from repro.cluster.presets import ucf_testbed
    from repro.collectives import RootPolicy, run_gather

    topology = ucf_testbed(10)
    start = time.perf_counter()
    outcome = run_gather(topology, n, root=RootPolicy.FASTEST, seed=0)
    elapsed = time.perf_counter() - start
    return {
        "name": "gather_collective",
        "what": f"run_gather(testbed(10), n={n}, fastest root)",
        "simulated_time": outcome.time,
        "seconds": elapsed,
    }


def run_substrate(quick: bool, repeats: int) -> list[dict]:
    scale = 1 if quick else 4
    benches = [
        lambda: _bench_timeout_churn(10_000 * scale),
        lambda: _bench_resource_contention(20, 100 * scale),
        lambda: _bench_store_churn(10, 200 * scale),
        lambda: _bench_gather_collective(25_600 * scale),
    ]
    results = []
    for bench in benches:
        rounds = [bench() for _ in range(repeats)]
        best = min(rounds, key=lambda r: r["seconds"])
        best["repeats"] = repeats
        results.append(best)
        print(f"  {best['name']:22s} {best['seconds']*1e3:8.1f} ms"
              + (f"  ({best['events_per_second']:,.0f} events/s)"
                 if "events_per_second" in best else ""))
    return results


# -- sweep wall-clock ----------------------------------------------------------
def _time_sweep(
    experiments: list[str],
    jobs: int,
    runs: int,
    cache_args: tuple[str, ...] = ("--no-cache",),
) -> tuple[list[float], list[str]]:
    """Timings and captured stdout of ``runs`` sweep subprocesses.

    Default ``--no-cache`` keeps the regression-comparable timings
    measuring the simulator, not the persistent cache (and comparable
    to the pre-cache seed baseline).
    """
    command = [sys.executable, "-m", "repro.experiments", *experiments, *cache_args]
    if jobs != 1:
        command += ["--jobs", str(jobs)]
    timings, outputs = [], []
    for _ in range(runs):
        start = time.perf_counter()
        result = subprocess.run(
            command, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        elapsed = time.perf_counter() - start
        if result.returncode != 0:
            raise RuntimeError(
                f"sweep failed (rc={result.returncode}):\n{result.stderr[-2000:]}"
            )
        timings.append(elapsed)
        outputs.append(result.stdout)
    return timings, outputs


def run_sweep(quick: bool, runs: int, parallel_jobs: int) -> dict:
    experiments = QUICK_EXPERIMENTS if quick else ["all"]
    label = " ".join(experiments)
    print(f"  timing: python -m repro.experiments {label}  (x{runs})")
    serial, _ = _time_sweep(experiments, 1, runs)
    print(f"    serial: {', '.join(f'{s:.3f}s' for s in serial)}")
    parallel, _ = _time_sweep(experiments, parallel_jobs, runs)
    print(f"    --jobs {parallel_jobs}: "
          f"{', '.join(f'{s:.3f}s' for s in parallel)}")
    entry = {
        "experiments": label,
        "runs": runs,
        "serial_seconds": round(statistics.median(serial), 3),
        "serial_all_runs": [round(s, 3) for s in serial],
        "parallel_jobs": parallel_jobs,
        "parallel_seconds": round(statistics.median(parallel), 3),
    }
    if not quick:
        entry["seed_baseline_seconds"] = SEED_BASELINE_SECONDS
        entry["speedup_vs_seed"] = round(
            SEED_BASELINE_SECONDS / entry["serial_seconds"], 2
        )
    return entry


def run_cache(quick: bool) -> dict:
    """Cold vs warm sweep against a fresh persistent cache."""
    experiments = QUICK_EXPERIMENTS if quick else ["all"]
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cold, cold_out = _time_sweep(experiments, 1, 1, ("--cache-dir", tmp))
        warm, warm_out = _time_sweep(experiments, 1, 1, ("--cache-dir", tmp))
    entry = {
        "experiments": " ".join(experiments),
        "cold_seconds": round(cold[0], 3),
        "warm_seconds": round(warm[0], 3),
        "warm_over_cold": round(warm[0] / cold[0], 2),
        "outputs_identical": cold_out[0] == warm_out[0],
    }
    print(f"    cold: {entry['cold_seconds']:.3f}s  "
          f"warm: {entry['warm_seconds']:.3f}s  "
          f"({entry['warm_over_cold']:.2f}x, outputs identical: "
          f"{entry['outputs_identical']})")
    return entry


# -- analytic kernels ----------------------------------------------------------
def run_kernels(quick: bool, repeats: int) -> dict:
    """Scalar ``predict_*`` loop vs one vectorized kernel evaluation.

    Both paths produce the exact same ledger totals (asserted here);
    the entry records the wall-clock ratio on an identical grid.
    """
    import numpy as np

    from repro.cluster.presets import ucf_testbed
    from repro.model.kernels import BroadcastKernel, GatherKernel
    from repro.model.params import calibrate
    from repro.model.predict import predict_broadcast, predict_gather

    params = calibrate(ucf_testbed(10))
    sizes = [1_000, 16_000, 128_000, 1_000_000]
    copies = 8 if quick else 64
    points = [
        (n, root) for _ in range(copies) for n in sizes for root in range(params.p)
    ]
    ns = np.array([n for n, _ in points], dtype=np.int64)
    roots = np.array([root for _, root in points], dtype=np.int64)

    def scalar_gather():
        return [predict_gather(params, n, root=root).total for n, root in points]

    def kernel_gather():
        return GatherKernel(params).evaluate(ns, roots=roots).totals

    def scalar_broadcast():
        return [
            predict_broadcast(params, n, root=root, phases="two").total
            for n, root in points
        ]

    def kernel_broadcast():
        return BroadcastKernel(params).evaluate(ns, roots=roots, phases="two").totals

    entry = {}
    for name, scalar, kernel in (
        ("gather", scalar_gather, kernel_gather),
        ("broadcast", scalar_broadcast, kernel_broadcast),
    ):
        scalar_s, kernel_s = [], []
        for _ in range(repeats):
            start = time.perf_counter()
            scalar_totals = scalar()
            scalar_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            kernel_totals = kernel()
            kernel_s.append(time.perf_counter() - start)
        if list(kernel_totals) != scalar_totals:
            raise RuntimeError(f"{name}: kernel totals diverge from scalar")
        best_scalar, best_kernel = min(scalar_s), min(kernel_s)
        entry[name] = {
            "points": len(points),
            "scalar_seconds": round(best_scalar, 4),
            "kernel_seconds": round(best_kernel, 4),
            "speedup": round(best_scalar / best_kernel, 1),
        }
        print(f"  {name:10s} {len(points)} points: scalar "
              f"{best_scalar * 1e3:7.1f} ms, kernel {best_kernel * 1e3:6.1f} ms "
              f"({entry[name]['speedup']:.1f}x)")
    return entry


# -- artifacts -----------------------------------------------------------------
def _machine_info() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.system().lower(),
    }


def machine_mismatch(artifact: Path) -> str | None:
    """Why ``artifact``'s committed timings are not comparable here.

    Returns a human-readable reason when the committed machine block
    differs from this host in ``cpu_count`` or python major.minor, and
    ``None`` when the artifact is missing or comparable.  Patch
    versions are ignored: they don't move wall-clock, and CI images
    bump them constantly.
    """
    if not artifact.exists():
        return None
    committed = json.loads(artifact.read_text()).get("machine", {})
    current = _machine_info()
    if committed.get("cpu_count") != current["cpu_count"]:
        return (f"cpu_count {committed.get('cpu_count')} != "
                f"{current['cpu_count']}")
    theirs = str(committed.get("python", "")).split(".")[:2]
    ours = current["python"].split(".")[:2]
    if theirs != ours:
        return f"python {'.'.join(theirs) or '?'} != {'.'.join(ours)}"
    return None


def check_regression(artifact: Path, current: float, key: str, scope: str) -> bool:
    """True if ``current`` regresses >25% against the committed number."""
    if not artifact.exists():
        print(f"  no committed {artifact.name}; skipping the gate")
        return False
    mismatch = machine_mismatch(artifact)
    if mismatch:
        print(f"  {artifact.name}: committed on a different machine "
              f"({mismatch}); refusing the timing comparison")
        return False
    committed = json.loads(artifact.read_text())
    baseline = committed.get(scope, {}).get(key)
    if not baseline:
        print(f"  committed {artifact.name} has no {scope}.{key}; "
              "skipping the gate")
        return False
    ratio = current / baseline
    verdict = "REGRESSION" if ratio > REGRESSION_LIMIT else "ok"
    print(f"  {key}: {current:.3f}s vs committed {baseline:.3f}s "
          f"({ratio:.2f}x) -> {verdict}")
    return ratio > REGRESSION_LIMIT


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (reduced subset, fewer repeats)")
    parser.add_argument("--check", action="store_true",
                        help="fail on >25% regression vs the committed JSON")
    parser.add_argument("--runs", type=int, default=3,
                        help="sweep timing repetitions (median is reported)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker count for the parallel sweep timing")
    parser.add_argument("--output-dir", type=Path, default=REPO_ROOT,
                        help="where to write the BENCH_*.json artifacts")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    import bench_discover
    import bench_dynamics
    import bench_obs_overhead
    import bench_scale
    import bench_serve
    import bench_tuning

    repeats = 1 if args.quick else 3
    runs = 1 if args.quick else args.runs

    print("substrate microbenchmarks:")
    substrate = run_substrate(args.quick, repeats)
    print("analytic kernels (scalar loop vs vectorized):")
    kernels_entry = run_kernels(args.quick, repeats)
    print("observability overhead (off vs metrics vs spans):")
    obs_entry = bench_obs_overhead.run_overhead(args.quick, 3 if args.quick else 5)
    print("hierarchy discovery (generate -> synthesize -> discover):")
    discover_entry = bench_discover.run_discover(args.quick)
    print("macro-event scale (10^3/10^4-leaf collectives):")
    scale_entry = bench_scale.run_scale(args.quick)
    print("auto-tuned schedules (cold tune, warm lookup, tuned vs default):")
    tuning_entry = bench_tuning.run_tuning(args.quick)
    print("open-loop serving (goodput curve, reference p99, overhead):")
    serve_entry = bench_serve.run_serve(args.quick)
    print("dynamic clusters (churn overhead, calibration fit):")
    dynamics_entry = bench_dynamics.run_dynamics(args.quick)
    print("experiment sweep:")
    sweep_entry = run_sweep(args.quick, runs, args.jobs)
    print("  persistent cache (cold vs warm, fresh --cache-dir):")
    sweep_entry["cache"] = run_cache(args.quick)

    scope = "quick" if args.quick else "full"
    machine = _machine_info()
    substrate_doc = {
        "benchmark": "repro.sim substrate microbenchmarks",
        "machine": machine,
        scope: {bench.pop("name"): bench for bench in substrate},
    }
    sweep_doc = {
        "benchmark": "python -m repro.experiments wall-clock",
        "machine": machine,
        "note": (
            "the CLI clamps --jobs to the host's cores (serially on a "
            "1-CPU host), so the parallel timing matches serial there; "
            "the headline speedup is serial vs the recorded seed "
            "baseline; serial/parallel timings use --no-cache (the "
            "'cache' block times the persistent cache separately)"
        ),
        scope: sweep_entry,
    }
    kernels_doc = {
        "benchmark": "repro.model.kernels vs scalar predict_*",
        "machine": machine,
        "note": (
            "identical grids, bit-identical totals (asserted during the "
            "run); the speedup is pure vectorization"
        ),
        scope: kernels_entry,
    }
    obs_doc = {
        "benchmark": "repro.obs overhead on in-process experiment runs",
        "machine": machine,
        "note": (
            "off = no active observation (the default path); metrics = "
            "observe(); spans = observe(spans=True), which turns the DES "
            "trace on and is recorded unguarded; all three must render "
            "byte-identical reports"
        ),
        scope: obs_entry,
    }
    discover_doc = {
        "benchmark": "repro.cluster.discover round-trip wall-clock",
        "machine": machine,
        "note": (
            "1k = fat_tree(4,16,16), float64 matrix with gap columns, "
            "scipy linkage; 10k = fat_tree(25,25,16), latency-only "
            "float32 matrix, banded components; both assert exact "
            "structural recovery against the generating truth"
        ),
        scope: discover_entry,
    }
    scale_doc = {
        "benchmark": "macro-event vs object-event collective wall-clock",
        "machine": machine,
        "note": (
            "1k dual-path scales assert bit-identical simulated time, "
            "values, and superstep marks before timing; 10k scales run "
            "the macro path only; macro_seconds is the best of the "
            "repeats, object_seconds a single run"
        ),
        scope: scale_entry,
    }
    tuning_doc = {
        "benchmark": "schedule auto-tuning cost and wins",
        "machine": machine,
        "note": (
            "cold_seconds = full tune (enumerate + vectorized pricing + "
            "DES-validated shortlist) into a fresh cache; warm_seconds = "
            "best of 5 decision-cache resolutions with the in-memory "
            "memo dropped; tuned can never be slower than default "
            "because the default plan is always in the validated "
            "shortlist"
        ),
        scope: tuning_entry,
    }
    serve_doc = {
        "benchmark": "open-loop serving goodput, tail latency, overhead",
        "machine": machine,
        "note": (
            "curve/goodput/p99 are simulated (deterministic per seed); "
            "session_seconds is the cold session wall-clock (kernel-cost "
            "prewarm + service loop), raw_universe_seconds the bare "
            "evaluate() of the same job universe; their ratio is the "
            "service overhead"
        ),
        scope: serve_entry,
    }
    dynamics_doc = {
        "benchmark": "dynamic clusters: churn overhead and calibration fit",
        "machine": machine,
        "note": (
            "static/dynamic sessions share prewarmed cost models so "
            "churn_overhead isolates the dynamics machinery; fit_seconds "
            "times one fit_params call at the acceptance operating "
            "point; the three boolean gates are deterministic on any "
            "host"
        ),
        scope: dynamics_entry,
    }

    args.output_dir.mkdir(parents=True, exist_ok=True)
    substrate_path = args.output_dir / "BENCH_substrate.json"
    sweep_path = args.output_dir / "BENCH_sweep.json"
    kernels_path = args.output_dir / "BENCH_kernels.json"
    obs_path = args.output_dir / "BENCH_obs.json"
    discover_path = args.output_dir / "BENCH_discover.json"
    scale_path = args.output_dir / "BENCH_scale.json"
    tuning_path = args.output_dir / "BENCH_tuning.json"
    serve_path = args.output_dir / "BENCH_serve.json"
    dynamics_path = args.output_dir / "BENCH_dynamics.json"
    regressed = False
    if args.check:
        print("regression gate (limit "
              f"{(REGRESSION_LIMIT - 1) * 100:.0f}%):")
        regressed = check_regression(
            sweep_path, sweep_entry["serial_seconds"], "serial_seconds", scope
        )
        cache = sweep_entry["cache"]
        warm_ok = (
            cache["warm_seconds"] <= cache["cold_seconds"] * WARM_CACHE_LIMIT
            and cache["outputs_identical"]
        )
        print(f"  warm cache: {cache['warm_seconds']:.3f}s vs cold "
              f"{cache['cold_seconds']:.3f}s, outputs identical: "
              f"{cache['outputs_identical']} -> "
              f"{'ok' if warm_ok else 'REGRESSION'}")
        regressed |= not warm_ok
        for name, bench in kernels_entry.items():
            kernel_ok = bench["speedup"] >= KERNEL_SPEEDUP_FLOOR
            print(f"  kernel {name}: {bench['speedup']:.1f}x "
                  f"(floor {KERNEL_SPEEDUP_FLOOR:.0f}x) -> "
                  f"{'ok' if kernel_ok else 'REGRESSION'}")
            regressed |= not kernel_ok
        regressed |= bench_obs_overhead.check_overhead(obs_entry)
        for path, checker, entry in (
            (discover_path, bench_discover.check_discover, discover_entry),
            (scale_path, bench_scale.check_scale, scale_entry),
            (tuning_path, bench_tuning.check_tuning, tuning_entry),
            (serve_path, bench_serve.check_serve, serve_entry),
            (dynamics_path, bench_dynamics.check_dynamics, dynamics_entry),
        ):
            mismatch = machine_mismatch(path)
            if mismatch:
                print(f"  {path.name}: committed on a different machine "
                      f"({mismatch}); refusing the timing comparison")
            regressed |= checker(path, entry, scope, compare=mismatch is None)
    else:
        # Preserve the other scope ("full" vs "quick") when present so a
        # --quick run never clobbers the committed full-run numbers.
        for path, doc in ((substrate_path, substrate_doc),
                          (sweep_path, sweep_doc),
                          (kernels_path, kernels_doc),
                          (obs_path, obs_doc),
                          (discover_path, discover_doc),
                          (scale_path, scale_doc),
                          (tuning_path, tuning_doc),
                          (serve_path, serve_doc),
                          (dynamics_path, dynamics_doc)):
            if path.exists():
                previous = json.loads(path.read_text())
                for key in ("full", "quick"):
                    if key in previous and key not in doc:
                        doc[key] = previous[key]
            path.write_text(json.dumps(doc, indent=2) + "\n")
            print(f"wrote {path}")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
