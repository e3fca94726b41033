"""One workload in one fresh process; ``bench/run.py`` is the only caller.

Phases: set-up (imports, input generation, cache population, one
untimed warm-up round — all charged to ``setup_s``), then either the
*untraced pass* (as many rounds as come nearest to ``--seconds``,
``gc.collect()`` between rounds; the end-to-end numbers come from here)
or the *traced pass* (alternating untraced and traced rounds of the same
process for as long, then the workload's probes; the per-layer numbers
and ``harness.trace_overhead`` come from here).  The result is one JSON object on the last stdout line.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # before the heavy imports: they are set-up

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from bench import spec  # noqa: E402
from bench.harness import Recorder  # noqa: E402
from bench.layers import LayerContext, common_layer_metrics  # noqa: E402
from bench.trace import Tracer  # noqa: E402
from bench.workloads import SIZES, WORKLOAD_CLASSES  # noqa: E402


def _one_round(
    workload, rec: Recorder, tracer: Tracer | None = None, round_id: int = -1
) -> tuple[float, float]:
    """Run one round (traced iff ``tracer``); ``(op seconds, work units)``."""
    gc.collect()
    rec.tracer = tracer
    rec.begin_round()
    if tracer is None:
        workload.round(rec)
    else:
        tracer.install()
        tracer.round = round_id
        try:
            with tracer.span("round", "harness"):
                workload.round(rec)
        finally:
            tracer.round = -1
            tracer.uninstall()
    return rec.end_round()


_UNITS = {m.name: m.unit for m in (*spec.END_TO_END, *spec.PER_LAYER)}


def _metric(name: str, value: float) -> dict:
    return {"value": value, "unit": _UNITS[name]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--profile", choices=sorted(SIZES), required=True)
    parser.add_argument("--scratch", required=True, help="per-run temp dir (the parent removes it)")
    parser.add_argument("--expected", default=None, help="pin file to check against")
    parser.add_argument("--trace-out", default=None, help="where the traced pass writes its spans")
    args = parser.parse_args(argv)

    loadavg = os.getloadavg()[0]
    expected = None
    if args.expected:
        expected = json.loads(Path(args.expected).read_text())["workloads"].get(args.workload, {})
    workload = WORKLOAD_CLASSES[args.workload](args.seed, SIZES[args.profile], args.scratch)
    rec = Recorder(expected)
    workload.setup()
    _one_round(workload, rec)  # warm-up: imports, LRUs, numpy first calls
    rec.op_seconds.clear()  # the warm-up round's calls are set-up, not samples
    setup_s = time.perf_counter() - _PROCESS_START

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "profile": args.profile,
        "work_unit": workload.work_unit,
    }
    window_start = time.perf_counter()
    plain: list[tuple[float, float]] = []

    def window_used() -> bool:
        """Stop at the round count whose end is nearest the window's."""
        elapsed = time.perf_counter() - window_start
        return elapsed + 0.5 * elapsed / len(plain) >= args.seconds

    if not args.trace:
        while True:
            plain.append(_one_round(workload, rec))
            if window_used():
                break
        workload.verify(rec)
        op_s = [seconds for seconds, _ in plain]
        # Both round times are built op by op: a slow stretch of the host
        # spoils the ops it falls on, not the whole rounds around them.
        # Interference only ever adds time, so the fastest call of each
        # op is the steadiest reading of what the program costs.
        by_op = {name: statistics.median_low(seconds) for name, seconds in rec.op_seconds.items()}
        best_round = sum(min(seconds) for seconds in rec.op_seconds.values())
        end_to_end = {
            "setup_s": setup_s,
            "op_s_p50": sum(by_op.values()),
            "work_per_s": plain[0][1] / best_round,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "failed_frac": rec.failed / rec.attempted,
            **workload.sim_metrics(rec),
        }
        result["end_to_end"] = {name: _metric(name, value) for name, value in end_to_end.items()}
        result["samples"] = {"op_s": op_s, "by_op": rec.op_seconds}
        result["op_s_p50_by_op"] = by_op
        result["work_per_round"] = plain[0][1]
    else:
        tracer = Tracer()
        traced: list[tuple[float, float]] = []
        while True:
            plain.append(_one_round(workload, rec))
            traced.append(_one_round(workload, rec, tracer, len(traced)))
            if window_used():
                break
        untraced_p50 = statistics.median(seconds for seconds, _ in plain)
        ctx = LayerContext(tracer, len(traced), untraced_p50)
        per_layer = common_layer_metrics(ctx)
        per_layer.update(workload.layer_metrics(ctx))
        per_layer.update(workload.sim_metrics(rec))
        per_layer.update({
            "harness.samples": len(traced),
            "harness.op_s_min": min(seconds for seconds, _ in plain),
            "harness.op_s_max": max(seconds for seconds, _ in plain),
            "harness.trace_overhead": (
                statistics.median(seconds for seconds, _ in traced) / untraced_p50 - 1.0
            ),
            "harness.cpu_count": os.cpu_count(),
            "harness.loadavg_start": loadavg,
        })
        result["per_layer"] = {name: _metric(name, value) for name, value in per_layer.items()}
        result["self_time"] = {
            name: {"layer": row["layer"], "count": row["count"],
                   "self_s": row["self_s"] / len(traced), "total_s": row["total_s"] / len(traced)}
            for name, row in sorted(
                ctx.summary.items(), key=lambda item: -item[1]["self_s"]
            )
        }
        if args.trace_out:
            tracer.dump(args.trace_out, workload=args.workload)

    result.update({
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "pins": rec.pins(),
        "impl_counts": rec.impl_counts(),
        "impl_counts_repeat": rec.impl_repeats,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
