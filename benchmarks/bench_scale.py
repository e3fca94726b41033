"""Macro-event scale benchmark: ``python benchmarks/bench_scale.py``.

Times 10^3- and 10^4-leaf collectives on the generated big machines
(:mod:`repro.cluster.discover.generators`), macro-event fast path vs
the object-event path, writing ``BENCH_scale.json``:

* **10^3 leaves** — ``fat_tree(4, 16, 16)`` (sync-heavy: three levels,
  16-way racks) and ``multi_rack(8, 128)`` (send-heavy: the two-phase
  exchange is 128-wide per rack).  Both paths run; the results are
  asserted bit-identical — simulated time, per-pid values, and the
  per-superstep accounting marks — before any timing is reported.
* **10^4 leaves** — ``fat_tree(25, 25, 16)``.  Macro-event path only
  (the object path takes minutes there; the 10^3 scales already pin
  its equivalence), gated on completion within an absolute ceiling.

``--check`` gates three things: bit-identical macro/object results at
the dual-path scales, the macro speedup floor on the send-heavy 10^3
broadcast (:data:`MACRO_SPEEDUP_FLOOR`), and a gross macro wall-clock
regression vs the committed artifact (wired into ``bench_runner.py
--check``; cross-machine comparisons are refused by the runner).

``--quick`` shrinks every scale to CI-smoke size (128 leaves, no 10^4
run) and only gates equivalence plus a token speedup floor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Committed floor on the macro-vs-object speedup of the send-heavy
#: 10^3-leaf broadcast.  A ratio with the object path as denominator:
#: at 7 engine events per message that run takes 8.7 s against a 1.2 s
#: macro run on a 2-CPU host (7.5x).  The floor catches a dead or
#: crippled fast path; macro wall-clock is gated by REGRESSION_LIMIT.
MACRO_SPEEDUP_FLOOR = 6.0

#: Token floor for the reduced --quick scales (small clusters leave
#: little room between the paths; this only catches a dead fast path).
QUICK_SPEEDUP_FLOOR = 1.5

#: Absolute ceiling on the macro-only 10^4-leaf runs.
LARGE_LIMIT_SECONDS = 120.0

#: Regression gate on macro_seconds vs the committed artifact.  Wider
#: than bench_runner's 1.25x: these are multi-second simulations on a
#: shared host, so wall-clock spread on identical code is large; the
#: hard gates are equivalence and the speedup floor.
REGRESSION_LIMIT = 2.0

#: (label, generator family, generator kwargs, collective, n,
#:  both_paths, speedup_floor | None).
SCALES: tuple[tuple[str, str, dict, str, int, bool, float | None], ...] = (
    ("broadcast_1k_fat_tree", "fat_tree",
     {"pods": 4, "racks_per_pod": 16, "hosts_per_rack": 16},
     "broadcast", 20_000, True, None),
    ("broadcast_1k_multi_rack", "multi_rack",
     {"racks": 8, "hosts_per_rack": 128},
     "broadcast", 20_000, True, MACRO_SPEEDUP_FLOOR),
    ("gather_1k_multi_rack", "multi_rack",
     {"racks": 8, "hosts_per_rack": 128},
     "gather", 20_000, True, None),
    ("broadcast_10k_fat_tree", "fat_tree",
     {"pods": 25, "racks_per_pod": 25, "hosts_per_rack": 16},
     "broadcast", 50_000, False, None),
    ("gather_10k_fat_tree", "fat_tree",
     {"pods": 25, "racks_per_pod": 25, "hosts_per_rack": 16},
     "gather", 50_000, False, None),
)

QUICK_SCALES: tuple[tuple[str, str, dict, str, int, bool, float | None], ...] = (
    ("broadcast_quick_multi_rack", "multi_rack",
     {"racks": 4, "hosts_per_rack": 32},
     "broadcast", 5_000, True, QUICK_SPEEDUP_FLOOR),
    ("gather_quick_multi_rack", "multi_rack",
     {"racks": 4, "hosts_per_rack": 32},
     "gather", 5_000, True, None),
)


def _run_collective(family: str, gen_kwargs: dict, collective: str, n: int,
                    macro: bool | None):
    from repro.cluster.discover.generators import GENERATORS
    from repro.collectives.broadcast import run_broadcast
    from repro.collectives.gather import run_gather

    topology = GENERATORS[family](seed=0, **gen_kwargs)
    run = run_broadcast if collective == "broadcast" else run_gather
    return run(topology, n, seed=1, macro=macro)


def _bench_scale(label: str, family: str, gen_kwargs: dict, collective: str,
                 n: int, both_paths: bool, floor: float | None,
                 repeats: int) -> dict:
    entry: dict = {"label": label, "collective": collective, "n": n,
                   "generator": f"{family}({gen_kwargs})"}

    # Untimed warmup: the first run pays one-off costs (imports, the
    # make_items cache) that would otherwise land on the macro timing.
    _run_collective(family, gen_kwargs, collective, n, None)
    macro_s = []
    outcome = None
    for _ in range(repeats):
        start = time.perf_counter()
        outcome = _run_collective(family, gen_kwargs, collective, n, None)
        macro_s.append(time.perf_counter() - start)
    assert outcome is not None
    if outcome.runtime.macro is None:
        raise RuntimeError(f"{label}: macro path did not engage")
    entry["leaves"] = outcome.runtime.nprocs
    entry["simulated_time"] = outcome.time
    entry["macro_seconds"] = round(min(macro_s), 3)

    if both_paths:
        start = time.perf_counter()
        obj = _run_collective(family, gen_kwargs, collective, n, False)
        entry["object_seconds"] = round(time.perf_counter() - start, 3)
        identical = (
            obj.runtime.macro is None
            and outcome.time == obj.time
            and outcome.values == obj.values
            and outcome.supersteps == obj.supersteps
            and outcome.runtime.superstep_marks()
            == obj.runtime.superstep_marks()
        )
        entry["bit_identical"] = identical
        entry["speedup"] = round(entry["object_seconds"]
                                 / entry["macro_seconds"], 1)
        if floor is not None:
            entry["speedup_floor"] = floor
    print(f"  {label:26s} p={entry['leaves']:6d} "
          f"macro {entry['macro_seconds']:7.2f}s"
          + (f"  object {entry['object_seconds']:7.2f}s "
             f"({entry['speedup']:.1f}x, identical="
             f"{entry['bit_identical']})" if both_paths else "  (macro only)"))
    return entry


def run_scale(quick: bool) -> dict:
    """Time each scale; dual-path scales also assert bit-equivalence."""
    scales = QUICK_SCALES if quick else SCALES
    repeats = 1 if quick else 2
    entries = [_bench_scale(*scale, repeats) for scale in scales]
    return {
        "macro_speedup_floor": (
            QUICK_SPEEDUP_FLOOR if quick else MACRO_SPEEDUP_FLOOR
        ),
        "large_limit_seconds": LARGE_LIMIT_SECONDS,
        "scales": {entry["label"]: entry for entry in entries},
    }


def check_scale(
    artifact: Path, entry: dict, scope: str, compare: bool = True,
) -> bool:
    """True when the macro engine regresses: divergent results, a
    blown speedup floor or 10^4 ceiling, or a gross slowdown.

    ``compare=False`` (the runner detected a machine mismatch) keeps
    the hard gates but skips the committed-timing comparison.
    """
    regressed = False
    for label, bench in entry["scales"].items():
        if "bit_identical" in bench and not bench["bit_identical"]:
            print(f"  scale {label}: macro/object results DIVERGE "
                  "-> REGRESSION")
            regressed = True
        floor = bench.get("speedup_floor")
        if floor is not None:
            ok = bench["speedup"] >= floor
            print(f"  scale {label}: {bench['speedup']:.1f}x macro speedup "
                  f"(floor {floor:.1f}x) -> {'ok' if ok else 'REGRESSION'}")
            regressed |= not ok
        if bench["leaves"] >= 10_000 and (
            bench["macro_seconds"] > LARGE_LIMIT_SECONDS
        ):
            print(f"  scale {label}: {bench['macro_seconds']:.2f}s over the "
                  f"{LARGE_LIMIT_SECONDS:.0f}s ceiling -> REGRESSION")
            regressed = True
    if not compare:
        print(f"  {artifact.name}: timing comparison refused "
              "(different machine); hard gates above still apply")
        return regressed
    if not artifact.exists():
        print(f"  no committed {artifact.name}; skipping the timing gate")
        return regressed
    committed = json.loads(artifact.read_text()).get(scope, {}).get("scales", {})
    for label, bench in entry["scales"].items():
        baseline = committed.get(label, {}).get("macro_seconds")
        if not baseline:
            print(f"  committed {artifact.name} has no {scope} scale {label}; "
                  "skipping its timing gate")
            continue
        ratio = bench["macro_seconds"] / baseline
        over = ratio > REGRESSION_LIMIT
        print(f"  scale {label}: {bench['macro_seconds']:.2f}s vs committed "
              f"{baseline:.2f}s ({ratio:.2f}x) -> "
              f"{'REGRESSION' if over else 'ok'}")
        regressed |= over
    return regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (128 leaves, no 10^4 scale)")
    parser.add_argument("--check", action="store_true",
                        help="fail on divergent macro results, a blown "
                        "speedup floor, or a gross timing regression")
    parser.add_argument("--output-dir", type=Path, default=REPO_ROOT,
                        help="where to write BENCH_scale.json")
    args = parser.parse_args(argv)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    print("macro-event scale (10^3/10^4-leaf collectives):")
    entry = run_scale(args.quick)
    scope = "quick" if args.quick else "full"
    path = args.output_dir / "BENCH_scale.json"
    if args.check:
        return 1 if check_scale(path, entry, scope) else 0

    doc = {
        "benchmark": "macro-event vs object-event collective wall-clock",
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.system().lower(),
        },
        "note": (
            "1k dual-path scales assert bit-identical simulated time, "
            "values, and superstep marks before timing; 10k scales run "
            "the macro path only; macro_seconds is the best of the "
            "repeats, object_seconds a single run"
        ),
        scope: entry,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        previous = json.loads(path.read_text())
        for key in ("full", "quick"):
            if key in previous and key not in doc:
                doc[key] = previous[key]
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
