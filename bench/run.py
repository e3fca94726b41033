"""The benchmark's one command: ``python bench/run.py`` from the repo root.

With no ``--workload`` it runs all seven workloads, each in its own
fresh subprocess, prints every end-to-end metric by name with its unit
and sample count, checks every simulated output and writes
``bench/out/result.json`` (``--out``).  ``--trace`` adds the traced
pass: one span file per workload and the per-layer table.

With exactly one ``--workload`` it is the driver's contract: the last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` carrying the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``) that ``BENCHMARK.json`` lists.

Every run is hermetic: ``PYTHONHASHSEED=0``, no bytecode, and ``HOME``,
``TMPDIR``, ``REPRO_CACHE_DIR`` pointed into a scratch directory under
``bench/out/`` that is removed afterwards.  A run that leaves a default
cache behind or touches a file of the repository outside ``bench/out/``
(or ``--out``) fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[0:1] = [str(ROOT)]
sys.dont_write_bytecode = True  # a run leaves nothing behind outside bench/out/

from bench import spec  # noqa: E402

OUT = BENCH / "out"
SCHEMA = "repro.bench/1"


def fingerprint() -> dict:
    """What must match before two files' host times may be compared."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency of repro
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": numpy_version,
        "platform": platform.system().lower(),
    }


def _tree_state(skip: tuple[Path, ...]) -> dict[str, tuple[int, int]]:
    """(mtime, size) of every file of the repository outside ``skip``."""
    state = {}
    for folder, folders, names in os.walk(ROOT):
        here = Path(folder)
        folders[:] = [
            name for name in folders
            if name != ".git" and not any(here / name == path for path in skip)
        ]
        for name in names:
            path = here / name
            if any(path == s for s in skip):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            state[str(path.relative_to(ROOT))] = (stat.st_mtime_ns, stat.st_size)
    return state


def expected_path(expected_dir: Path, profile: str, seed: int) -> Path:
    prefix = "" if profile == "full" else f"{profile}-"
    return expected_dir / f"{prefix}seed{seed}.json"


def run_worker(
    workload: str, *, seed: int, seconds: float, trace: bool, profile: str,
    expected: Path | None, skip: tuple[Path, ...],
) -> dict:
    """One hermetic worker subprocess; returns its result object."""
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"run-{workload}-", dir=OUT))
    home = scratch / "home"
    home.mkdir()
    env = {
        key: value for key, value in os.environ.items()
        if key not in ("XDG_CACHE_HOME", "PYTHONSTARTUP", "PYTHONOPTIMIZE")
    }
    env.update({
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONPATH": str(ROOT / "src"),
        "HOME": str(home),
        "TMPDIR": str(scratch),
        "REPRO_CACHE_DIR": str(scratch / "cache"),
    })
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--profile", profile, "--scratch", str(scratch),
    ]
    if expected is not None:
        command += ["--expected", str(expected)]
    if trace:
        command += ["--trace-out", str(OUT / f"trace-{workload}.json")]
    before = _tree_state(skip)
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=170)
        leaked = sorted(str(p.relative_to(home)) for p in home.rglob("*"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if done.returncode != 0:
        raise SystemExit(f"bench: worker for {workload} exited {done.returncode}")
    if leaked:
        raise SystemExit(f"bench: {workload} wrote under its home directory: {leaked}")
    after = _tree_state(skip)
    if after != before:
        touched = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
        raise SystemExit(f"bench: {workload} touched repository files: {touched}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_end_to_end(results: dict[str, dict]) -> None:
    print(f"\n{'workload':15s} {'metric':24s} {'value':>12s} {'unit':6s} samples")
    for name, result in results.items():
        samples = len(result["samples"]["op_s"])
        for metric, entry in result["end_to_end"].items():
            count = samples if metric in ("op_s_p50", "work_per_s") else 1
            print(f"{name:15s} {metric:24s} {_fmt(entry['value']):>12s} {entry['unit']:6s} {count}")


def print_per_layer(results: dict[str, dict]) -> None:
    for name, result in results.items():
        rounds = result["per_layer"]["harness.samples"]["value"]
        print(f"\n{name}: per-layer metrics (traced pass, {rounds} rounds)")
        for metric, entry in result["per_layer"].items():
            print(f"  {metric:44s} {_fmt(entry['value']):>12s} {entry['unit']}")
        print(f"{name}: self time per traced round, top spans")
        for span, row in list(result["self_time"].items())[:8]:
            print(f"  {span:32s} {row['layer']:12s} self {row['self_s']:8.4f}s  "
                  f"total {row['total_s']:8.4f}s  x{row['count']}")


def report_failures(results: dict[str, dict]) -> int:
    failed = 0
    for name, result in results.items():
        failed += result["failed"]
        for failure in result["failures"]:
            print(f"FAILED {name}: {failure}", file=sys.stderr)
        if not result["impl_counts_repeat"]:
            print(f"note: {name}: implementation counts changed between rounds", file=sys.stderr)
    return failed


def driver_line(result: dict, trace: bool) -> str:
    """The contract's result line for one workload."""
    if trace:
        # The contract wants every listed per-layer metric on every
        # workload; one this workload does not exercise reads 0 here
        # (result.json omits it instead).
        measured = result["per_layer"]
        metrics = {
            m.name: measured.get(m.name, {"value": 0, "unit": m.unit}) for m in spec.PER_LAYER
        }
    else:
        metrics = {name: result["end_to_end"][name] for name in spec.DRIVER_END_TO_END}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(spec.WORKLOADS),
                        help="run only this workload (repeatable; default: all seven)")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives every experiment, item, fault, tuning and serve/churn seed (default 0)")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="timed window per workload: rounds run until it is used up")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="also run the traced pass (span files + per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="harness self-test sizes: one round, 128-leaf machines, 200 s sessions")
    parser.add_argument("--out", type=Path, default=OUT / "result.json",
                        help="where the full result is written")
    parser.add_argument("--expected-dir", type=Path, default=BENCH / "expected",
                        help="directory of pinned simulated outputs")
    parser.add_argument("--update-expected", action="store_true",
                        help="write this run's digests and counts as the seed's pins")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="regenerate BENCHMARK.json from bench/spec.py and exit")
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("bench: src/repro is not here; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    profile = "smoke" if args.smoke else "full"
    seconds = 0.0 if args.smoke else args.seconds
    names = args.workload or list(spec.WORKLOADS)
    pin_file = expected_path(args.expected_dir, profile, args.seed)
    expected = pin_file if pin_file.is_file() and not args.update_expected else None
    skip = (OUT, args.out.resolve(), args.expected_dir.resolve())
    driver = args.workload is not None and len(names) == 1
    common = {"seed": args.seed, "seconds": seconds, "profile": profile,
              "expected": expected, "skip": skip}

    if driver:
        result = run_worker(names[0], trace=bool(args.trace), **common)
        report_failures({names[0]: result})
        if args.update_expected:
            _write_pins(pin_file, profile, args.seed, {names[0]: result})
        print(driver_line(result, bool(args.trace)))
        return 0

    print(f"bench: seed {args.seed}, profile {profile}, window {seconds:g} s, "
          f"pins {'from ' + pin_file.name if expected else 'none (self-consistency only)'}")
    untraced, traced = {}, {}
    for name in names:
        print(f"  {name} ...", flush=True)
        untraced[name] = run_worker(name, trace=False, **common)
        if args.trace:
            traced[name] = run_worker(name, trace=True, **common)
    print_end_to_end(untraced)
    if traced:
        print_per_layer(traced)
    failed = report_failures(untraced) + report_failures(traced)
    if args.update_expected:
        _write_pins(pin_file, profile, args.seed, untraced)
    document = {
        "schema": SCHEMA,
        "command": [*spec.COMMAND, *(argv if argv is not None else sys.argv[1:])],
        "seed": args.seed,
        "profile": profile,
        "seconds": seconds,
        "machine": fingerprint(),
        "pinned": expected is not None,
        "workloads": {
            name: {
                "why": spec.WORKLOADS[name],
                **{k: v for k, v in untraced[name].items() if k not in ("workload", "seed", "profile")},
                **({"traced": {k: traced[name][k] for k in
                               ("per_layer", "self_time", "attempted", "failed", "failures")}}
                   if name in traced else {}),
            }
            for name in names
        },
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"\nwrote {args.out}" + (f" and {len(traced)} span files under {OUT}" if traced else ""))
    print(f"failed ops: {failed}")
    return 1 if failed else 0


def _write_pins(pin_file: Path, profile: str, seed: int, results: dict[str, dict]) -> None:
    document = {"schema": "repro.bench.expected/1", "profile": profile, "seed": seed,
                "workloads": {}}
    if pin_file.is_file():
        document["workloads"] = json.loads(pin_file.read_text())["workloads"]
    for name, result in results.items():
        document["workloads"][name] = result["pins"]
    pin_file.parent.mkdir(parents=True, exist_ok=True)
    pin_file.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {pin_file}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
