"""Self-test of the benchmark harness: ``python -m pytest bench/tests``.

Tier-1's ``testpaths = ["tests"]`` does not collect this directory; it
takes about two minutes because it runs every workload at smoke size
three times (untraced, traced, and once more for determinism).
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT))

from bench import compare, spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    """One traced and one untraced smoke run of every workload."""
    out = tmp_path_factory.mktemp("bench")
    first = run_bench("--smoke", "--trace", "--out", str(out / "a.json"))
    assert first.returncode == 0, first.stdout + first.stderr
    start = time.perf_counter()
    second = run_bench("--smoke", "--out", str(out / "b.json"))
    seconds = time.perf_counter() - start
    assert second.returncode == 0, second.stdout + second.stderr
    return {
        "a": json.loads((out / "a.json").read_text()),
        "b": json.loads((out / "b.json").read_text()),
        "seconds": seconds,
        "stdout": second.stdout,
    }


def test_smoke_is_quick_and_prints_every_metric(smoke):
    assert smoke["seconds"] < 45, f"--smoke took {smoke['seconds']:.1f} s"
    for name, workload in smoke["b"]["workloads"].items():
        for metric in workload["end_to_end"]:
            assert re.search(rf"{name}\s+{re.escape(metric)}\s", smoke["stdout"])


def test_benchmark_json_matches_the_spec_and_the_contract():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == spec.benchmark_json()
    assert set(document) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert 1 <= document["run_seconds"] <= 60
    names = [w["name"] for w in document["workloads"]]
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 <= metric["bound"] <= 0.25
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in document["end_to_end"] + document["per_layer"]:
        names.append(metric["name"])
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(name) for name in names) and len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in document["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_result_schema(smoke):
    known_end_to_end = {m.name: m for m in spec.END_TO_END}
    known_per_layer = {m.name: m for m in spec.PER_LAYER}
    result = smoke["a"]
    assert list(result["workloads"]) == list(spec.WORKLOADS)
    for name, workload in result["workloads"].items():
        for metric, entry in workload["end_to_end"].items():
            assert entry["unit"] == known_end_to_end[metric].unit
            applies = known_end_to_end[metric].where
            assert applies == "all" or name in applies.split()
        assert {"setup_s", "op_s_p50", "work_per_s", "peak_rss_mb", "failed_frac"} <= set(
            workload["end_to_end"])
        for metric, entry in workload["traced"]["per_layer"].items():
            assert entry["unit"] == known_per_layer[metric].unit
        assert workload["failed"] == 0, workload["failures"]
        assert workload["traced"]["failed"] == 0, workload["traced"]["failures"]
    # Every per-layer metric is produced by at least one workload.
    produced = set().union(*(w["traced"]["per_layer"] for w in result["workloads"].values()))
    assert produced == set(known_per_layer)
    assert result["pinned"], "bench/expected/smoke-seed0.json should pin the smoke run"


def test_two_runs_give_identical_digests_and_counts(smoke):
    exact = [m.name for m in spec.END_TO_END if m.bound == 0.0]
    for name in spec.WORKLOADS:
        a, b = smoke["a"]["workloads"][name], smoke["b"]["workloads"][name]
        assert a["pins"] == b["pins"]
        assert a["impl_counts"] == b["impl_counts"]
        assert a["impl_counts_repeat"] and b["impl_counts_repeat"]
        for metric in exact:
            assert a["end_to_end"].get(metric) == b["end_to_end"].get(metric)
    rows, bad = compare.compare(smoke["a"], smoke["b"])
    assert not bad, rows


def test_span_self_times_are_consistent(smoke):
    for name in spec.WORKLOADS:
        trace = json.loads((BENCH / "out" / f"trace-{name}.json").read_text())
        spans = trace["spans"]
        own = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                own[parent] -= end - start
                assert spans[parent][1] <= start and end <= spans[parent][2]
        assert min(own) > -1e-5
        rounds = [i for i, span in enumerate(spans)
                  if trace["names"][span[0]]["name"] == "round"]
        assert rounds
        for index in rounds:
            _, start, end, _, round_id = spans[index]
            inside = sum(s for s, span in zip(own, spans) if span[4] == round_id)
            assert inside <= (end - start) + 1e-5


def test_a_corrupted_pin_fails_the_op(tmp_path):
    pins = tmp_path / "expected"
    written = run_bench("--smoke", "--workload", "macro_scale", "--update-expected",
                        "--expected-dir", str(pins))
    assert written.returncode == 0, written.stderr
    assert json.loads(written.stdout.splitlines()[-1])["correct"] is True
    pin_file = pins / "smoke-seed0.json"
    document = json.loads(pin_file.read_text())
    document["workloads"]["macro_scale"]["bcast_ft_macro"]["digest"] = "0" * 64
    pin_file.write_text(json.dumps(document))
    checked = run_bench("--smoke", "--workload", "macro_scale", "--expected-dir", str(pins))
    assert checked.returncode == 0, checked.stderr
    line = json.loads(checked.stdout.splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0
    assert "differs from the pin" in checked.stderr


def test_driver_lines_carry_every_listed_metric():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, listed in (("0", document["end_to_end"]), ("1", document["per_layer"])):
        done = run_bench("--workload", "model_pricing", "--seed", "3", "--seconds", "0",
                         "--trace", trace, "--smoke")
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
        assert list(line["metrics"]) == [m["name"] for m in listed]
        for metric in listed:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench("--workload", "sweep_cold", "--seed", "0", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_compare_flags_regressions_and_refuses_other_machines(smoke):
    parent = smoke["a"]
    change = copy.deepcopy(parent)
    slow = change["workloads"]["tune_cold"]
    slow["end_to_end"]["op_s_p50"]["value"] *= 1.5
    slow["samples"]["op_s"] = [s * 1.5 for s in slow["samples"]["op_s"]]
    slow["end_to_end"]["failed_frac"]["value"] = 0.25
    rows, bad = compare.compare(parent, change)
    verdicts = {(w, m): v for w, m, v, _ in rows}
    assert bad
    assert verdicts[("tune_cold", "op_s_p50")] == "regression"
    assert verdicts[("tune_cold", "failed_frac")] == "regression"
    assert verdicts[("sweep_cold", "op_s_p50")] == "ok"

    change["machine"]["cpu_count"] = 64
    rows, bad = compare.compare(parent, change)
    verdicts = {(w, m): v for w, m, v, _ in rows}
    assert verdicts[("tune_cold", "op_s_p50")] == "refused"
    assert verdicts[("tune_cold", "failed_frac")] == "regression" and bad
