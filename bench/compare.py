"""Compare two benchmark results: ``python bench/compare.py A.json B.json``.

``A`` is the parent, ``B`` the change.  One row per workload x
end-to-end metric, applying the bounds of ``bench/spec.py``:

* ``ok`` — B is no worse than A by more than the bound;
* ``regression`` — it is;
* ``unresolved`` — the spread of the two files' per-round samples is
  wider than the bound, and B's samples are not all on one side of A's,
  so the medians cannot settle it;
* ``refused`` — a host-time metric, and the two files were cut on
  different machines (``cpu_count``, Python major.minor, numpy
  version).  Simulated metrics, counts and ``failed_frac`` are still
  compared: they do not depend on the host.  (The Helix artifact in
  SNIPPETS.md is why: same seed, different host, 952 vs 1289.)

Exit code 1 on any regression or any rise in ``failed_frac``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT)]

from bench import spec  # noqa: E402

#: Host-time metrics and the per-round samples that show their spread.
_HOST = {"setup_s": None, "op_s_p50": "op_s", "work_per_s": "op_s", "peak_rss_mb": None}


def _worsening(metric: spec.Metric, a: float, b: float) -> float:
    """By what share of A's value B is worse (negative = better)."""
    if a == 0:
        change = 0.0 if b == 0 else float("inf") if b > 0 else float("-inf")
    else:
        change = (b - a) / abs(a)
    return change if metric.better == "lower" else -change


def _spread(samples: list[float]) -> float:
    ordered = sorted(samples)
    middle = ordered[len(ordered) // 2]
    return (ordered[-1] - ordered[0]) / middle if middle else 0.0


def verdict(metric: spec.Metric, a: dict, b: dict) -> tuple[str, str]:
    """``(ok | regression | unresolved, detail)`` for one row."""
    value_a = a["end_to_end"][metric.name]["value"]
    value_b = b["end_to_end"][metric.name]["value"]
    worse = _worsening(metric, value_a, value_b)
    detail = f"{value_a:.6g} -> {value_b:.6g} ({worse:+.1%} worse, bound {metric.bound:.0%})"
    sample_key = _HOST.get(metric.name)
    if sample_key:
        samples_a, samples_b = a["samples"][sample_key], b["samples"][sample_key]
        spread = max(_spread(samples_a), _spread(samples_b))
        if spread > metric.bound:
            # Round seconds: lower is better for op_s_p50, and work_per_s
            # moves inversely with the same samples.
            if max(samples_b) < min(samples_a):
                return "ok", detail + "; every round of B beats every round of A"
            if min(samples_b) > max(samples_a) and worse > metric.bound:
                return "regression", detail + "; every round of B is behind every round of A"
            return "unresolved", detail + f"; per-round spread {spread:.1%} exceeds the bound"
    return ("regression" if worse > metric.bound else "ok"), detail


def machine_mismatch(a: dict, b: dict) -> str | None:
    for key in ("cpu_count", "python", "numpy"):
        if a["machine"].get(key) != b["machine"].get(key):
            return f"{key} {a['machine'].get(key)} != {b['machine'].get(key)}"
    return None


def compare(a: dict, b: dict) -> tuple[list[tuple[str, str, str, str]], bool]:
    """Rows ``(workload, metric, verdict, detail)`` and whether any gate failed."""
    rows = []
    bad = False
    mismatch = machine_mismatch(a, b)
    if a.get("seed") != b.get("seed") or a.get("profile") != b.get("profile"):
        raise SystemExit("compare: the two files use different seeds or profiles")
    for workload in spec.WORKLOADS:
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            rows.append((workload, "-", "missing", "not in both files"))
            continue
        for metric in spec.END_TO_END:
            if metric.name not in wa["end_to_end"] or metric.name not in wb["end_to_end"]:
                continue
            if mismatch and metric.name in _HOST:
                rows.append((workload, metric.name, "refused", f"different machines: {mismatch}"))
                continue
            result, detail = verdict(metric, wa, wb)
            bad |= result == "regression"
            rows.append((workload, metric.name, result, detail))
        if wa["pins"] != wb["pins"]:
            changed = sorted(op for op in wa["pins"].keys() | wb["pins"].keys()
                             if wa["pins"].get(op) != wb["pins"].get(op))
            bad = True
            rows.append((workload, "simulated outputs", "regression",
                         f"digest or counts differ for: {', '.join(changed)}"))
        if wa["impl_counts"] != wb["impl_counts"]:
            rows.append((workload, "implementation counts", "changed",
                         "events / jobs computed / validated differ (allowed, not gated)"))
    return rows, bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="parent result (bench/out/result.json of the parent)")
    parser.add_argument("b", type=Path, help="change result")
    args = parser.parse_args(argv)
    rows, bad = compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()))
    for workload, metric, result, detail in rows:
        print(f"{workload:15s} {metric:24s} {result:11s} {detail}")
    counts = {}
    for _, _, result, _ in rows:
        counts[result] = counts.get(result, 0) + 1
    print(", ".join(f"{count} {result}" for result, count in sorted(counts.items())))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
