"""Figure 4: one-to-all broadcast performance on the simulated testbed.

* **Fig. 4(a)** — improvement factor ``T_s / T_f`` of rooting the
  two-phase broadcast on the fastest processor.
* **Fig. 4(b)** — improvement factor ``T_u / T_b`` of balancing the
  two-phase first-phase shares by ``c_j``.

The HBSP^k analysis predicts both factors stay near 1: "the broadcast
operation ... effectively cannot exploit heterogeneity.  Since the
slowest processor must receive ``n`` items, its cost will dictate the
complexity of the algorithm."
"""

from __future__ import annotations

import typing as t

from repro.bytemark import simulate_scores
from repro.cluster.presets import ucf_testbed
from repro.collectives import RootPolicy
from repro.perf import SimJob, evaluate
from repro.experiments.fig3_gather import (
    DEFAULT_NOISE_SIGMA,
    PROBLEM_SIZES_KB,
    PROCESSOR_COUNTS,
)
from repro.experiments.improvement import ExperimentReport, _items, improvement_factor

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.collectives.schedules import SchedulePolicy

__all__ = ["fig4a_broadcast_root", "fig4b_broadcast_balance"]


def fig4a_broadcast_root(
    sizes_kb: t.Sequence[int] = PROBLEM_SIZES_KB,
    processor_counts: t.Sequence[int] = PROCESSOR_COUNTS,
    *,
    seed: int = 0,
    schedule: "SchedulePolicy | str | None" = None,
) -> ExperimentReport:
    """Fig. 4(a): two-phase broadcast ``T_s/T_f`` vs ``p``.

    ``schedule="tuned"`` replaces the fixed two-phase schedule with the
    auto-tuned plan for each ``(machine, n, root)`` grid point.
    """
    from repro.collectives.schedules import resolve_plan

    grid = [(size_kb, p) for size_kb in sizes_kb for p in processor_counts]
    testbeds = {p: ucf_testbed(p) for p in processor_counts}
    jobs = []
    for size_kb, p in grid:
        topology = testbeds[p]
        for root in (RootPolicy.SLOWEST, RootPolicy.FASTEST):
            kwargs: dict[str, t.Any] = {}
            plan = resolve_plan(
                topology, "broadcast", _items(size_kb), schedule, root=root
            )
            if plan is not None:
                kwargs["plan"] = plan
            jobs.append(
                SimJob.collective(
                    "broadcast", topology, _items(size_kb), root=root,
                    phases="two", seed=seed, **kwargs,
                )
            )
    results = evaluate(jobs)
    series: dict[str, dict[int, float]] = {}
    for index, (size_kb, p) in enumerate(grid):
        t_s, t_f = results[2 * index].time, results[2 * index + 1].time
        series.setdefault(f"{size_kb} KB", {})[p] = improvement_factor(t_s, t_f)
    return ExperimentReport(
        experiment_id="fig4a",
        title="Broadcast performance, T_s/T_f (fast root vs slow root)",
        x_name="p",
        series=series,
        notes=[
            "expected shape: negligible improvement (factor stays near 1)",
            "residual benefit comes from P_f distributing the n/p shares "
            "during the first phase — exactly the paper's reading",
        ],
    )


def fig4b_broadcast_balance(
    sizes_kb: t.Sequence[int] = PROBLEM_SIZES_KB,
    processor_counts: t.Sequence[int] = PROCESSOR_COUNTS,
    *,
    seed: int = 0,
    noise_sigma: float = DEFAULT_NOISE_SIGMA,
    score_seed: int = 2001,
) -> ExperimentReport:
    """Fig. 4(b): two-phase broadcast ``T_u/T_b`` vs ``p``.

    ``T_b`` distributes the first-phase shares proportionally to the
    noisy BYTEmark ``c_j`` (``P_j`` receives ``c_j·n`` in phase one);
    ``T_u`` uses equal shares.
    """
    grid = [(size_kb, p) for size_kb in sizes_kb for p in processor_counts]
    testbeds = {p: ucf_testbed(p) for p in processor_counts}
    scores = {
        p: simulate_scores(topology, noise_sigma=noise_sigma, seed=score_seed)
        for p, topology in testbeds.items()
    }
    jobs = []
    for size_kb, p in grid:
        for balanced in (False, True):
            jobs.append(
                SimJob.collective(
                    "broadcast", testbeds[p], _items(size_kb), root=RootPolicy.FASTEST,
                    phases="two", balanced_shares=balanced, scores=scores[p], seed=seed,
                )
            )
    results = evaluate(jobs)
    series: dict[str, dict[int, float]] = {}
    for index, (size_kb, p) in enumerate(grid):
        t_u, t_b = results[2 * index].time, results[2 * index + 1].time
        series.setdefault(f"{size_kb} KB", {})[p] = improvement_factor(t_u, t_b)
    return ExperimentReport(
        experiment_id="fig4b",
        title="Broadcast performance, T_u/T_b (balanced vs equal shares)",
        x_name="p",
        series=series,
        notes=[
            "expected shape: no benefit (factor ~1, sometimes below)",
            "driver: every processor must receive all n items, so share "
            "balancing cannot help (Section 5.3)",
        ],
    )
