"""Robustness: Fig. 3/4 improvement factors under injected faults.

The paper's testbed is explicitly *non-dedicated*: "the network of
workstations used in the experiments was not dedicated" and observed
times fluctuate with other users' load.  This experiment asks whether
the paper's two headline effects survive that reality:

* ``T_s/T_f`` — rooting on the fastest processor still wins;
* ``T_u/T_b`` — BYTEmark-balanced workloads still win (where they did);

re-measured under deterministic fault plans from :mod:`repro.faults`:

* **straggler** — one mid-ranked workstation slowed 4x for the whole
  run (someone else's job landed on it);
* **congestion** — the shared Ethernet's effective gap tripled and
  2 ms of extra latency added (cross-traffic);
* **flaky** — stochastic message drops/delays, survived via a
  retry :class:`~repro.pvm.DeliveryPolicy` (timeout + bounded
  exponential backoff).

Every factor should remain finite and the whole report is a pure
function of ``seed`` — re-running with the same seed reproduces it
bit-for-bit.
"""

from __future__ import annotations

import typing as t

from repro.cluster.presets import ucf_testbed
from repro.collectives import RootPolicy, WorkloadPolicy
from repro.experiments.improvement import ExperimentReport, _items, improvement_factor
from repro.perf import SimJob, evaluate
from repro.faults import (
    DeliveryPolicy,
    FaultPlan,
    congestion_plan,
    flaky_network_plan,
    straggler_plan,
)

__all__ = [
    "ROBUSTNESS_SIZE_KB",
    "ROBUSTNESS_PROCESSOR_COUNTS",
    "robustness_plans",
    "robustness_report",
]

#: One representative problem size (the paper's mid-range point).
ROBUSTNESS_SIZE_KB = 250

#: Swept processor counts (subset of the testbed's 2-10 range).
ROBUSTNESS_PROCESSOR_COUNTS: tuple[int, ...] = (2, 4, 6, 8, 10)

#: Retry policy used under the flaky plan: generous timeout, 3 retries.
FLAKY_DELIVERY = DeliveryPolicy.retry(3, timeout=0.25)


def robustness_plans(topology) -> dict[str, tuple[FaultPlan, DeliveryPolicy | None]]:
    """The scenario table: label -> (plan, delivery policy).

    The straggler is a mid-ranked machine (slowing the fastest or
    slowest would change *which* machine the root policies pick, not
    just how long things take); congestion hits the shared LAN.
    """
    machines = topology.machines
    straggler = machines[len(machines) // 2].name
    network = topology.clusters[0].network.name
    return {
        "baseline": (FaultPlan.empty(), None),
        "straggler": (straggler_plan(straggler, factor=4.0), None),
        "congestion": (
            congestion_plan(network, gap_factor=3.0, extra_latency=2e-3),
            None,
        ),
        "flaky": (
            flaky_network_plan(network, drop_prob=0.02, delay_prob=0.05,
                               delay_mean=5e-3),
            FLAKY_DELIVERY,
        ),
    }


def robustness_report(
    processor_counts: t.Sequence[int] = ROBUSTNESS_PROCESSOR_COUNTS,
    *,
    size_kb: int = ROBUSTNESS_SIZE_KB,
    seed: int = 1,
) -> ExperimentReport:
    """Improvement factors under fault plans, one series per scenario.

    Four metric blocks (gather/broadcast x T_s/T_f, T_u/T_b), each
    with one series per fault scenario; the baseline series reproduces
    the fault-free figures at this size.
    """
    n = _items(size_kb)
    # Six sims per (p, scenario) grid point: gather {slow root, fast
    # root, balanced}, broadcast {slow root, fast root, balanced}.
    grid: list[tuple[int, str]] = []
    jobs: list[SimJob] = []
    for p in processor_counts:
        topology = ucf_testbed(p)
        for label, (plan, delivery) in robustness_plans(topology).items():
            grid.append((p, label))
            kwargs: dict[str, t.Any] = dict(seed=seed, faults=plan, delivery=delivery)
            jobs.append(SimJob.collective(
                "gather", topology, n, root=RootPolicy.SLOWEST,
                workload=WorkloadPolicy.EQUAL, **kwargs))
            jobs.append(SimJob.collective(
                "gather", topology, n, root=RootPolicy.FASTEST,
                workload=WorkloadPolicy.EQUAL, **kwargs))
            jobs.append(SimJob.collective(
                "gather", topology, n, root=RootPolicy.FASTEST,
                workload=WorkloadPolicy.BALANCED, **kwargs))
            jobs.append(SimJob.collective(
                "broadcast", topology, n, root=RootPolicy.SLOWEST, **kwargs))
            jobs.append(SimJob.collective(
                "broadcast", topology, n, root=RootPolicy.FASTEST, **kwargs))
            jobs.append(SimJob.collective(
                "broadcast", topology, n, root=RootPolicy.FASTEST,
                balanced_shares=True, **kwargs))
    results = evaluate(jobs)
    series: dict[str, dict[int, float]] = {}
    for index, (p, label) in enumerate(grid):
        t_s, t_f, t_b, b_s, b_f, b_b = (
            result.time for result in results[6 * index:6 * index + 6]
        )
        series.setdefault(f"gather Ts/Tf [{label}]", {})[p] = (
            improvement_factor(t_s, t_f)
        )
        series.setdefault(f"gather Tu/Tb [{label}]", {})[p] = (
            improvement_factor(t_f, t_b)
        )
        series.setdefault(f"bcast Ts/Tf [{label}]", {})[p] = (
            improvement_factor(b_s, b_f)
        )
        series.setdefault(f"bcast Tu/Tb [{label}]", {})[p] = (
            improvement_factor(b_f, b_b)
        )
    return ExperimentReport(
        experiment_id="robustness",
        title=(
            f"Fig. 3/4 improvement factors under fault injection "
            f"({size_kb} KB, seed={seed})"
        ),
        x_name="p",
        series=series,
        notes=[
            "baseline series = the fault-free Fig. 3/4 points at this size",
            "expected: Ts/Tf stays > 1 for p > 2 under every scenario "
            "(the fast-root advantage survives stragglers and congestion)",
            "flaky scenario runs with retry(3, timeout=0.25s) delivery; "
            "drops cost a timeout + backoff, inflating absolute times "
            "but the *factors* stay finite",
            "deterministic: same seed -> bit-identical report",
        ],
    )
