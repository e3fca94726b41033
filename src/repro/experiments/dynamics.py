"""Graceful degradation under churn: goodput and p99 vs churn rate.

The robustness story of :mod:`repro.dynamics` is that a serving session
degrades *gracefully* when machines leave and rejoin mid-run: requests
caught on a dying slice are re-dispatched onto the surviving members
(bounded retries, then shed), placement re-plans per membership epoch,
and the visible cost is a latency tail and a degraded-completion
fraction — not a cliff.  This experiment sweeps seeded Poisson churn
(:func:`repro.dynamics.churn_plan`) at a fixed offered load on the
two-LAN campus machine and reports goodput, p99 latency, the fraction
of completions served on a degraded slice, and the shed fraction
against the churn rate.  Churn rate 0 is the empty plan — bit-identical
to the static session, so the leftmost point doubles as the no-op
baseline.

Determinism: the churn timeline is a pure function of ``(machines,
rate, duration, seed)`` via ``RngStream(seed, "dynamics", "churn")``,
arrivals are pure functions of the config seed, and each churn point
prewars its own expanded slice table (degraded variants differ per
plan) through one deterministic :func:`repro.perf.evaluate` batch.
Inside a ``sweep(cache_dir=...)`` each churn point's row is one entry
of the sweep's disk tier, so a warm sweep replays no session.
"""

from __future__ import annotations

import typing as t

from repro.experiments.improvement import ExperimentReport
from repro.experiments.serving import serving_config
from repro.perf import cached_point

__all__ = ["dynamics_curves", "CHURN_RATES", "DYNAMICS_OFFERED_RATE"]

#: Churn grid in leave events per simulated second.  At 20 s sessions
#: this spans "nothing happens" to "a machine dies every second".
CHURN_RATES: tuple[float, ...] = (0.0, 0.05, 0.1, 0.25, 0.5, 1.0)

#: Offered load for every point: just below the static knee, so lost
#: capacity shows up as queueing/shedding rather than idle headroom.
DYNAMICS_OFFERED_RATE = 16.0

#: The stored row of one churn point: what the report reads of a session.
_ROW_SHAPE = {
    "goodput": float, "p99": float, "degraded": float, "shed": float, "epochs": int,
}


def dynamics_curves(
    churn_rates: t.Sequence[float] = CHURN_RATES,
    *,
    seed: int = 0,
    offered_rate: float = DYNAMICS_OFFERED_RATE,
) -> ExperimentReport:
    """Sweep churn rate; report goodput, p99, degraded and shed fractions."""
    from repro.dynamics import churn_plan
    from repro.serve.service import resolve_cluster, run_service

    base = serving_config(offered_rate, seed=seed)
    machines = [m.name for m in resolve_cluster(base.cluster).machines]

    rows: dict[float, dict] = {}
    for rate in churn_rates:
        plan = churn_plan(
            machines, rate=rate, duration=base.duration, seed=seed
        )

        def session() -> dict:
            report = run_service(base, dynamics=plan)
            return {
                "goodput": report.goodput,
                "p99": report.latency_p99,
                "degraded": (
                    report.degraded / report.completed if report.completed else 0.0
                ),
                "shed": (
                    (report.shed + report.degraded_shed) / report.offered
                    if report.offered
                    else 0.0
                ),
                "epochs": report.epochs,
            }

        rows[rate] = cached_point("dynamics", (base, plan), session, _ROW_SHAPE)
    max_epochs = max([1, *(row["epochs"] for row in rows.values())])
    return ExperimentReport(
        experiment_id="dynamics",
        title=(
            "serving under churn on two-lans:3 — goodput and p99 vs "
            "churn rate"
        ),
        x_name="churn (leaves/s)",
        series={
            label: {rate: row[field] for rate, row in rows.items()}
            for label, field in (
                ("goodput (req/s)", "goodput"),
                ("p99 latency (s)", "p99"),
                ("degraded fraction", "degraded"),
                ("shed fraction", "shed"),
            )
        },
        notes=[
            f"fixed offered load {offered_rate:g} req/s; churn is seeded "
            "Poisson leave/rejoin (churn_plan), outage mean duration/10",
            "churn 0 is the empty DynamicPlan — bit-identical to the "
            "static session, the graceful-degradation baseline",
            "degraded fraction counts completions served on a reduced "
            "slice variant; shed fraction adds requests dropped after "
            "exhausting max_redispatch to admission-control sheds",
            f"membership epochs peak at {max_epochs} across the sweep; "
            "placement re-plans against each epoch's surviving members",
        ],
    )
