"""Ablations: which simulator mechanisms produce which paper findings.

DESIGN.md §7 claims three runtime effects explain the paper's
experimental curves beyond what the clean cost model predicts.  Each
ablation removes one mechanism and re-measures the finding it is
supposed to produce:

* **pack-cost asymmetry** (packing costs more CPU than unpacking) →
  removing it kills the Fig. 3(a) inversion at p = 2;
* **NIC drain serialization** (one port, transfers queue) → removing
  it flattens the growth-with-p of the Fig. 3(a) improvement;
* **rank noise** (BYTEmark mis-estimation) → removing it makes
  balanced workloads strictly helpful in Fig. 3(b)'s regime.
"""

from __future__ import annotations

import dataclasses
import typing as t

import numpy as np

from repro.bytemark import simulate_scores, true_scores
from repro.cluster.machine import MachineSpec
from repro.cluster.presets import ucf_testbed
from repro.cluster.topology import Cluster, ClusterTopology
from repro.collectives.schedules import RootPolicy, WorkloadPolicy
from repro.experiments.improvement import ExperimentReport, _items, improvement_factor
from repro.model.kernels import GatherKernel, balanced_counts, equal_counts
from repro.model.params import calibrate
from repro.perf import SimJob, evaluate
from repro.util.tables import AsciiTable

__all__ = [
    "symmetric_pack_topology",
    "ablation_pack_asymmetry",
    "ablation_nic_serialization",
    "ablation_rank_noise",
    "ablation_report",
]


def symmetric_pack_topology(topology: ClusterTopology) -> ClusterTopology:
    """A copy of ``topology`` whose machines pack as cheaply as they
    unpack (and with no fixed per-message overhead)."""

    def rebuild(node: Cluster | MachineSpec) -> Cluster | MachineSpec:
        if isinstance(node, MachineSpec):
            symmetric = (node.pack_cost + node.unpack_cost) / 2
            return dataclasses.replace(
                node, pack_cost=symmetric, unpack_cost=symmetric, msg_overhead=0.0
            )
        return Cluster(node.name, node.network, [rebuild(c) for c in node.children])

    return ClusterTopology(t.cast(Cluster, rebuild(topology.root)))


def _gather_job(
    topology: ClusterTopology,
    n: int,
    *,
    root: RootPolicy,
    workload: WorkloadPolicy = WorkloadPolicy.EQUAL,
    scores: t.Mapping[str, float] | None = None,
    serialize_nic: bool = True,
    seed: int = 0,
) -> SimJob:
    return SimJob.collective(
        "gather", topology, n, root=root, workload=workload,
        scores=scores, serialize_nic=serialize_nic, seed=seed,
    )


def ablation_pack_asymmetry(size_kb: int = 500, *, seed: int = 0) -> dict[str, float]:
    """Fig. 3(a) at p = 2 with and without pack/unpack asymmetry.

    Returns ``{"with": T_s/T_f, "without": T_s/T_f}``; the inversion
    (factor < 1) must disappear when packing is symmetric.
    """
    n = _items(size_kb)
    variants = (
        ("with", ucf_testbed(2)),
        ("without", symmetric_pack_topology(ucf_testbed(2))),
    )
    jobs = [
        _gather_job(topology, n, root=root, seed=seed)
        for _label, topology in variants
        for root in (RootPolicy.SLOWEST, RootPolicy.FASTEST)
    ]
    results = evaluate(jobs)
    return {
        label: improvement_factor(results[2 * i].time, results[2 * i + 1].time)
        for i, (label, _topology) in enumerate(variants)
    }


def ablation_nic_serialization(
    size_kb: int = 500, p: int = 10, *, seed: int = 0
) -> dict[str, float]:
    """Gather time at large p with and without NIC drain serialization.

    Returns ``{"with": T_f, "without": T_f, "contention_cost": ratio}``.
    Port contention at the root is a large share of the absolute gather
    time (the ``contention_cost`` ratio), while — an ablation *finding*
    — the T_s/T_f improvement factor itself is robust to it: the
    root-side bottleneck that grows with p is the serialized drain +
    unpack work at the root, and removing the port queue only shifts
    that cost onto the root's CPU.
    """
    n = _items(size_kb)
    jobs = [
        _gather_job(
            ucf_testbed(p), n, root=RootPolicy.FASTEST,
            serialize_nic=serialize, seed=seed,
        )
        for serialize in (True, False)
    ]
    results = evaluate(jobs)
    out = {"with": results[0].time, "without": results[1].time}
    out["contention_cost"] = out["with"] / out["without"]
    return out


def ablation_rank_noise(
    size_kb: int = 500, p: int = 6, *, seed: int = 0, noise_sigma: float = 0.5
) -> dict[str, float]:
    """Fig. 3(b) with noisy vs perfect BYTEmark scores.

    Returns ``{"noisy": T_u/T_b, "clean": T_u/T_b}``; perfect scores
    give balanced workloads their full (if modest) advantage, noisy
    scores erode it — the paper's c_j mis-estimation effect.
    """
    n = _items(size_kb)
    topology = ucf_testbed(p)
    variants = (
        ("noisy", simulate_scores(topology, noise_sigma=noise_sigma, seed=2001)),
        ("clean", true_scores(topology)),
    )
    jobs = [
        _gather_job(
            topology, n, root=RootPolicy.FASTEST,
            workload=workload, scores=scores, seed=seed,
        )
        for _label, scores in variants
        for workload in (WorkloadPolicy.EQUAL, WorkloadPolicy.BALANCED)
    ]
    results = evaluate(jobs)
    return {
        label: improvement_factor(results[2 * i].time, results[2 * i + 1].time)
        for i, (label, _scores) in enumerate(variants)
    }


def _model_reference(size_kb: int = 500) -> AsciiTable:
    """What the clean cost model predicts for each ablated finding.

    The model has no pack asymmetry, port queue or score noise, so its
    kernel-evaluated numbers are the mechanism-free baseline the
    ablations should converge to when a mechanism is switched off.
    """
    n = _items(size_kb)
    table = AsciiTable(
        "cost-model reference (kernels; no runtime mechanisms)",
        ["finding", "model value"],
    )
    ns = np.array([n, n], dtype=np.int64)
    # p=2 root choice: slowest vs fastest root, equal shares (Fig 3a).
    params2 = calibrate(ucf_testbed(2))
    roots = np.array(
        [params2.slowest_index(0), params2.fastest_index(0)], dtype=np.int64
    )
    totals = GatherKernel(params2).evaluate(
        ns, roots=roots, counts=equal_counts(params2, ns)
    ).totals
    table.add_row(
        ["pack asymmetry (p=2 Ts/Tf)",
         improvement_factor(float(totals[0]), float(totals[1]))]
    )
    # p=10 absolute gather cost at the fastest root.
    params10 = calibrate(ucf_testbed(10))
    t_f = float(
        GatherKernel(params10).evaluate(ns[:1]).totals[0]
    )
    table.add_row(["NIC serialization (p=10 T_f seconds)", t_f])
    # p=6 workload balance: equal vs speed-proportional shares.
    params6 = calibrate(ucf_testbed(6))
    counts = np.concatenate(
        [equal_counts(params6, ns[:1]), balanced_counts(params6, ns[1:])]
    )
    totals = GatherKernel(params6).evaluate(ns, counts=counts).totals
    table.add_row(
        ["rank noise (p=6 Tu/Tb)",
         improvement_factor(float(totals[0]), float(totals[1]))]
    )
    return table


def ablation_report(*, seed: int = 0) -> ExperimentReport:
    """All three ablations as one report (bench target ``ablations``)."""
    pack = ablation_pack_asymmetry(seed=seed)
    nic = ablation_nic_serialization(seed=seed)
    noise = ablation_rank_noise(seed=seed)
    series = {
        "mechanism on": {
            "pack asymmetry (p=2 Ts/Tf)": pack["with"],
            "NIC serialization (p=10 T_f seconds)": nic["with"],
            "rank noise (p=6 Tu/Tb)": noise["noisy"],
        },
        "mechanism off": {
            "pack asymmetry (p=2 Ts/Tf)": pack["without"],
            "NIC serialization (p=10 T_f seconds)": nic["without"],
            "rank noise (p=6 Tu/Tb)": noise["clean"],
        },
    }
    return ExperimentReport(
        experiment_id="ablations",
        title="Mechanism ablations behind the Figure 3 findings",
        x_name="finding",
        series=series,
        notes=[
            "pack asymmetry on: Ts/Tf < 1 at p=2 (the paper's inversion); "
            "off: the inversion disappears (factor >= ~1)",
            f"NIC port contention accounts for a "
            f"{100 * (nic['contention_cost'] - 1):.0f}% slowdown of the "
            "absolute gather time at p=10 — but the Ts/Tf improvement is "
            "robust to it (the root's serialized unpack produces the growth)",
            "rank noise off: balancing helps more than with noisy scores",
            "the appendix lists the clean cost model's kernel-evaluated "
            "values: mechanism-free, so the distance between a 'mechanism "
            "on' row and the model row is the mechanism's contribution",
        ],
        extra=_model_reference().render(),
    )
