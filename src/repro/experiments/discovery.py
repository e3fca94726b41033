"""Round-trip hierarchy-discovery validation (new subsystem experiment).

For every generator family (:mod:`repro.cluster.discover.generators`):
generate a known topology, synthesize its probe matrix, add seeded
multiplicative measurement noise of increasing strength, run
:func:`~repro.cluster.discover.discover`, and score the recovered
hierarchy against the truth.  The reported quantity is the **recovery
score** ``1 - hierarchy_distance`` (1.0 = every level's partition
recovered exactly; see :mod:`repro.cluster.discover.score`).

Expected shape: every family holds at 1.0 with zero noise (the exact
recovery guarantee the property tests enforce) and degrades gracefully
— latency bands are an order of magnitude apart, so recovery survives
sigma well past realistic ping jitter.

Inside a ``sweep(cache_dir=...)`` each (family, noise) point is one entry
of the sweep's disk tier, keyed by its inputs, so a warm sweep neither
synthesizes nor discovers; with no disk tier nothing is written.
"""

from __future__ import annotations

from repro.cluster.discover import (
    discover,
    exact_recovery,
    hierarchy_distance,
    synthesize,
    topology_partitions,
)
from repro.cluster.discover.generators import GENERATORS
from repro.experiments.improvement import ExperimentReport
from repro.perf import cached_point
from repro.util.rng import derive_seed

__all__ = ["discovery_roundtrip", "FAMILY_SPECS", "NOISE_LEVELS"]

#: Family -> generator kwargs used by the experiment (kept small so the
#: whole sweep runs in seconds; the benchmarks cover 10^3-10^4 leaves).
FAMILY_SPECS: dict[str, dict[str, int]] = {
    "fat_tree": {"pods": 3, "racks_per_pod": 3, "hosts_per_rack": 4},
    "multi_rack": {"racks": 6, "hosts_per_rack": 8},
    "cloud_spot_mix": {"regions": 2, "zones_per_region": 3, "instances_per_zone": 6},
    "multicore_nodes": {"racks": 3, "nodes_per_rack": 4, "cores_per_node": 4},
}

#: Multiplicative noise strengths swept per family (lognormal sigma).
NOISE_LEVELS: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.4, 0.8)

#: The stored entry of one (family, noise) point.
_SCORE_SHAPE = {"score": float, "exact": bool}


def discovery_roundtrip(seed: int = 2001) -> ExperimentReport:
    """Generate -> synthesize(+noise) -> discover -> score, per family.

    One series per generator family; x is the noise sigma, y the
    recovery score ``1 - hierarchy_distance`` against the generating
    truth.  Deterministic in ``seed`` (noise draws derive from it).
    """
    series: dict[str, dict[float, float]] = {}
    exact_at_zero: list[str] = []
    for family, spec in FAMILY_SPECS.items():
        topology = GENERATORS[family](seed=seed, **spec)
        truth = topology_partitions(topology)
        points: dict[float, float] = {}
        for noise in NOISE_LEVELS:
            noise_seed = derive_seed(seed, "discovery", family, str(noise))

            def score():
                result = discover(synthesize(topology, noise=noise, seed=noise_seed))
                return {
                    "score": 1.0 - hierarchy_distance(truth, result.partitions),
                    "exact": noise == 0.0 and exact_recovery(truth, result.partitions),
                }

            point = cached_point(
                "discovery", (topology, noise, noise_seed), score, _SCORE_SHAPE
            )
            points[noise] = point["score"]
            if point["exact"]:
                exact_at_zero.append(family)
        series[family] = points
    notes = [
        "y = 1 - hierarchy_distance(truth, recovered): mean per-level",
        "partition agreement (Rand index), 1.0 = exact at every level.",
        f"exact recovery at sigma=0: {', '.join(exact_at_zero) or 'NONE (bug!)'}",
        "Expected: 1.0 at sigma=0 for every family, graceful decay after",
        "(levels sit an order of magnitude apart, so small ping jitter",
        "cannot merge or split bands).",
    ]
    return ExperimentReport(
        experiment_id="discovery",
        title="hierarchy discovery round-trip: recovery score vs probe noise",
        x_name="noise",
        series=series,
        notes=notes,
    )
