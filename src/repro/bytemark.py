"""BYTEmark-style machine scores, the speed ranking, and workload shares.

The paper (Section 5.1) ranks testbed processors with the BYTEmark
benchmark and derives the workload fractions ``c_j`` "using the
BYTEmark results".  This module simulates the scores and implements
that derivation:

* :func:`true_scores` — each machine's index is exactly its
  :attr:`~repro.cluster.MachineSpec.cpu_rate`;
* :func:`simulate_scores` — the same, times seeded log-normal
  measurement noise (the testbed was non-dedicated).  The
  ``ablations`` experiment runs Fig. 3(b)'s gather with this noise on
  and off and prints ``T_u/T_b`` = 1.457 on, 1.224 off, so there the
  noise does not erode balancing (ROADMAP item 16);
* :func:`ranking_from_scores`, :func:`fractions_from_scores` — scores →
  speed ranking and ``c_j`` fractions;
* :func:`partition_items` — the integer partition that hands out whole
  data items.
"""

from __future__ import annotations

import math
import typing as t

from repro.errors import PartitionError, ValidationError
from repro.util.rng import RngStream
from repro.util.validation import check_non_negative, check_positive_int

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import ClusterTopology

__all__ = [
    "simulate_scores",
    "true_scores",
    "ranking_from_scores",
    "fractions_from_scores",
    "partition_items",
]


def true_scores(topology: "ClusterTopology") -> dict[str, float]:
    """Noise-free BYTEmark indices: exactly each machine's ``cpu_rate``."""
    return {m.name: float(m.cpu_rate) for m in topology.machines}


def simulate_scores(
    topology: "ClusterTopology",
    *,
    noise_sigma: float = 0.08,
    seed: int = 2001,
) -> dict[str, float]:
    """Simulated BYTEmark indices for every machine of ``topology``.

    Each machine's index is its true ``cpu_rate`` scaled by a log-normal
    measurement-noise factor (median 1.0, shape ``noise_sigma``).  The
    per-machine noise stream is derived from the machine *name*, so the
    score of a given machine is independent of which other machines are
    in the topology — exactly like benchmarking real hosts one by one.

    ``noise_sigma = 0`` returns the true scores.
    """
    check_non_negative("noise_sigma", noise_sigma)
    out: dict[str, float] = {}
    for machine in topology.machines:
        stream = RngStream(seed, "bytemark", machine.name)
        out[machine.name] = float(machine.cpu_rate) * stream.lognormal_factor(noise_sigma)
    return out


def ranking_from_scores(scores: t.Mapping[str, float]) -> list[str]:
    """Machine names sorted fastest-first by score (ties by name)."""
    if not scores:
        raise ValidationError("scores must be non-empty")
    for name, score in scores.items():
        if not (score > 0 and math.isfinite(score)):
            raise ValidationError(f"score for {name!r} must be positive, got {score!r}")
    return sorted(scores, key=lambda name: (-scores[name], name))


def fractions_from_scores(scores: t.Mapping[str, float]) -> dict[str, float]:
    """The model's ``c_j``: workload fractions proportional to speed.

    ``c_j = score_j / sum(scores)`` — a machine twice as fast receives
    twice the data, Section 3.3's load-balancing rule.  The largest
    fraction absorbs the division residue, so the fractions sum to 1 to
    within one float ulp (an *exact* unit sum is not representable for
    arbitrary score vectors); :func:`partition_items` tolerates this.
    """
    ranking_from_scores(scores)  # validation
    total = math.fsum(scores.values())
    fractions = {name: score / total for name, score in scores.items()}
    residue = 1.0 - math.fsum(fractions.values())
    top = max(fractions, key=lambda name: (fractions[name], name))
    fractions[top] += residue
    return fractions


def partition_items(
    n: int, fractions: t.Mapping[str, float]
) -> dict[str, int]:
    """Split ``n`` whole items proportionally to ``fractions``.

    Uses the largest-remainder method so the result is deterministic,
    conserves ``n`` exactly, and is within one item of the ideal share
    for every machine.  Raises :class:`PartitionError` if the fractions
    do not sum to 1.
    """
    n = check_positive_int("n", max(1, n)) if n != 0 else 0
    if not fractions:
        raise PartitionError("fractions must be non-empty")
    total = math.fsum(fractions.values())
    if abs(total - 1.0) > 1e-9:
        raise PartitionError(f"fractions must sum to 1, got {total!r}")
    for name, fraction in fractions.items():
        if fraction < 0:
            raise PartitionError(f"fraction for {name!r} is negative: {fraction!r}")

    floors = {name: int(math.floor(n * f)) for name, f in fractions.items()}
    remainder = n - sum(floors.values())
    # Hand leftover items to the largest fractional parts; break ties
    # by name so the partition is deterministic.
    order = sorted(
        fractions,
        key=lambda name: (-(n * fractions[name] - floors[name]), name),
    )
    out = dict(floors)
    for name in order[:remainder]:
        out[name] += 1
    assert sum(out.values()) == n
    return out
