#!/usr/bin/env python3
"""Ranking machines by BYTEmark-style scores (Section 5.1).

Simulates per-machine scores for the testbed (with the measurement
noise of a non-dedicated cluster) and derives the ranking and the
workload fractions ``c_j`` exactly as the experiments do, then splits
a data set into whole-item shares.

Run:  python examples/bytemark_ranking.py
"""

from repro.bytemark import (
    fractions_from_scores,
    partition_items,
    ranking_from_scores,
    simulate_scores,
)
from repro.cluster import ucf_testbed
from repro.util.tables import AsciiTable


def main() -> None:
    topology = ucf_testbed(10)
    scores = simulate_scores(topology, noise_sigma=0.08, seed=2001)
    ranking = ranking_from_scores(scores)
    fractions = fractions_from_scores(scores)
    n = 256_000  # 1000 KB of integers
    shares = partition_items(n, fractions)

    table = AsciiTable(
        "simulated testbed ranking (noise_sigma=0.08)",
        ["rank", "machine", "score", "c_j", f"items of n={n}"],
    )
    for rank, name in enumerate(ranking):
        table.add_row([rank, name, f"{scores[name]:.3e}", fractions[name], shares[name]])
    print(table.render())
    assert sum(shares.values()) == n
    print(f"P_f = {ranking[0]}, P_s = {ranking[-1]}; shares conserve n exactly")


if __name__ == "__main__":
    main()
