"""Probe campaigns that make every parameter identifiable.

A single collective run only pins down the parameters on its own
critical path — the receiving root's ``G`` and the levels it crossed.
A *root sweep* of gathers fixes that: rooting the gather at every
machine in turn makes each machine the dominant receiver of its own
runs, so every ``G_j`` shows up as a critical coefficient, and running
several problem sizes separates the per-byte term from the constant
``L`` offsets (two sizes would do for a line; more average noise down).

This is the measurement half of ``repro calibrate --fit``: simulate
(or replay) the campaign, export the runs, and feed them to
:func:`repro.calib.fit_params`.
"""

from __future__ import annotations

import typing as t

from repro.cluster.topology import ClusterTopology
from repro.obs.accounting import RunObs, collect_run_obs

__all__ = ["calibration_campaign", "DEFAULT_SIZES"]

#: Problem sizes of the default campaign: spread over ~an order of
#: magnitude so per-byte and constant terms separate cleanly.
DEFAULT_SIZES: tuple[int, ...] = (4096, 16384, 65536)


def calibration_campaign(
    topology: ClusterTopology,
    *,
    sizes: t.Sequence[int] = DEFAULT_SIZES,
    seed: int = 0,
    roots: t.Sequence[int] | None = None,
) -> tuple[RunObs, ...]:
    """Gather root sweep: one run per ``(size, root)``, as run records.

    ``roots`` restricts the sweep (default: every machine).  The runs
    are fault-free, so they take the macro-event engine unless span
    tracing is on — bit-identical marks at a fraction of the event
    count, which is what makes sweeping a big machine cheap.
    """
    from repro.collectives import run_gather

    if roots is None:
        roots = range(topology.num_machines)
    runs: list[RunObs] = []
    for n in sizes:
        for root in roots:
            outcome = run_gather(topology, int(n), root=int(root), seed=seed)
            runs.append(collect_run_obs(outcome))
    return tuple(runs)
