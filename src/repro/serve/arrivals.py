"""Seeded open-loop arrival generation.

The whole arrival sequence of a session is materialised *before* the
service loop runs, from named :class:`~repro.util.rng.RngStream`\\ s
derived from the config seed alone.  That buys two properties the
serving experiments lean on:

* **bit-identity** — equal configs produce equal ``(time, kind)``
  sequences on any host, at any ``--jobs`` count, whatever the service
  loop later does with them;
* **open-loop semantics** — arrivals never depend on service progress
  (the defining property of goodput-vs-offered-load studies: offered
  load keeps coming whether or not the cluster keeps up).

The diurnal process is Lewis–Shedler thinning of a homogeneous Poisson
process at the peak rate: candidates arrive at
``rate * (1 + amplitude)`` and survive with probability
``lambda(t) / peak`` where ``lambda(t) = rate * (1 + amplitude *
sin(2*pi*t / period))``.  Thinning draws exactly one acceptance coin
per candidate, so the draw order — and hence the sequence — is fixed.
"""

from __future__ import annotations

import dataclasses
import math
import typing as t

from repro.serve.config import ServiceConfig
from repro.util.rng import RngStream

__all__ = ["Arrival", "diurnal_rate", "generate_arrivals", "offered_rate"]


def diurnal_rate(
    t_now: float, *, base: float, amplitude: float, period: float
) -> float:
    """The diurnal curve ``base * (1 + amplitude * sin(2*pi*t/period))``.

    Arrival thinning evaluates it for the request rate at ``t_now``.
    """
    return base * (1.0 + amplitude * math.sin(2.0 * math.pi * t_now / period))


@dataclasses.dataclass(frozen=True)
class Arrival:
    """One request hitting the front door."""

    request_id: int
    time: float
    kind: int  # index into config.workload


def offered_rate(config: ServiceConfig) -> float:
    """Mean offered load in requests per simulated second."""
    # The sinusoidal modulation integrates to zero over whole periods,
    # so the diurnal mean equals the base rate.
    return config.arrival.rate


def generate_arrivals(config: ServiceConfig) -> tuple[Arrival, ...]:
    """The session's full arrival sequence, sorted by time."""
    spec = config.arrival
    times = RngStream(config.seed, "serve", "arrivals")
    kinds = RngStream(config.seed, "serve", "kinds")
    weights = [kind.weight for kind in config.workload]
    total_weight = sum(weights)
    cdf = []
    running = 0.0
    for weight in weights:
        running += weight / total_weight
        cdf.append(running)
    cdf[-1] = 1.0  # guard the float tail so every draw lands somewhere

    peak = spec.rate * (1.0 + (spec.amplitude if spec.process == "diurnal" else 0.0))
    out: list[Arrival] = []
    now = 0.0
    while True:
        now += times.exponential(1.0 / peak)
        if now >= config.duration:
            break
        if spec.process == "diurnal":
            lam = diurnal_rate(
                now, base=spec.rate, amplitude=spec.amplitude, period=spec.period
            )
            if times.uniform() >= lam / peak:
                continue
        draw = kinds.uniform()
        kind = next(i for i, bound in enumerate(cdf) if draw < bound)
        out.append(Arrival(request_id=len(out), time=now, kind=kind))
    return tuple(out)


def kind_counts(
    config: ServiceConfig, arrivals: t.Sequence[Arrival]
) -> dict[str, int]:
    """``{kind name: arrivals}`` — the realised request mix."""
    counts = {kind.name: 0 for kind in config.workload}
    for arrival in arrivals:
        counts[config.workload[arrival.kind].name] += 1
    return counts
