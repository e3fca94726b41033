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

Poisson gaps are drawn in blocks of :data:`_BLOCK` and accumulated by
``np.cumsum``, which adds in the same order as a scalar ``now += gap``
loop, so the times equal that loop's bit for bit.  Diurnal candidates
stay one at a time: their gaps and acceptance coins interleave on one
stream, and a ziggurat draw consumes a variable number of words, so a
block of gaps would shift every coin after it.  Kinds come from their
own stream in one block either way.
"""

from __future__ import annotations

import math
import typing as t

import numpy as np

from repro.serve.config import ArrivalSpec, ServiceConfig
from repro.util.rng import RngStream

__all__ = ["Arrival", "diurnal_rate", "generate_arrivals", "offered_rate"]


def diurnal_rate(
    t_now: float, *, base: float, amplitude: float, period: float
) -> float:
    """The diurnal curve ``base * (1 + amplitude * sin(2*pi*t/period))``.

    Arrival thinning evaluates it for the request rate at ``t_now``.
    """
    return base * (1.0 + amplitude * math.sin(2.0 * math.pi * t_now / period))


class Arrival(t.NamedTuple):
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
    times = RngStream(config.seed, "serve", "arrivals").generator
    kinds = RngStream(config.seed, "serve", "kinds").generator
    weights = [kind.weight for kind in config.workload]
    cdf = np.cumsum([weight / sum(weights) for weight in weights])
    cdf[-1] = 1.0  # guard the float tail so every draw lands somewhere

    if spec.process == "diurnal":
        stamps = _thinned_times(times, spec, config.duration)
    else:
        stamps = _poisson_times(times, spec.rate, config.duration)
    # The first kind whose cumulative bound exceeds the draw.
    drawn = np.searchsorted(cdf, kinds.random(len(stamps)), side="right")
    return tuple(map(Arrival._make, zip(range(len(stamps)), stamps, drawn.tolist())))


#: Exponential gaps drawn per block by the poisson process.
_BLOCK = 4096


def _poisson_times(
    generator: np.random.Generator, rate: float, duration: float
) -> list[float]:
    """Arrival times at ``rate`` below ``duration``, drawn in blocks."""
    blocks = []
    now = 0.0
    while True:
        gaps = generator.exponential(1.0 / rate, _BLOCK)
        gaps[0] += now
        stamps = np.cumsum(gaps)
        end = int(np.searchsorted(stamps, duration, side="left"))
        if end < _BLOCK:
            blocks.append(stamps[:end])
            return np.concatenate(blocks).tolist()
        blocks.append(stamps)
        now = float(stamps[-1])


def _thinned_times(
    generator: np.random.Generator, spec: ArrivalSpec, duration: float
) -> list[float]:
    """Diurnal arrival times below ``duration``: thinned peak-rate candidates."""
    peak = spec.rate * (1.0 + spec.amplitude)
    out: list[float] = []
    now = 0.0
    while True:
        now += generator.exponential(1.0 / peak)
        if now >= duration:
            return out
        lam = diurnal_rate(
            now, base=spec.rate, amplitude=spec.amplitude, period=spec.period
        )
        if generator.random() < lam / peak:
            out.append(now)


def kind_counts(
    config: ServiceConfig, arrivals: t.Sequence[Arrival]
) -> dict[str, int]:
    """``{kind name: arrivals}`` — the realised request mix."""
    counts = {kind.name: 0 for kind in config.workload}
    for arrival in arrivals:
        counts[config.workload[arrival.kind].name] += 1
    return counts
