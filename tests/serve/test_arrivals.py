"""Tests for seeded open-loop arrival generation."""

import dataclasses
import math

import pytest

from repro.serve import Arrival, default_config, generate_arrivals, offered_rate
from repro.serve.arrivals import _BLOCK, kind_counts
from repro.util.rng import RngStream


def _diurnal(seed=0, duration=40.0, rate=5.0, amplitude=0.8, period=10.0):
    config = default_config(seed=seed, duration=duration)
    return dataclasses.replace(
        config,
        arrival=dataclasses.replace(
            config.arrival,
            process="diurnal", rate=rate, amplitude=amplitude, period=period,
        ),
    )


class TestPoissonArrivals:
    def test_bit_identical_across_calls(self):
        config = default_config(seed=3, duration=30.0)
        assert generate_arrivals(config) == generate_arrivals(config)

    def test_seed_changes_sequence(self):
        a = generate_arrivals(default_config(seed=0, duration=30.0))
        b = generate_arrivals(default_config(seed=1, duration=30.0))
        assert a != b

    def test_sorted_and_bounded(self):
        arrivals = generate_arrivals(default_config(seed=0, duration=30.0))
        times = [a.time for a in arrivals]
        assert times == sorted(times)
        assert all(0 < t < 30.0 for t in times)
        assert [a.request_id for a in arrivals] == list(range(len(arrivals)))

    def test_rate_roughly_respected(self):
        config = default_config(seed=0, duration=200.0, rate=4.0)
        arrivals = generate_arrivals(config)
        realised = len(arrivals) / config.duration
        assert abs(realised - offered_rate(config)) < 1.0

    def test_kind_mix_follows_weights(self):
        # Weights 3:2:1 over a long window — interactive dominates.
        config = default_config(seed=0, duration=500.0, rate=4.0)
        counts = kind_counts(config, generate_arrivals(config))
        assert counts["interactive"] > counts["analytics"] > counts["sort"]


def _scalar_poisson(config):
    """The one-draw-at-a-time poisson loop the block draw must equal."""
    times = RngStream(config.seed, "serve", "arrivals")
    kinds = RngStream(config.seed, "serve", "kinds")
    weights = [kind.weight for kind in config.workload]
    cdf = []
    running = 0.0
    for weight in weights:
        running += weight / sum(weights)
        cdf.append(running)
    cdf[-1] = 1.0
    out = []
    now = 0.0
    while True:
        now += times.exponential(1.0 / config.arrival.rate)
        if now >= config.duration:
            return tuple(out)
        draw = kinds.uniform()
        kind = next(i for i, bound in enumerate(cdf) if draw < bound)
        out.append(Arrival(request_id=len(out), time=now, kind=kind))


class TestBlockDraw:
    RATES = (0.2, 0.7, 3.0, 45.0, 100.0)
    DURATIONS = (7.5, 100.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_scalar_loop(self, seed):
        # 5 seeds x 5 rates x 2 durations = 50 triples; 45 and 100
        # req/s over 100 s need two and three blocks.
        assert self.RATES[-1] * self.DURATIONS[-1] > 2 * _BLOCK
        for rate in self.RATES:
            for duration in self.DURATIONS:
                config = default_config(seed=seed, duration=duration, rate=rate)
                arrivals = generate_arrivals(config)
                assert arrivals == _scalar_poisson(config), (seed, rate, duration)
                assert [a.request_id for a in arrivals] == list(range(len(arrivals)))
                assert all(a.time < duration for a in arrivals)


class TestDiurnalArrivals:
    def test_bit_identical_across_calls(self):
        config = _diurnal(seed=7)
        assert generate_arrivals(config) == generate_arrivals(config)

    def test_thinning_never_exceeds_duration(self):
        arrivals = generate_arrivals(_diurnal())
        assert all(a.time < 40.0 for a in arrivals)

    def test_peak_half_busier_than_trough_half(self):
        # sin > 0 on the first half of each period: arrivals cluster there.
        config = _diurnal(seed=0, duration=400.0, amplitude=0.9, period=10.0)
        arrivals = generate_arrivals(config)
        peak = sum(
            1 for a in arrivals if math.sin(2 * math.pi * a.time / 10.0) > 0
        )
        trough = len(arrivals) - peak
        assert peak > 1.5 * trough

    def test_mean_rate_matches_base_rate(self):
        # The modulation integrates to ~zero over whole periods.
        config = _diurnal(seed=0, duration=400.0, rate=5.0)
        arrivals = generate_arrivals(config)
        assert abs(len(arrivals) / 400.0 - 5.0) < 0.5
