"""Parallel sweep execution and result caching for experiments.

The experiment harness decomposes its sweeps into independent,
picklable :class:`SimJob`s and evaluates them through a
:class:`SweepExecutor` — serially by default, or fanned across a
process pool with ``python -m repro.experiments --jobs N``.  Parallel
output is guaranteed bit-identical to serial output; see
:mod:`repro.perf.executor` for the contract and docs/performance.md
for the user-facing story.

Results can also persist across invocations: pass ``cache_dir`` to
:class:`SweepExecutor`/:func:`sweep` (the ``python -m
repro.experiments`` CLI does so by default) and already-computed grid
points are answered from the :class:`~repro.perf.diskcache.DiskCache`
instead of being re-simulated.
"""

from repro.perf.diskcache import (
    CACHE_SCHEMA_VERSION,
    CacheStats,
    DiskCache,
    default_cache_dir,
)
from repro.perf.executor import (
    SweepExecutor,
    cached_point,
    current_executor,
    effective_jobs,
    evaluate,
    sweep,
)
from repro.perf.job import APP_OPS, COLLECTIVE_OPS, SimJob

__all__ = [
    "APP_OPS",
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "COLLECTIVE_OPS",
    "DiskCache",
    "SimJob",
    "SweepExecutor",
    "cached_point",
    "current_executor",
    "default_cache_dir",
    "effective_jobs",
    "evaluate",
    "sweep",
]
