"""The parallel sweep executor: fan out :class:`SimJob`s, merge in order.

Determinism contract
--------------------

``evaluate(jobs)`` returns one :class:`~repro.obs.accounting.RunObs` per
job, **in job order**, and the results are bit-identical whatever the
worker count:

* every simulation is a pure function of its job (all randomness is
  seeded through the job's configuration), so *where* it runs cannot
  change *what* it returns;
* results are keyed by the job's content hash and re-assembled in the
  caller's submission order, so completion order cannot leak into the
  output.

Caching
-------

Three layers, all keyed by the job content hash:

* the executor memo — results live for the executor's lifetime, so a
  sweep that revisits a grid point (or two experiments sharing one)
  simulates it once;
* per-call dedupe — duplicate jobs inside one ``evaluate`` batch are
  submitted once;
* the optional persistent :class:`~repro.perf.diskcache.DiskCache`
  (``cache_dir=...``) — results survive the process, so repeated
  invocations skip already-computed grid points entirely.

Seeds are part of the hash (they are ordinary job kwargs), so entries
can never be served across differing seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import os
import sys
import typing as t
from concurrent.futures import ProcessPoolExecutor

from repro.obs.accounting import RunObs
from repro.obs.observe import current_observation
from repro.perf.diskcache import DiskCache
from repro.perf.job import SimJob, content_tokens

__all__ = [
    "SweepExecutor",
    "cached_point",
    "sweep",
    "current_executor",
    "evaluate",
    "effective_jobs",
]


def effective_jobs(requested: int) -> int:
    """Clamp a ``--jobs`` request to what the host can actually use.

    On a 1-CPU host the pool is a pure pessimisation (fork + pickling
    overhead with no cores to fan over — bench/README.md, "Load shape"), and
    more workers than cores just thrash; either way the request is
    clamped with a one-line warning.  Library callers constructing
    :class:`SweepExecutor` directly are untouched.
    """
    requested = max(1, int(requested))
    cores = os.cpu_count() or 1
    if requested > 1 and cores == 1:
        print(
            f"warning: --jobs {requested} on a 1-CPU host; running serially",
            file=sys.stderr,
        )
        return 1
    if requested > cores:
        print(
            f"warning: --jobs {requested} exceeds {cores} CPUs; "
            f"clamping to {cores}",
            file=sys.stderr,
        )
        return cores
    return requested


class SweepExecutor:
    """Evaluates batches of simulation jobs, optionally in parallel.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` (the default) runs everything in
        the calling process — no pool, no pickling, still cached.
    cache_dir:
        Optional root of a persistent :class:`DiskCache`.  ``None``
        (the default) keeps all caching in-process, exactly as before.
    cache_version:
        Override the disk cache's version directory (tests only).
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        cache_dir: str | os.PathLike[str] | None = None,
        cache_version: str | None = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self._memo: dict[str, RunObs] = {}
        self._pool: ProcessPoolExecutor | None = None
        self._disk: DiskCache | None = (
            None if cache_dir is None else DiskCache(cache_dir, version=cache_version)
        )
        #: Lookups answered from the memo (includes in-batch duplicates).
        self.cache_hits = 0
        #: Unique configurations actually simulated.
        self.cache_misses = 0
        #: Unique configurations answered by the persistent disk cache.
        self.disk_hits = 0

    @property
    def disk(self) -> DiskCache | None:
        """The persistent tier, if any: experiments keep non-job results here too."""
        return self._disk

    # -- pool management -----------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Forked workers inherit the parent's warm caches (item
            # streams, calibrations); fall back to the platform default
            # where fork is unavailable.
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=context
            )
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (the memo stays usable)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info: t.Any) -> None:
        self.close()

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, jobs: t.Iterable[SimJob]) -> list[RunObs]:
        """Run every job, returning results in job order.

        Duplicate and previously-seen configurations are served from
        the memo; the rest run serially or across the pool.  The
        returned list is deterministic — see the module docstring.
        """
        ordered = list(jobs)
        keys = [job.content_hash for job in ordered]
        memo = self._memo
        pending: dict[str, SimJob] = {}
        for key, job in zip(keys, ordered):
            if key not in memo and key not in pending:
                pending[key] = job
        self.cache_hits += len(keys) - len(pending)
        if pending and self._disk is not None:
            still_pending: dict[str, SimJob] = {}
            for key, job in pending.items():
                result = self._disk.get(key)
                if result is None:
                    still_pending[key] = job
                else:
                    memo[key] = result
                    self.disk_hits += 1
            pending = still_pending
        self.cache_misses += len(pending)
        observation = current_observation()
        if pending:
            # Span tracing cannot cross the pool boundary (spans are
            # recorded live against the observing process's tracer), so
            # a spans-enabled observation forces inline execution.
            spans_active = observation is not None and observation.tracer.enabled
            if self.jobs == 1 or spans_active:
                for key, job in pending.items():
                    memo[key] = job.run()
            else:
                # Ordered merge: results land in the memo keyed by
                # hash, and the output list is rebuilt from the
                # caller's key order, so worker scheduling can't
                # reorder anything.
                for key, result in zip(
                    pending, self._ensure_pool().map(SimJob.run, pending.values())
                ):
                    memo[key] = result
            if self._disk is not None:
                for key in pending:
                    self._disk.put(key, memo[key])
        results = [memo[key] for key in keys]
        if observation is not None:
            # Feed metrics/ledgers once per returned occurrence, in
            # submission order — identical whatever the worker count
            # and whether results came from caches or fresh runs.
            for result in results:
                observation.record_run(result)
        return results

    def __repr__(self) -> str:
        return (
            f"SweepExecutor(jobs={self.jobs}, cached={len(self._memo)}, "
            f"hits={self.cache_hits}, disk_hits={self.disk_hits}, "
            f"misses={self.cache_misses})"
        )


#: The active executor installed by :func:`sweep` (None = inline).
_current: SweepExecutor | None = None


def current_executor() -> SweepExecutor | None:
    """The executor installed by the innermost active :func:`sweep`."""
    return _current


@contextlib.contextmanager
def sweep(
    jobs: int = 1,
    *,
    cache_dir: str | os.PathLike[str] | None = None,
) -> t.Iterator[SweepExecutor]:
    """Install a :class:`SweepExecutor` for the dynamic extent.

    Every :func:`evaluate` call inside the block shares the executor's
    memo, so experiments run back-to-back reuse each other's grid
    points.  ``jobs=1`` still installs the shared memo — the parallel
    pool is only spun up for ``jobs > 1``.  ``cache_dir`` additionally
    persists results on disk across invocations.
    """
    global _current
    previous = _current
    executor = SweepExecutor(jobs=jobs, cache_dir=cache_dir)
    _current = executor
    try:
        yield executor
    finally:
        _current = previous
        executor.close()


def evaluate(jobs: t.Iterable[SimJob]) -> list[RunObs]:
    """Evaluate jobs through the active :func:`sweep` executor.

    Outside any ``sweep`` block the batch runs inline in this process
    with per-batch dedupe only — no state outlives the call, which
    keeps direct experiment invocations (and tests) isolated.
    """
    if _current is not None:
        return _current.evaluate(jobs)
    return SweepExecutor(jobs=1).evaluate(jobs)


def cached_point(
    tag: str,
    inputs: t.Sequence[t.Any],
    compute: t.Callable[[], dict],
    shape: t.Mapping[str, type],
) -> dict:
    """``compute()``'s JSON row, kept as one entry of the sweep's disk tier.

    Keyed by a sha256 over ``content_tokens((tag, *inputs))``.  A stored
    row whose value types match ``shape`` key for key is returned; a miss
    or a malformed entry is recomputed and stored.  With no disk tier it
    is a plain ``compute()``, and under an active observation the row is
    recomputed, not read, so what the computation records is not skipped.
    """
    disk = None if _current is None else _current.disk
    if disk is None:
        return compute()
    tokens: list[bytes] = []
    content_tokens((tag, *inputs), tokens)
    key = hashlib.sha256(b"".join(tokens)).hexdigest()
    if current_observation() is None:
        point = disk.get_json(key)
        if point is not None and {name: type(v) for name, v in point.items()} == shape:
            return point
    point = compute()
    disk.put_json(key, point)
    return point
