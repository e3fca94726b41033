"""The tuning pipeline: enumerate, price, validate, memoize.

Cold path (:func:`tune` on an unseen ``(op, machine, n)``):

1. **Enumerate** the per-level schedule space
   (:func:`repro.tuning.space.enumerate_plans`) — every combination of
   flat/binomial fan-out, one-/two-phase, and segmentation.
2. **Price** the whole grid in one :mod:`repro.model.kernels` call
   (:func:`repro.model.rank_plans`): one vectorized pass per distinct
   ``(level, LevelSchedule)`` — ``|choices|·k``, not ``|choices|^k`` —
   with every plan assembled from the shared level steps, bit-identical
   to the scalar predictors.
3. **Validate** the analytic top-:data:`DEFAULT_SHORTLIST` — the
   default plan is always re-included — by actually running each
   candidate through the macro-event DES engine, which prices
   contention and overlap the closed form cannot see.  The shortlist
   is one :func:`repro.perf.evaluate` batch of
   :class:`~repro.perf.SimJob` values, run unobserved (the validations
   are the tuner's runs, not the caller's): inside a
   :func:`~repro.perf.sweep` it shares the executor's memo, disk cache
   and pool like any grid point, so a warm sweep simulates nothing;
   outside one it runs inline and nothing outlives the call.
4. **Pick** the plan with the lowest *simulated* makespan (analytic
   rank breaks ties), and **memoize** the decision in the persistent
   :class:`~repro.tuning.cache.DecisionCache`.

Because the default plan is always in the validated shortlist and the
winner is chosen on simulated time, a tuned run can never be slower
than the default schedule on the tuning workload.

Warm path: one :meth:`DecisionCache.get` — O(1), no enumeration, no
simulation — returning the exact plan the cold run chose, so cold and
warm tuned runs are byte-identical.

:func:`tune` must not be reached from inside a :meth:`SimJob.run
<repro.perf.SimJob.run>`: in a pool worker, its nested ``evaluate``
would reach the parent's executor, pool included.  No path does today
— the serving cost table and the ``--schedule tuned`` grids resolve
their plans before they build jobs.
"""

from __future__ import annotations

import typing as t

from repro.bytemark import ranking_from_scores, true_scores
from repro.cluster.serialization import topology_hash
from repro.cluster.topology import ClusterTopology
from repro.collectives.schedules import RootPolicy
from repro.errors import CollectiveError
from repro.model.params import calibrate
from repro.model.planner import rank_plans
from repro.obs.observe import _unobserved
from repro.perf.executor import evaluate
from repro.perf.job import SimJob
from repro.tuning.cache import DecisionCache, TunedDecision
from repro.tuning.plan import SchedulePlan, default_plan
from repro.tuning.space import enumerate_plans

__all__ = ["DEFAULT_SHORTLIST", "TunedDecision", "tune", "tuned_plan"]

#: How many analytically-cheapest plans get DES-validated (the default
#: plan is appended when it is not already among them).
DEFAULT_SHORTLIST = 4

_process_cache: DecisionCache | None = None


def _default_cache() -> DecisionCache:
    global _process_cache
    if _process_cache is None:
        _process_cache = DecisionCache()
    return _process_cache


def _resolve_root_fast(
    topology: ClusterTopology, root: "int | RootPolicy | None"
) -> int:
    """Resolve a root spec to a pid without building a runtime.

    The warm path must be a cache lookup, not a simulator construction
    — this mirrors :func:`~repro.collectives.schedules.resolve_root`
    (noise-free BYTEmark ranking) on plain topology data, so both spell
    the same pid.  Normalisation keeps machine order and specs, so the
    names and ids are read off ``topology`` itself.
    """
    if root is not None and not isinstance(root, RootPolicy):
        if isinstance(root, bool) or not isinstance(root, int):
            raise CollectiveError(
                f"root must be a pid or RootPolicy, got {root!r}"
            )
        if not 0 <= root < topology.num_machines:
            raise CollectiveError(
                f"root pid {root} out of range [0, {topology.num_machines})"
            )
        return root
    ranking = ranking_from_scores(true_scores(topology))
    name = ranking[-1] if root is RootPolicy.SLOWEST else ranking[0]
    return topology.machine_id(name)


def _simulate(
    op: str,
    topology: ClusterTopology,
    n: int,
    root: int,
    plans: t.Sequence[SchedulePlan],
    seed: int,
) -> list[float]:
    """The simulated makespan of each plan: one executor batch, unobserved."""
    jobs = [
        SimJob.collective(
            op, topology, n, root=root, seed=seed, macro=True, plan=plan
        )
        for plan in plans
    ]
    with _unobserved():
        return [result.time for result in evaluate(jobs)]


def tune(
    topology: ClusterTopology,
    op: str,
    n: int,
    *,
    root: int | RootPolicy | None = None,
    seed: int = 0,
    cache: DecisionCache | None = None,
    force: bool = False,
) -> TunedDecision:
    """Pick (or recall) the best schedule for ``op`` on this machine.

    ``cache=None`` uses the process-wide persistent cache under
    :func:`~repro.tuning.cache.default_decision_dir`; ``force=True``
    re-tunes even on a cache hit (and overwrites the stored decision).
    The decision key is ``(op, topology-hash, n, root)`` with the root
    resolved to a concrete pid first, so policy spellings of the same
    pid share one entry.  The space searched is fixed
    (:data:`~repro.tuning.space.DEFAULT_SEGMENTS`,
    :data:`DEFAULT_SHORTLIST`), so the key names every input that can
    change a decision.
    """
    if op not in ("gather", "broadcast"):
        raise CollectiveError(f"op must be 'gather' or 'broadcast', got {op!r}")
    if n < 0:
        raise CollectiveError(f"n must be >= 0, got {n}")
    if cache is None:
        cache = _default_cache()
    root_pid = _resolve_root_fast(topology, root)
    topo_hash = topology_hash(topology)
    if not force:
        hit = cache.get(op, topo_hash, n, root_pid)
        if hit is not None:
            return hit
    params = calibrate(topology)
    plans = enumerate_plans(op, params.k)
    everything = rank_plans(params, n, plans, root=root_pid)
    ranked = everything[:DEFAULT_SHORTLIST]
    base = default_plan(op, params.k)
    if all(plan != base for plan, _ in ranked):
        # Already priced with the rest of the space: no second pass.
        ranked.append(next(entry for entry in everything if entry[0] == base))

    best_plan: SchedulePlan | None = None
    best_predicted = 0.0
    best_time = float("inf")
    default_time = float("inf")
    simulated_times = _simulate(
        op, topology, n, root_pid, [plan for plan, _ in ranked], seed
    )
    for (plan, predicted), simulated in zip(ranked, simulated_times):
        if plan == base:
            default_time = simulated
        if simulated < best_time:
            best_plan = plan
            best_predicted = predicted
            best_time = simulated
    assert best_plan is not None  # DEFAULT_SHORTLIST >= 1

    decision = TunedDecision(
        op=op,
        topology_hash=topo_hash,
        n=int(n),
        root=root_pid,
        plan=best_plan,
        predicted_time=best_predicted,
        simulated_time=best_time,
        default_time=default_time,
        candidates=len(plans),
        validated=len(ranked),
    )
    cache.put(decision)
    return decision


def tuned_plan(
    topology: ClusterTopology,
    op: str,
    n: int,
    *,
    root: int | RootPolicy | None = None,
    cache: DecisionCache | None = None,
) -> SchedulePlan:
    """The winning plan only — the convenience front door for runners."""
    return tune(topology, op, n, root=root, cache=cache).plan
