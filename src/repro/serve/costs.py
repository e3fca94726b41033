"""Per-stage cost resolution: the service's bridge to the simulator.

Every request stage executed on a slice is an ordinary
:class:`~repro.perf.job.SimJob` — a pure, content-hashed description
of one kernel run — so its makespan comes from the same DES (macro
path on a fault-free, untraced slice) that the experiments use,
flows through :func:`repro.perf.evaluate`'s deterministic merge, and
lands in every cache layer the executor already has.

The job universe of a session is *finite*: ``|kinds| x |stages| x
|slices| x batch sizes``.  :meth:`StageCostModel.prewarm` evaluates the
whole universe in **one** ``evaluate()`` batch before the service loop
starts, which is what makes a serving session parallel-executor
friendly — under ``sweep(jobs=N)`` the fan-out happens there, results
are bit-identical at any ``N``, and the loop itself then runs on pure
table lookups.  Any lookup the prewarm missed (it cannot, for
in-config traffic) falls back to a single inline evaluation.

With ``policy.schedule == "tuned"`` the gather/broadcast stages
resolve a :class:`~repro.tuning.plan.SchedulePlan` per
``(op, topology-slice, n)`` through :func:`repro.tuning.tune` — cold
tunes once per distinct shape, then O(1) lookups in the store ``tune``
picks (the active sweep's disk tier, so ``repro serve --cache-dir``
keeps its decisions there).
"""

from __future__ import annotations

import typing as t

from repro.perf.executor import evaluate
from repro.perf.job import APP_OPS, SimJob
from repro.serve.config import ServiceConfig
from repro.serve.placement import Slice

__all__ = ["StageCostModel"]

#: (kind index, stage index, slice index, batch size)
StageKey = tuple[int, int, int, int]


class StageCostModel:
    """Maps ``(kind, stage, slice, batch)`` to a simulated makespan."""

    def __init__(self, config: ServiceConfig, slices: t.Sequence[Slice]) -> None:
        self.config = config
        self.slices = tuple(slices)
        self._plans: dict[tuple[str, int, int], t.Any] = {}
        self._costs: dict[StageKey, float] = {}
        self._prewarmed = False

    # -- job construction ----------------------------------------------------
    def _plan(self, op: str, slice_index: int, n: int) -> t.Any:
        """The tuned :class:`SchedulePlan` for a collective stage, memoized."""
        key = (op, slice_index, n)
        if key not in self._plans:
            from repro.tuning.tuner import tuned_plan

            self._plans[key] = tuned_plan(self.slices[slice_index].topology, op, n)
        return self._plans[key]

    def job(self, key: StageKey) -> SimJob:
        """The :class:`SimJob` realising one stage key."""
        kind_index, stage_index, slice_index, batch = key
        kind = self.config.workload[kind_index]
        stage = kind.stages[stage_index]
        topology = self.slices[slice_index].topology
        n = kind.stage_n(stage, batch)
        kwargs: dict[str, t.Any] = {"seed": self.config.seed}
        if stage.op in APP_OPS:
            return SimJob.app(stage.op, topology, n, **kwargs)
        if self.config.policy.schedule == "tuned":
            plan = self._plan(stage.op, slice_index, n)
            if plan is not None:
                kwargs["plan"] = plan
        return SimJob.collective(stage.op, topology, n, **kwargs)

    def universe(self) -> list[StageKey]:
        """Every stage key in-config traffic can produce, in fixed order."""
        keys: list[StageKey] = []
        for kind_index, kind in enumerate(self.config.workload):
            for stage_index in range(len(kind.stages)):
                for slice_index in range(len(self.slices)):
                    for batch in range(1, self.config.policy.max_batch + 1):
                        keys.append((kind_index, stage_index, slice_index, batch))
        return keys

    def jobs(self) -> list[SimJob]:
        """The session's full job universe (duplicates by content allowed)."""
        return [self.job(key) for key in self.universe()]

    # -- evaluation ----------------------------------------------------------
    def prewarm(self) -> int:
        """Evaluate the whole universe in one batch; returns its size.

        Under an active :func:`repro.perf.sweep` executor the batch fans
        out across workers and every cache layer; results are
        bit-identical at any worker count, so the service loop they
        feed is too.  Idempotent — a model shared across sessions (the
        load-sweep experiments) pays for its universe once.
        """
        if self._prewarmed:
            return 0
        self._prewarmed = True
        keys = self.universe()
        results = evaluate(self.job(key) for key in keys)
        for key, result in zip(keys, results):
            self._costs[key] = result.time
        return len(keys)

    def stage_cost(self, key: StageKey) -> float:
        """Simulated seconds of one stage; inline-evaluates on a miss."""
        cost = self._costs.get(key)
        if cost is None:
            (result,) = evaluate([self.job(key)])
            self._costs[key] = cost = result.time
        return cost

    def request_cost(self, kind_index: int, slice_index: int, batch: int) -> float:
        """Simulated seconds for a whole batch of one kind on one slice."""
        kind = self.config.workload[kind_index]
        return sum(
            self.stage_cost((kind_index, stage_index, slice_index, batch))
            for stage_index in range(len(kind.stages))
        )

    def __repr__(self) -> str:
        return (
            f"StageCostModel(kinds={len(self.config.workload)}, "
            f"slices={len(self.slices)}, cached={len(self._costs)})"
        )
