"""Declarative configuration for the open-loop serving simulator.

A :class:`ServiceConfig` is a plain JSON document describing one
serving session end to end:

* **cluster** — the shared heterogeneous machine, as a preset name
  (``"two-lans"``) or generator spec (``"multi_rack:racks=4,..."``);
* **arrival** — the open-loop arrival process (Poisson or
  diurnal-modulated Poisson) and its mean rate;
* **workload** — the request mix: each :class:`RequestKind` is a small
  chain-shaped DAG of kernel stages (``apps/`` kernels plus
  gather/broadcast collectives) with a base problem size and a mix
  weight;
* **policy** — admission control (bounded queue), batching, placement
  (whole machine vs per-subtree carving) and the collective schedule
  (the paper's defaults or :mod:`repro.tuning`'s auto-tuned plans).

Everything is frozen plain data so a config can ride through
:func:`repro.perf.job.content_tokens` untouched, and every stochastic
choice it implies is derived from ``seed`` alone — two sessions built
from equal configs are bit-identical.
"""

from __future__ import annotations

import dataclasses
import json
import typing as t

from repro.errors import ServeError
from repro.util.codec import Spec
from repro.util.validation import check_known

__all__ = [
    "STAGE_OPS",
    "REQUEST_TEMPLATES",
    "StageSpec",
    "RequestKind",
    "ArrivalSpec",
    "PolicySpec",
    "ServiceConfig",
    "default_config",
]

#: Kernels a request stage may invoke: the compute-carrying ``apps/``
#: programs plus the two tuned collectives.
STAGE_OPS: tuple[str, ...] = (
    "histogram",
    "matvec",
    "sample_sort",
    "gather",
    "broadcast",
)

#: Built-in request shapes, usable as ``{"template": "<name>"}`` in a
#: workload entry.  ``scale`` multiplies the kind's base problem size
#: per stage (a broadcast fanning out a quarter of the working set,
#: say, ahead of a full-size histogram pass).
REQUEST_TEMPLATES: dict[str, tuple[tuple[str, float], ...]] = {
    "interactive": (("broadcast", 0.25), ("histogram", 1.0)),
    "analytics": (("histogram", 1.0), ("gather", 0.5)),
    "train_step": (("broadcast", 1.0), ("matvec", 1.0)),
    "sort": (("sample_sort", 1.0),),
    "fanout": (("broadcast", 1.0), ("gather", 1.0)),
}

_ARRIVAL_PROCESSES = ("poisson", "diurnal")
_PLACEMENTS = ("subtrees", "whole")
_SCHEDULES = ("default", "tuned")


class _ServeSpec(Spec):
    """Every serving spec decodes to, and fails as, a :class:`ServeError`."""

    _error = ServeError
    _what = "service config"


@dataclasses.dataclass(frozen=True)
class StageSpec(_ServeSpec):
    """One kernel invocation inside a request's stage chain.

    In a document a bare string ``"gather"`` is short for
    ``{"op": "gather"}``.
    """

    op: str
    scale: float = 1.0

    def __post_init__(self) -> None:
        check_known("stage op", self.op, STAGE_OPS, ServeError)
        if not self.scale > 0:
            raise ServeError(f"stage scale must be > 0, got {self.scale!r}")

    @classmethod
    def _before_decode(cls, data: t.Any) -> t.Any:
        return {"op": data} if isinstance(data, str) else data


@dataclasses.dataclass(frozen=True)
class RequestKind(_ServeSpec):
    """A named request shape: stages, base problem size, mix weight.

    In a document ``{"template": "<name>", ...}`` stands for that
    :data:`REQUEST_TEMPLATES` entry's stages (and names the kind after
    the template unless ``name`` is given).
    """

    name: str
    stages: tuple[StageSpec, ...]
    n: int
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ServeError("RequestKind.name must be non-empty")
        if not self.stages:
            raise ServeError(f"request kind {self.name!r} has no stages")
        if self.n < 1:
            raise ServeError(f"request kind {self.name!r} needs n >= 1, got {self.n}")
        if not self.weight > 0:
            raise ServeError(
                f"request kind {self.name!r} needs weight > 0, got {self.weight!r}"
            )

    def stage_n(self, stage: StageSpec, batch: int = 1) -> int:
        """Effective problem size of ``stage`` when ``batch`` requests coalesce."""
        return max(1, round(self.n * stage.scale)) * max(1, int(batch))

    @classmethod
    def _before_decode(cls, data: t.Any) -> t.Any:
        if not isinstance(data, t.Mapping):
            return data
        if "template" in data:
            template = data["template"]
            check_known("request template", template, sorted(REQUEST_TEMPLATES), ServeError)
            shape = [{"op": op, "scale": scale} for op, scale in REQUEST_TEMPLATES[template]]
            data = {"name": template, **data, "stages": shape}
            del data["template"]
        elif "stages" not in data:
            raise ServeError("request kind needs 'template' or 'stages'")
        if "n" not in data:
            raise ServeError(
                f"request kind {data.get('name', '')!r} needs a problem size 'n'"
            )
        return data


@dataclasses.dataclass(frozen=True)
class ArrivalSpec(_ServeSpec):
    """Open-loop arrival process: requests arrive regardless of progress.

    ``poisson`` draws i.i.d. exponential inter-arrivals at ``rate``
    requests per simulated second.  ``diurnal`` modulates the rate as
    ``rate * (1 + amplitude * sin(2*pi*t / period))`` via thinning, so
    the session sees alternating peak and trough load.
    """

    process: str = "poisson"
    rate: float = 2.0
    period: float = 60.0
    amplitude: float = 0.5

    def __post_init__(self) -> None:
        check_known("arrival process", self.process, _ARRIVAL_PROCESSES, ServeError)
        if not self.rate > 0:
            raise ServeError(f"arrival rate must be > 0, got {self.rate!r}")
        if self.process == "diurnal":
            if not self.period > 0:
                raise ServeError(f"diurnal period must be > 0, got {self.period!r}")
            if not self.amplitude >= 0:
                raise ServeError(
                    f"diurnal amplitude must be >= 0, got {self.amplitude!r}"
                )

    @property
    def trough_rate(self) -> float:
        """The curve's minimum instantaneous rate (= rate for poisson)."""
        if self.process == "diurnal":
            return self.rate * (1.0 - self.amplitude)
        return self.rate

    def _after_encode(self, out: dict[str, t.Any]) -> dict[str, t.Any]:
        if self.process != "diurnal":  # the curve's shape fields mean nothing
            del out["period"], out["amplitude"]
        return out


@dataclasses.dataclass(frozen=True)
class PolicySpec(_ServeSpec):
    """Service policy knobs: admission, batching, placement, schedule.

    ``queue_limit`` bounds the admission queue: ``None`` means
    unbounded, ``0`` sheds every arrival (the degenerate limit the
    shedding tests pin).  ``max_redispatch`` bounds how many times a
    request interrupted by membership churn is re-queued before the
    service gives up and sheds it as degraded.
    """

    queue_limit: int | None = 64
    max_batch: int = 4
    placement: str = "subtrees"
    schedule: str = "default"
    slo: float | None = None
    max_redispatch: int = 2

    def __post_init__(self) -> None:
        if self.queue_limit is not None and self.queue_limit < 0:
            raise ServeError(
                f"queue_limit must be >= 0 or null (null = unbounded), "
                f"got {self.queue_limit}"
            )
        if self.max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_redispatch < 0:
            raise ServeError(
                f"max_redispatch must be >= 0, got {self.max_redispatch}"
            )
        check_known("placement", self.placement, _PLACEMENTS, ServeError)
        check_known("schedule", self.schedule, _SCHEDULES, ServeError)
        if self.slo is not None and not self.slo > 0:
            raise ServeError(f"slo must be > 0 seconds or null, got {self.slo!r}")


@dataclasses.dataclass(frozen=True)
class ServiceConfig(_ServeSpec):
    """One complete serving session, JSON-round-trippable."""

    cluster: str
    arrival: ArrivalSpec
    workload: tuple[RequestKind, ...]
    policy: PolicySpec = PolicySpec()
    duration: float = 60.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.cluster:
            raise ServeError("ServiceConfig.cluster must be non-empty")
        if not self.workload:
            raise ServeError("ServiceConfig.workload must name at least one kind")
        names = [kind.name for kind in self.workload]
        if len(set(names)) != len(names):
            raise ServeError(f"duplicate request kind names in workload: {names}")
        if not self.duration > 0:
            raise ServeError(f"duration must be > 0 seconds, got {self.duration!r}")
        # Reject degenerate diurnal curves *eagerly*, at config build
        # time: a trough rate <= 0 means lambda(t) hits zero or goes
        # negative, and thinning would silently generate little or no
        # traffic — a session that "runs fine" and serves nothing.
        if self.arrival.process == "diurnal" and not self.arrival.trough_rate > 0:
            raise ServeError(
                "arrival.amplitude: diurnal trough rate "
                f"rate*(1-amplitude) = {self.arrival.trough_rate!r} must be > 0 "
                f"(arrival.rate={self.arrival.rate!r}, "
                f"arrival.amplitude={self.arrival.amplitude!r})"
            )

    @classmethod
    def _before_decode(cls, data: t.Any) -> t.Any:
        # A document may omit ``arrival``: the default Poisson process.
        return {"arrival": {}, **data} if isinstance(data, t.Mapping) else data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def default_config(
    *, seed: int = 0, duration: float = 30.0, rate: float | None = None
) -> ServiceConfig:
    """The built-in demo session: a mixed workload on two campus LANs."""
    return ServiceConfig(
        cluster="two-lans:3",
        arrival=ArrivalSpec(process="poisson", rate=4.0 if rate is None else rate),
        workload=(
            RequestKind.from_dict({"template": "interactive", "n": 1500, "weight": 3}),
            RequestKind.from_dict({"template": "analytics", "n": 2500, "weight": 2}),
            RequestKind.from_dict({"template": "sort", "n": 2000, "weight": 1}),
        ),
        policy=PolicySpec(queue_limit=64, max_batch=4),
        duration=duration,
        seed=seed,
    )
