"""Rounds, ops and their checks — the part every workload shares.

A workload is a fixed sequence of *ops*; one pass over the sequence is
a *round*, and rounds are what gets timed.  Each op's call is timed on
its own (digesting its result is not), then described as an
:class:`Observed`: a sha256 over the simulated outputs, the counts the
simulated program fixes, the counts an implementation may change, the
work units done and any self-consistency problems.  :class:`Recorder`
compares every ``Observed`` with the pinned expectation for the seed
(``bench/expected/``) when there is one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import time
import traceback
import typing as t

import numpy as np

__all__ = ["Observed", "Recorder", "Workload", "digest", "collective_observed"]


def _canonical(value: t.Any, out: list[str]) -> None:
    """Append a representation that is equal iff the values are equal."""
    if isinstance(value, np.ndarray):
        out.append(f"<{value.dtype.str}{value.shape}:")
        out.append(hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest())
        out.append(">")
    elif isinstance(value, np.generic):
        out.append(repr(value.item()))
    elif isinstance(value, dict):
        out.append("{")
        for key in sorted(value, key=repr):
            _canonical(key, out)
            out.append(":")
            _canonical(value[key], out)
            out.append(",")
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("(")
        for item in value:
            _canonical(item, out)
            out.append(",")
        out.append(")")
    else:
        out.append(repr(value))  # float reprs round-trip exactly


def digest(*parts: t.Any) -> str:
    """sha256 over the canonical reprs of ``parts``."""
    out: list[str] = []
    _canonical(parts, out)
    return hashlib.sha256("".join(out).encode()).hexdigest()


@dataclasses.dataclass
class Observed:
    """What one op produced, as the checks see it."""

    digest: str
    #: Fixed by the simulated program: pinned, a difference fails the op.
    counts: dict[str, t.Any] = dataclasses.field(default_factory=dict)
    #: Fixed by the implementation: recorded, must repeat, never fails.
    impl: dict[str, t.Any] = dataclasses.field(default_factory=dict)
    #: Work units done (the workload says which unit).
    work: float = 0.0
    #: Simulated scalars the end-to-end ``sim_*`` metrics are built from.
    sim: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Self-consistency failures (empty = consistent).
    problems: list[str] = dataclasses.field(default_factory=list)


def collective_observed(outcome: t.Any, *, fault_free: bool = True) -> Observed:
    """Describe a ``CollectiveOutcome`` (``run_gather``/``run_broadcast``)."""
    runtime = outcome.runtime
    metrics = runtime.vm.metrics
    sim = {}
    if fault_free and outcome.predicted_time:
        sim["model_err"] = abs(outcome.time - outcome.predicted_time) / outcome.predicted_time
    return Observed(
        digest=digest(
            outcome.time, outcome.supersteps, outcome.values, runtime.superstep_marks()
        ),
        counts={
            "messages": int(metrics.counter_sum("repro_messages_sent_total")),
            "bytes": int(metrics.counter_sum("repro_bytes_sent_total")),
            "supersteps": outcome.supersteps,
        },
        impl={"events": runtime.engine.events_processed},
        sim=sim,
    )


class Workload:
    """Base class: subclasses set the class attributes and fill the hooks."""

    name: t.ClassVar[str]
    #: What ``work_per_s`` counts for this workload.
    work_unit: t.ClassVar[str]

    def __init__(self, seed: int, sizes: dict[str, t.Any], scratch: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.scratch = scratch  # per-run temp dir, removed by the parent

    def setup(self) -> None:
        """Generate the inputs (and any cache the rounds read)."""

    def round(self, rec: "Recorder") -> None:
        """Run the fixed op sequence once, each op through ``rec.op``."""
        raise NotImplementedError

    def verify(self, rec: "Recorder") -> None:
        """Untimed cross-checks that hold at any seed (``rec.check``)."""

    def sim_metrics(self, rec: "Recorder") -> dict[str, float]:
        """The exact, simulated end-to-end metrics this workload has."""
        return {}

    def layer_metrics(self, ctx: t.Any) -> dict[str, float]:
        """Per-layer metrics of the traced pass (``ctx`` is a LayerContext)."""
        return {}


class Recorder:
    """Times ops, checks them, and keeps what the metrics are built from."""

    def __init__(self, expected: dict[str, t.Any] | None) -> None:
        self.expected = expected  # op name -> {"digest", "counts"} | None
        #: Set per round by the worker: the Tracer of a traced round, else None.
        self.tracer: t.Any = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: Latest observation per op (all rounds must agree with it).
        self.observed: dict[str, Observed] = {}
        self.impl_repeats = True
        self._round_s = 0.0
        self._round_work = 0.0
        #: op name -> seconds of each call, warm-up round included.
        self.op_seconds: dict[str, list[float]] = {}

    # -- one round -----------------------------------------------------------
    def begin_round(self) -> None:
        self._round_s = 0.0
        self._round_work = 0.0

    def end_round(self) -> tuple[float, float]:
        """``(seconds inside op calls, work units)`` of the round just run."""
        return self._round_s, self._round_work

    def op(
        self,
        name: str,
        call: t.Callable[[], t.Any],
        describe: t.Callable[[t.Any], Observed],
    ) -> t.Any:
        """Time ``call()``, describe its result, check it; returns the result."""
        self.attempted += 1
        tracer = self.tracer
        span = tracer.span(f"op:{name}", "harness") if tracer else contextlib.nullcontext()
        try:
            with span:
                start = time.perf_counter()
                result = call()
                seconds = time.perf_counter() - start
            self._round_s += seconds
            self.op_seconds.setdefault(name, []).append(seconds)
            seen = describe(result)
        except Exception:  # a failed op is a measurement, not a crash
            self._fail(name, [f"raised\n{traceback.format_exc(limit=6)}"])
            return None
        self._round_work += seen.work
        self._fail(name, self._problems(name, seen))
        return result

    def _problems(self, name: str, seen: Observed) -> list[str]:
        problems = list(seen.problems)
        first = self.observed.get(name)
        if first is None:
            self.observed[name] = seen
            if self.expected is not None:
                pin = self.expected.get(name)
                if pin is None:
                    problems.append("no pinned expectation")
                elif pin["digest"] != seen.digest:
                    problems.append("simulated digest differs from the pin")
                elif pin["counts"] != seen.counts:
                    problems.append(f"counts {seen.counts} differ from the pin {pin['counts']}")
            return problems
        if first.digest != seen.digest or first.counts != seen.counts:
            problems.append("simulated output differs between rounds")
        if first.impl != seen.impl:
            self.impl_repeats = False
        return problems

    def _fail(self, name: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.failures.extend(f"{name}: {problem}" for problem in problems)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """One self-consistency check outside the rounds (counts as an op)."""
        self.attempted += 1
        self._fail(name, [] if ok else [detail or "self-consistency check failed"])

    def note_impl(self, name: str, impl: dict[str, t.Any]) -> None:
        """Record implementation counts that belong to the round, not one op."""
        first = self.observed.setdefault(name, Observed(digest="", impl=impl))
        if first.impl != impl:
            self.impl_repeats = False

    # -- outputs -------------------------------------------------------------
    def pins(self) -> dict[str, t.Any]:
        """What ``--update-expected`` writes for this workload."""
        return {
            name: {"digest": seen.digest, "counts": seen.counts}
            for name, seen in self.observed.items()
            if seen.digest
        }

    def impl_counts(self) -> dict[str, t.Any]:
        return {name: seen.impl for name, seen in self.observed.items() if seen.impl}

    def sim_values(self, key: str) -> list[float]:
        return [seen.sim[key] for seen in self.observed.values() if key in seen.sim]
