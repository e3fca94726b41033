"""Hierarchical span tracing keyed on simulated (or wall) time.

A :class:`Span` is one named interval on a *track*: the pair
``(group, actor)``.  Groups partition spans into independent timelines
(one simulated run, or the harness itself), actors are the tracks
inside a group (one per machine, plus ``"engine"``/``"experiments"``).
The Chrome-trace exporter maps groups to trace *processes* and actors
to *threads*, which is exactly how ``chrome://tracing``/Perfetto lay
tracks out.

Two APIs:

* explicit-time — :meth:`Tracer.add` / :meth:`Tracer.begin` +
  :meth:`Tracer.finish` — used by the simulation layers, which know
  their own virtual clock;
* clocked — the :meth:`Tracer.span` context manager and
  :meth:`Tracer.wrap` decorator — for harness code timing itself on
  wall time.  The CLI exporters never record these: shipped traces
  carry only simulated time, so identical runs stay bit-identical.

A disabled tracer is a cheap no-op: every method no-ops when
disabled, and the simulation layers go further — they hold no tracer
at all (``Engine.obs_tracer is None``) outside ``observe(spans=True)``,
so a hot path pays one ``is not None`` test per candidate span.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
import typing as t

__all__ = ["Span", "Tracer", "NULL_TRACER"]


@dataclasses.dataclass(slots=True)
class Span:
    """One traced interval.

    ``end`` is ``None`` while the span is open; ``parent_id`` links to
    the innermost enclosing span on the same ``(group, actor)`` track.
    """

    span_id: int
    group: str
    actor: str
    category: str
    name: str
    start: float
    end: float | None = None
    parent_id: int | None = None
    args: dict[str, t.Any] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Interval length (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start


class Tracer:
    """An append-only span recorder with per-track open-span stacks."""

    __slots__ = ("enabled", "spans", "clock", "group_labels", "_stacks", "_next_id")

    def __init__(
        self,
        enabled: bool = True,
        *,
        clock: t.Callable[[], float] = time.perf_counter,
    ) -> None:
        self.enabled = enabled
        #: All recorded spans, in completion order for `add`, begin
        #: order for `begin`.
        self.spans: list[Span] = []
        #: Default clock for the context-manager/decorator API.
        self.clock = clock
        #: Optional display names per group (e.g. the outcome name a
        #: run acquires only after it finished).
        self.group_labels: dict[str, str] = {}
        self._stacks: dict[tuple[str, str], list[Span]] = {}
        self._next_id = 0

    # -- explicit-time API ---------------------------------------------------
    def begin(
        self,
        category: str,
        name: str,
        *,
        group: str,
        actor: str,
        start: float,
        **args: t.Any,
    ) -> Span | None:
        """Open a span; returns ``None`` when tracing is disabled."""
        if not self.enabled:
            return None
        stack = self._stacks.setdefault((group, actor), [])
        parent = stack[-1].span_id if stack else None
        span = self._make(category, name, group, actor, start, None, parent, args)
        stack.append(span)
        return span

    def finish(self, span: Span | None, end: float) -> None:
        """Close a span opened by :meth:`begin` (no-op for ``None``)."""
        if span is None or not self.enabled:
            return
        span.end = end
        stack = self._stacks.get((span.group, span.actor))
        if stack and stack[-1] is span:
            stack.pop()

    def add(
        self,
        category: str,
        name: str,
        *,
        group: str,
        actor: str,
        start: float,
        end: float,
        **args: t.Any,
    ) -> Span | None:
        """Record a complete span in one call (the common case)."""
        if not self.enabled:
            return None
        stack = self._stacks.get((group, actor))
        parent = None
        if stack:
            # Parent under the innermost open span that encloses us.
            for open_span in reversed(stack):
                if open_span.start <= start:
                    parent = open_span.span_id
                    break
        return self._make(category, name, group, actor, start, end, parent, args)

    def _make(
        self,
        category: str,
        name: str,
        group: str,
        actor: str,
        start: float,
        end: float | None,
        parent: int | None,
        args: dict[str, t.Any],
    ) -> Span:
        span = Span(self._next_id, group, actor, category, name, start, end, parent, args)
        self._next_id += 1
        self.spans.append(span)
        return span

    # -- clocked API ---------------------------------------------------------
    @contextlib.contextmanager
    def span(
        self,
        category: str,
        name: str,
        *,
        group: str = "harness",
        actor: str = "main",
        **args: t.Any,
    ) -> t.Iterator[Span | None]:
        """Context manager recording a span on the tracer's clock."""
        if not self.enabled:
            yield None
            return
        opened = self.begin(category, name, group=group, actor=actor,
                            start=self.clock(), **args)
        try:
            yield opened
        finally:
            self.finish(opened, self.clock())

    def wrap(
        self,
        category: str,
        name: str | None = None,
        *,
        group: str = "harness",
        actor: str = "main",
    ) -> t.Callable:
        """Decorator recording one span per call of the wrapped function."""

        def decorate(fn: t.Callable) -> t.Callable:
            label = name if name is not None else fn.__name__

            @functools.wraps(fn)
            def wrapper(*fargs: t.Any, **fkwargs: t.Any):
                if not self.enabled:
                    return fn(*fargs, **fkwargs)
                with self.span(category, label, group=group, actor=actor):
                    return fn(*fargs, **fkwargs)

            return wrapper

        return decorate

    # -- queries -------------------------------------------------------------
    def filter(
        self,
        category: str | None = None,
        *,
        group: str | None = None,
        actor: str | None = None,
    ) -> list[Span]:
        """Spans matching the given category / group / actor."""
        return [
            s
            for s in self.spans
            if (category is None or s.category == category)
            and (group is None or s.group == group)
            and (actor is None or s.actor == actor)
        ]

    def groups(self) -> list[str]:
        """Group names in first-seen order."""
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.group, None)
        return list(seen)

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> t.Iterator[Span]:
        return iter(self.spans)

    def __repr__(self) -> str:
        return f"Tracer({len(self.spans)} spans, enabled={self.enabled})"


#: Shared disabled tracer: every record call is a no-op.
NULL_TRACER = Tracer(enabled=False)
