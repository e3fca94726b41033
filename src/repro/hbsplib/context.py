"""The per-process HBSPlib API.

An HBSP program is a generator function ``program(ctx, *args)`` run
once per level-0 processor.  Communication follows BSP semantics: a
message sent during a superstep is available to the destination only
after the next synchronisation (Section 3.2: "A message sent in one
super^i-step is guaranteed to be available to the destination machine
at the beginning of the next super^i-step").

All time-consuming calls are generators — use ``yield from``::

    def program(ctx):
        yield from ctx.compute(1000)
        yield from ctx.send(ctx.fastest_pid, data)
        yield from ctx.sync()
        for msg in ctx.messages():
            ...
"""

from __future__ import annotations

import typing as t

from repro.errors import SuperstepError
from repro.pvm.message import Message
from repro.sim.events import AllOf, Event

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.hbsplib.runtime import HbspRuntime
    from repro.pvm.task import Task

__all__ = ["HbspContext"]


class _NullPhase:
    """Shared no-op context manager for :meth:`HbspContext.phase`."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: t.Any) -> bool:
        return False


_NULL_PHASE = _NullPhase()


class _PhaseSpan:
    """Records one "phase" span on the owning machine's track."""

    __slots__ = ("_ctx", "_tracer", "_name", "_args", "_start")

    def __init__(self, ctx: "HbspContext", tracer: t.Any, name: str, args: dict) -> None:
        self._ctx = ctx
        self._tracer = tracer
        self._name = name
        self._args = args
        self._start = 0.0

    def __enter__(self) -> "_PhaseSpan":
        self._ctx._ensure_step_span()
        self._start = self._ctx.task.now
        return self

    def __exit__(self, *exc_info: t.Any) -> bool:
        ctx = self._ctx
        self._tracer.add(
            "phase", self._name, group=ctx.runtime.obs_group,
            actor=ctx.machine_name, start=self._start, end=ctx.task.now,
            **self._args,
        )
        return False


class HbspContext:
    """The state and API of one HBSP process.

    Attributes
    ----------
    pid:
        This process's id — the global index of its machine (level-0
        ``j``, so pid ``j`` runs on ``M_{0,j}``).
    nprocs:
        Total number of processes (the paper's ``p`` = ``m_0``).
    """

    def __init__(self, runtime: "HbspRuntime", task: "Task", pid: int) -> None:
        self.runtime = runtime
        self.task = task
        self.pid = pid
        self.nprocs = runtime.nprocs
        self.superstep = 0
        self._available: list[Message] = []
        self._pending: list[Event] = []
        #: Per-superstep cumulative marks appended at every sync:
        #: (end_time, barrier_wait, sent_msgs, sent_bytes, recv_msgs,
        #: recv_bytes) — the raw material for obs.accounting.
        self._step_marks: list[tuple[float, float, int, int, int, int]] = []
        self._step_span: t.Any | None = None
        self._wait = 0.0
        self._finished = False

    # -- enquiry (BSPlib: bsp_pid / bsp_nprocs / bsp_time) ---------------------
    @property
    def time(self) -> float:
        """Current virtual time (``bsp_time``)."""
        return self.task.now

    @property
    def machine_name(self) -> str:
        """Name of the machine this process runs on."""
        return self.task.host.spec.name

    # -- heterogeneity primitives ----------------------------------------------
    @property
    def fastest_pid(self) -> int:
        """Pid of the fastest processor (``P_f``; the default root)."""
        return self.runtime.fastest_pid

    @property
    def slowest_pid(self) -> int:
        """Pid of the slowest processor (``P_s``)."""
        return self.runtime.slowest_pid

    def rank_of(self, pid: int | None = None) -> int:
        """Speed rank of ``pid`` (0 = fastest), from benchmark scores."""
        return self.runtime.rank_of(self.pid if pid is None else pid)

    def fraction_of(self, pid: int | None = None) -> float:
        """The model's ``c_{0,pid}`` workload fraction."""
        return self.runtime.fraction_of(self.pid if pid is None else pid)

    def partition(self, n: int, *, balanced: bool = True) -> list[int]:
        """Per-pid item counts for ``n`` items (balanced or equal)."""
        return self.runtime.partition(n, balanced=balanced)

    def coordinator_pid(self, level: int) -> int:
        """Pid coordinating this process's level-``level`` ancestor cluster."""
        return self.runtime.coordinator_pid(self.pid, level)

    def cluster_members(self, level: int) -> tuple[int, ...]:
        """Pids in this process's level-``level`` ancestor cluster."""
        return self.runtime.cluster_members(self.pid, level)

    def is_coordinator(self, level: int) -> bool:
        """True if this process coordinates its level-``level`` cluster."""
        return self.coordinator_pid(level) == self.pid

    # -- communication -------------------------------------------------------------
    def send(
        self,
        pid: int,
        payload: t.Any,
        *,
        tag: int = 0,
        nbytes: int | None = None,
    ) -> t.Generator[Event, t.Any, None]:
        """Buffered send (``bsp_send``); available to ``pid`` after sync.

        A generator: charges pack + injection time on this machine.
        """
        self._check_live()
        macro = self.runtime.macro
        if macro is not None:
            # Macro-event path: pure arithmetic, no simulated events.
            macro.send_each(self, (pid,), payload, tag, nbytes)
            return
        self._check_peer(pid)
        delivery = yield from self.task.send(
            self.runtime.tid_of(pid), payload, tag=tag, nbytes=nbytes
        )
        self._pending.append(delivery)

    def send_each(
        self, peers: t.Iterable[int], payload: t.Any, *, tag: int = 0
    ) -> t.Generator[Event, t.Any, None]:
        """The same ``payload`` to every pid of ``peers``, in order: by
        definition ``for pid in peers: yield from self.send(pid, payload,
        tag=tag)`` (a peer may be this process, or repeat).  The macro
        path sizes and routes the fan-out in one engine call.
        """
        self._check_live()
        macro = self.runtime.macro
        if macro is not None:
            macro.send_each(self, peers, payload, tag, None)
            return
        for pid in peers:
            yield from self.send(pid, payload, tag=tag)

    def sync(self, level: int | None = None) -> t.Generator[Event, t.Any, None]:
        """Barrier synchronisation ending the current superstep.

        ``level=None`` (or ``k``) synchronises the whole machine,
        charging the root's ``L``; ``level=i`` synchronises only this
        process's level-``i`` ancestor cluster, charging that cluster's
        ``L_{i,j}`` — the cluster-scoped barrier of a super^i-step.

        On return, every message sent to this process before its
        sender entered the same barrier is available via
        :meth:`messages`.
        """
        self._check_live()
        macro = self.runtime.macro
        if macro is not None:
            # Macro-event path: register the arrival and suspend; the
            # macro engine does the flush / release / collect
            # bookkeeping arithmetically and resumes this generator.
            macro.barrier_round(self, level)
            yield
        else:
            self._ensure_step_span()
            yield from self._barrier_round(level)
        task = self.task
        now = task.now
        self._step_marks.append((
            now, self._wait, task.sent_messages, task.sent_bytes,
            task.received_messages, task.received_bytes,
        ))
        self._wait = 0.0
        span = self._step_span
        if span is not None:  # only ever opened under span tracing
            span.args["level"] = self.runtime.tree.k if level is None else level
            self.runtime.obs_tracer.finish(span, now)
            self._step_span = None
        self.superstep += 1

    def _barrier_round(self, level: int | None) -> t.Generator[Event, t.Any, None]:
        """One flush + barrier + collect round on the object path."""
        # 1. Superstep communication must complete before the barrier
        #    can release: wait for our own sends to be delivered.
        if self._pending:
            pending, self._pending = self._pending, []
            yield AllOf(self.runtime.engine, pending, name=f"pid{self.pid}.flush")
        # 2. Cluster-scoped barrier (charges L).
        barrier = self.runtime.barrier_for(self.pid, level)
        start = self.task.now
        yield barrier.wait()
        now = self.task.now
        self._wait += now - start
        tracer = self.runtime.obs_tracer
        if tracer is not None:
            tracer.add(
                "barrier", barrier.name, group=self.runtime.obs_group,
                actor=self.machine_name, start=start, end=now,
                superstep=self.superstep,
            )
        # 3. BSP delivery: everything in the mailbox becomes available.
        yield from self._collect()

    def _collect(self) -> t.Generator[Event, t.Any, None]:
        task = self.task
        host = task.host
        unpack_time = host.spec.unpack_time
        tracer = self.runtime.obs_tracer
        available = self._available
        while True:
            message = task.try_recv()
            if message is None:
                break
            unpack = unpack_time(message.nbytes)
            if unpack > 0:
                start = task.now
                yield host.cpu.hold(unpack)
                if tracer is not None:
                    tracer.add(
                        "unpack", "unpack", group=self.runtime.obs_group,
                        actor=self.machine_name, start=start, end=task.now,
                        nbytes=message.nbytes, src=message.src,
                    )
            available.append(message)

    def messages(
        self,
        source: int | None = None,
        tag: int | None = None,
    ) -> list[Message]:
        """Take delivered messages (``bsp_move``), oldest first.

        ``source`` filters by sender *pid*.  Taken messages are removed
        from the queue.
        """
        src_tid = None if source is None else self.runtime.tid_of(source)
        taken: list[Message] = []
        kept: list[Message] = []
        for m in self._available:
            (taken if m.matches(src_tid, tag) else kept).append(m)
        self._available = kept
        return taken

    def peek_messages(self) -> tuple[Message, ...]:
        """Delivered-but-untaken messages (non-destructive)."""
        return tuple(self._available)

    def pid_of_message(self, message: Message) -> int:
        """Sender pid of a delivered message."""
        return self.runtime.pid_of(message.src)

    # -- computation -------------------------------------------------------------------
    def compute(self, work: float) -> t.Generator[Event, t.Any, None]:
        """Perform ``work`` CPU work units of local computation."""
        self._check_live()
        macro = self.runtime.macro
        if macro is not None:
            macro.compute(self, work)
            return
        yield from self.task.compute(work)

    # -- observability ----------------------------------------------------------------
    def phase(self, name: str, **args: t.Any) -> t.ContextManager[t.Any]:
        """A named span over a program region on this machine's track.

        The collectives wrap their per-level phases (local work, sends,
        barrier) with this so exported traces show algorithm structure,
        not just raw message timing.  A shared no-op context manager is
        returned unless span tracing is active, so the disabled cost is
        one attribute read.
        """
        tracer = self.runtime.obs_tracer
        if tracer is None:
            return _NULL_PHASE
        return _PhaseSpan(self, tracer, name, args)

    def _ensure_step_span(self) -> None:
        """Open this superstep's span on the first traced event.

        The span starts at the previous sync's end (the superstep
        boundary) and stays open until :meth:`sync` finishes it, so
        barrier and phase spans recorded in between nest under it.
        Lazy opening means the final partial superstep — work after
        the last sync — never leaves a dangling open span.
        """
        tracer = self.runtime.obs_tracer
        if tracer is None or self._step_span is not None:
            return
        marks = self._step_marks
        self._step_span = tracer.begin(
            "superstep", f"superstep {self.superstep}",
            group=self.runtime.obs_group, actor=self.machine_name,
            start=marks[-1][0] if marks else 0.0,
        )

    # -- internal ----------------------------------------------------------------------
    def _check_live(self) -> None:
        if self._finished:
            raise SuperstepError(
                f"pid {self.pid} used its context after the program finished"
            )

    def _check_peer(self, pid: int) -> None:
        if not 0 <= pid < self.nprocs:
            raise SuperstepError(
                f"send to pid {pid} outside process group [0, {self.nprocs})"
            )

    def __repr__(self) -> str:
        return (
            f"<HbspContext pid={self.pid}/{self.nprocs} on {self.machine_name} "
            f"superstep={self.superstep}>"
        )
