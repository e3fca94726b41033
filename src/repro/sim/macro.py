"""Macro-event superstep engine: batched fault-free HBSP execution.

Within one superstep of a fault-free HBSP collective, everything the
object-event engine simulates message by message is data-parallel:
each task's pack/inject/compute charges advance a private local clock,
receiver NIC drains fold left-to-right over a per-port timeline, and a
barrier releases at ``max(arrivals) + L``.  :class:`MacroEngine`
computes all of that arithmetically and injects exactly **one**
"superstep boundary" event per barrier cycle into the DES heap,
instead of the O(messages) events of the object path.

Bit-exactness contract
----------------------

The macro path must produce *bit-identical* results to the object
path (same final time, superstep marks, metrics, mailbox contents and
order).  Every formula below therefore mirrors the exact float
operations of :mod:`repro.pvm.task` / :mod:`repro.hbsplib.context`:

* local clocks accumulate serially (``t = t + duration``), calling
  ``spec.pack_time`` / ``spec.unpack_time`` / ``spec.compute_time``
  directly — never precomputed coefficient splits, whose different
  association would drift in the last ulp;
* a NIC drain starts at ``max(previous drain end, arrival)`` — a
  *selection*, exact in floats — and ends one addition later;
* a barrier releases at ``max(arrival times) + L``: the object path
  creates the cost timeout at the last arrival, so the release is the
  same single addition.

Engagement is gated twice: :attr:`repro.pvm.vm.VirtualMachine.
macro_capable` (no injector, no delivery policy, no structured trace,
serialized NIC) and a per-program :func:`macro_safe` opt-in asserting
the program only uses the batched surface (``ctx.send`` / ``ctx.sync``
/ ``ctx.compute`` / message taking — no ad-hoc ``task`` access).  Any
live hook falls back to the object path; see
:meth:`repro.hbsplib.runtime.HbspRuntime.run`.

Boundary staleness
------------------

A cycle's release time is computed when its last party arrives, but a
*different* cluster's segment can later insert an earlier-arriving
send into a NIC timeline this cycle's flush depends on, folding its
drain ends — and therefore the release — upward (never downward: the
fold is work-conserving FIFO).  The boundary callback re-derives the
release when it fires and re-arms itself at the later time if it
grew.

The unpack cascade
------------------

The object path's collect loop keeps taking mailbox messages while
charging unpack serially, so each unpack advances the receiver clock
— and a drain that completes *while earlier unpacks run* is delivered
in the same superstep.  The macro collect replays that loop over the
merged put-order stream (timeline entries by drain end, loopback puts
by send time).  Because the cascade horizon can exceed the release,
and a different cycle releasing inside that window can register a
send the object path would deliver in this same superstep, each
party's collect is *finalized* separately: the boundary computes the
cascade horizon and re-arms until the engine clock reaches it (sends
register at engine time ≤ their arrival, so by then every candidate
entry is on the timeline), then commits and resumes the waiter.
"""

from __future__ import annotations

import typing as t
from bisect import bisect_right

from repro.pvm.message import Message, payload_nbytes
from repro.sim.events import Event

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.hbsplib.context import HbspContext
    from repro.hbsplib.runtime import HbspRuntime
    from repro.sim.barrier import Barrier

__all__ = ["MacroEngine", "macro_safe"]


def macro_safe(program: t.Callable) -> t.Callable:
    """Mark an HBSP program as eligible for the macro-event fast path.

    Safe programs interact with the machine only through the batched
    context surface — ``ctx.send`` / ``ctx.sync`` / ``ctx.compute`` /
    ``ctx.messages`` and the pure enquiry helpers.  Programs that
    reach into ``ctx.task`` (sleep, raw recv, ad-hoc events) must stay
    on the object path and should not carry this marker.
    """
    program._macro_safe = True
    return program


class _SendEntry:
    """One in-flight remote send, shared between the sender's flush
    list and the receiver's NIC-in timeline."""

    __slots__ = (
        "arrival", "inject_end", "drain", "drain_end", "reg",
        "src_tid", "dst_tid", "tag", "payload", "size", "sent_at",
    )

    def __init__(self, arrival: float, inject_end: float, drain: float,
                 reg: int, src_tid: int, dst_tid: int, tag: int,
                 payload: t.Any, size: int, sent_at: float) -> None:
        self.arrival = arrival
        self.inject_end = inject_end
        self.drain = drain
        self.drain_end = 0.0  # set by _NicTimeline.insert
        self.reg = reg
        self.src_tid = src_tid
        self.dst_tid = dst_tid
        self.tag = tag
        self.payload = payload
        self.size = size
        self.sent_at = sent_at


class _NicTimeline:
    """Drain schedule of one receiver NIC-in port.

    Unconsumed entries, sorted by ``(arrival, inject_end, reg)`` — the
    FIFO grant order of the serialized port.  ``inject_end`` breaks
    arrival ties: the object path starts each delivery's latency timer
    the moment the sender's inject completes, so when two arrivals round
    to the *same* double after ``+ latency`` the event heap's FIFO
    sequence still grants the port in inject-completion order, which
    the arrival floats alone no longer encode.  Equal inject ends fall
    back to registration order.  Drain ends fold left to right:
    ``end = max(prev_end, arrival) + drain``, the exact float chain of
    ``Resource.occupy`` under contention.  ``prev_end`` carries the
    busy horizon of the already-consumed prefix across supersteps.

    Folding is lazy: :meth:`insert` only places the entry and marks
    the suffix dirty; drain ends are recomputed in one left-to-right
    pass by :meth:`refold` before anyone reads them (m inserts into a
    k-entry schedule cost O(m log k + k) instead of O(m k)).  Callers
    must :meth:`refold` before reading ``drain_end``.
    """

    __slots__ = ("entries", "keys", "prev_end", "dirty", "queued")

    def __init__(self) -> None:
        self.entries: list[_SendEntry] = []
        #: Parallel (arrival, inject_end, reg) sort keys.
        self.keys: list[tuple[float, float, int]] = []
        self.prev_end = 0.0
        #: First index whose drain_end may be stale (= len(entries)
        #: when the whole schedule is folded).
        self.dirty = 0
        #: True while sitting on the engine's dirty-timeline list.
        self.queued = False

    def insert(self, entry: _SendEntry) -> None:
        keys = self.keys
        key = (entry.arrival, entry.inject_end, entry.reg)
        index = len(keys)
        if index and key < keys[-1]:
            index = bisect_right(keys, key)
        keys.insert(index, key)
        self.entries.insert(index, entry)
        if index < self.dirty:
            self.dirty = index

    def refold(self) -> None:
        """Recompute drain ends from the first dirty index on."""
        entries = self.entries
        index = self.dirty
        if index >= len(entries):
            return
        prev = entries[index - 1].drain_end if index else self.prev_end
        for folded in entries[index:]:
            arrival = folded.arrival
            end = (prev if prev > arrival else arrival) + folded.drain
            folded.drain_end = end
            prev = end
        self.dirty = len(entries)

    def discard(self, count: int) -> None:
        """Drop the consumed prefix (``count`` > 0), carrying its busy
        horizon into ``prev_end`` for future folds."""
        entries = self.entries
        self.prev_end = entries[count - 1].drain_end
        del entries[:count]
        del self.keys[:count]
        self.dirty = len(entries)


class _PidState:
    """Macro-side per-process state: the private local clock plus the
    flush (pending sends) and loopback lists of the current superstep."""

    __slots__ = ("pid", "ctx", "task", "spec", "local_t", "pending", "loopback")

    def __init__(self, pid: int, ctx: "HbspContext") -> None:
        self.pid = pid
        self.ctx = ctx
        self.task = ctx.task
        self.spec = ctx.task.host.spec
        self.local_t = 0.0
        self.pending: list[_SendEntry] = []
        #: Self-sends: (put_time, reg, Message) — merged with drained
        #: messages by mailbox put order at collect time.
        self.loopback: list[tuple[float, int, Message]] = []


class _Cycle:
    """One barrier cycle being assembled: (state, local arrival time,
    flushed sends, waiter event) per arrived party."""

    __slots__ = ("barrier", "arrivals")

    def __init__(self, barrier: "Barrier") -> None:
        self.barrier = barrier
        self.arrivals: list[tuple[_PidState, float, list[_SendEntry], Event]] = []


class MacroEngine:
    """Batched superstep execution bound to one :class:`HbspRuntime`.

    Created by :meth:`HbspRuntime.run` when the capability check and
    the program's :func:`macro_safe` marker both hold; the context's
    ``send`` / ``compute`` / ``_barrier_round`` dispatch here instead
    of driving the PVM object path.
    """

    def __init__(self, runtime: "HbspRuntime") -> None:
        self.runtime = runtime
        self.engine = runtime.engine
        self.vm = runtime.vm
        self._states = [_PidState(ctx.pid, ctx) for ctx in runtime._contexts]
        self._timelines = [_NicTimeline() for _ in self._states]
        self._tid_to_pid = {
            state.task.tid: state.pid for state in self._states
        }
        self._cycles: dict[int, _Cycle] = {}  # id(barrier) -> open cycle
        self._reg = 0
        # Routing is pure in the pid pair: the crossed network is the
        # one of the machines' lowest common ancestor cluster, so we
        # keep the per-pid root-first ancestor id chains and find the
        # LCA with an inline integer scan, caching network constants
        # per LCA.  effective_gap is pure, so the cached floats feed
        # the exact same per-send expressions bit for bit.
        topo = self.vm.topology
        self._mids = [state.task.host.machine_id for state in self._states]
        self._chains = [topo._machine_ancestors[mid] for mid in self._mids]
        self._lca_net: dict[int, tuple] = {}  # lca -> (latency, labels, network)
        self._gaps: dict[tuple[int, int], float] = {}  # (lca, pid) -> gap
        # Multiplying by a 1.0 pair multiplier is a bitwise no-op, so
        # the multiply is skipped entirely when no multipliers are set.
        self._has_pair_mult = bool(topo._pair_multipliers)
        #: Per-network sent counters, flushed to the metrics registry
        #: at superstep boundaries (sums of integer-valued floats are
        #: exact, so totals match the object path's per-send incs).
        self._net_counts: dict[tuple, list] = {}
        #: (pid, level) -> Barrier; barrier_for is a dict hit but this
        #: also skips its level normalisation/validation.
        self._barriers: dict[tuple[int, int | None], t.Any] = {}
        #: Timelines with stale drain ends (see _refold_all).
        self._dirty: list[_NicTimeline] = []
        for state in self._states:
            state.task.macro_now = 0.0

    # -- program-side operations (called from HbspContext) -------------------
    def compute(self, ctx: "HbspContext", work: float) -> None:
        """``ctx.compute``: one serial local-clock addition."""
        state = self._states[ctx.pid]
        duration = state.spec.compute_time(work)
        state.local_t = state.local_t + duration
        state.task.macro_now = state.local_t

    def send(self, ctx: "HbspContext", pid: int, payload: t.Any, tag: int,
             nbytes: int | None) -> None:
        """``ctx.send``: advance the sender clock by pack + inject and
        register the drain on the receiver's NIC timeline."""
        state = self._states[ctx.pid]
        task = state.task
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        if size < 0:
            from repro.errors import PvmError

            raise PvmError(f"nbytes must be >= 0, got {size}")
        sent_at = state.local_t
        task.sent_messages += 1
        task.sent_bytes += size
        self._reg += 1
        reg = self._reg

        if pid == ctx.pid:
            # Loopback: no wire, zero charged bytes, immediate mailbox
            # put (available after the next sync, like every send).
            message = Message(task.tid, task.tid, tag, payload, 0, sent_at, sent_at)
            state.loopback.append((sent_at, reg, message))
            return

        target = self._states[pid]
        ca = self._chains[ctx.pid]
        cb = self._chains[pid]
        i = 1
        lim = min(len(ca), len(cb))
        while i < lim and ca[i] == cb[i]:
            i += 1
        lca = ca[i - 1]
        net = self._lca_net.get(lca)
        if net is None:
            network = self.vm.topology.clusters[lca].network
            net = (network.latency, (("network", network.name),), network)
            self._lca_net[lca] = net
        latency, net_labels, network = net
        send_gap = self._gaps.get((lca, ctx.pid))
        if send_gap is None:
            send_gap = network.effective_gap(state.spec.nic_gap)
            self._gaps[(lca, ctx.pid)] = send_gap
        drain_gap = self._gaps.get((lca, pid))
        if drain_gap is None:
            drain_gap = network.effective_gap(target.spec.nic_gap)
            self._gaps[(lca, pid)] = drain_gap
        counts = self._net_counts.get(net_labels)
        if counts is None:
            self._net_counts[net_labels] = [1, size]
        else:
            counts[0] += 1
            counts[1] += size

        # pack on the sender CPU, inject through the sender NIC —
        # uncontended (one task per host), so both are serial adds.
        t_local = sent_at + state.spec.pack_time(size)
        if self._has_pair_mult:
            multiplier = self.vm.topology.pair_multiplier(
                self._mids[ctx.pid], self._mids[pid]
            )
            t_local = t_local + size * send_gap * multiplier
            drain = size * drain_gap * multiplier
        else:
            t_local = t_local + size * send_gap
            drain = size * drain_gap
        state.local_t = t_local
        task.macro_now = t_local

        # wire latency, then the contended receiver drain (folded on
        # the timeline; drain_end is filled in by insert()).
        entry = _SendEntry(
            t_local + latency,
            t_local,
            drain,
            reg, task.tid, target.task.tid, tag, payload, size, sent_at,
        )
        timeline = self._timelines[pid]
        timeline.insert(entry)
        if not timeline.queued:
            timeline.queued = True
            self._dirty.append(timeline)
        state.pending.append(entry)

    def barrier_round(
        self, ctx: "HbspContext", level: int | None
    ) -> t.Generator[Event, t.Any, None]:
        """``HbspContext._barrier_round`` macro branch: register the
        arrival and suspend on the cycle's waiter event; all flush /
        release / collect bookkeeping happens in the boundary event."""
        barrier = self._barriers.get((ctx.pid, level))
        if barrier is None:
            barrier = self.runtime.barrier_for(ctx.pid, level)
            self._barriers[(ctx.pid, level)] = barrier
        state = self._states[ctx.pid]
        pending, state.pending = state.pending, []
        waiter = Event(self.engine, f"{barrier.name}.wait")
        cycle = self._cycles.get(id(barrier))
        if cycle is None:
            cycle = _Cycle(barrier)
            self._cycles[id(barrier)] = cycle
        cycle.arrivals.append((state, state.local_t, pending, waiter))
        if len(cycle.arrivals) == barrier.parties:
            # Parties block until release, so at most one open cycle
            # exists per barrier; the closure owns it from here.
            del self._cycles[id(barrier)]
            release = self._release_of(cycle)
            self.engine.call_at(release, lambda: self._boundary(cycle, release))
        yield waiter

    def finish(self, ctx: "HbspContext") -> t.Generator[Event, t.Any, None]:
        """Post-program clock stretch: the object engine keeps running
        until trailing local work and unflushed background drains are
        processed, so the macro path must advance the shared clock to
        the same final instant before the process finishes."""
        self._flush_metrics()
        state = self._states[ctx.pid]
        engine = self.engine
        while True:
            self._refold_all()
            target = state.local_t
            for entry in state.pending:
                if entry.drain_end > target:
                    target = entry.drain_end
            if target <= engine.now:
                return
            gate = Event(engine, f"pid{state.pid}.finish")
            engine.call_at(target, gate.succeed)
            # Re-check after the wait: a concurrent insert may have
            # folded an unflushed drain end later still.
            yield gate

    # -- boundary machinery ---------------------------------------------------
    def _flush_metrics(self) -> None:
        """Push the accumulated per-network sent counters into the
        metrics registry (first-send label order, integer-exact)."""
        net_counts = self._net_counts
        if not net_counts:
            return
        metrics = self.vm.metrics
        for labels, (msgs, nbytes) in net_counts.items():
            metrics.inc("repro_messages_sent_total", float(msgs), labels)
            metrics.inc("repro_bytes_sent_total", float(nbytes), labels)
        net_counts.clear()

    def _refold_all(self) -> None:
        """Bring every dirty NIC timeline's drain ends up to date
        (pending entries live on *other* pids' receive timelines, so
        reads of drain_end must be preceded by a global refold)."""
        dirty = self._dirty
        if not dirty:
            return
        for timeline in dirty:
            timeline.refold()
            timeline.queued = False
        dirty.clear()

    def _release_of(self, cycle: _Cycle) -> float:
        """Current release time: max over parties of their flush-resume
        (own clock vs own pending drain ends), plus the barrier cost —
        the exact float the object path's cost timeout lands on."""
        self._refold_all()
        last = 0.0
        for _state, local_t, pending, _waiter in cycle.arrivals:
            resume = local_t
            for entry in pending:
                if entry.drain_end > resume:
                    resume = entry.drain_end
            if resume > last:
                last = resume
        cost = cycle.barrier.cost
        return last + cost if cost else last

    def _boundary(self, cycle: _Cycle, scheduled: float) -> None:
        release = self._release_of(cycle)
        if release != scheduled:
            # An insert folded a flush drain later; re-arm (releases
            # only ever grow — see the module docstring).
            self.engine.call_at(release, lambda: self._boundary(cycle, release))
            return
        self._flush_metrics()
        barrier = cycle.barrier
        index = barrier.macro_cycle()
        arrivals = cycle.arrivals
        resumes = []
        for _state, local_t, pending, _waiter in arrivals:
            resume = local_t
            for entry in pending:
                if entry.drain_end > resume:
                    resume = entry.drain_end
            resumes.append(resume)
        # Waiters resume in arrival order (ties: registration order),
        # exactly like Barrier.release over its FIFO waiting list.
        for i in sorted(range(len(arrivals)), key=resumes.__getitem__):
            state, _local_t, _pending, waiter = arrivals[i]
            state.ctx._wait += release - resumes[i]
            self._finalize(state, release, waiter, index)

    def _walk_collect(self, state: _PidState, release: float) -> tuple[int, int, float]:
        """Replay the object path's collect loop arithmetically.

        ``HbspContext._collect`` keeps taking mailbox messages in put
        order while charging unpack serially — and because each unpack
        advances the receiver clock, a drain that completes *while
        earlier unpacks run* is delivered in the same superstep (the
        unpack cascade).  Returns ``(timeline prefix taken, loopback
        taken, final receiver clock)`` without committing anything.
        Drained entries keep the timeline's grant order and precede
        loopback puts with equal put times, like the object mailbox.
        """
        entries = self._timelines[state.pid].entries
        loopback = state.loopback
        unpack_time = state.spec.unpack_time
        local_t = release
        taken = 0
        li = 0
        n_entries = len(entries)
        n_loop = len(loopback)
        while True:
            entry = entries[taken] if taken < n_entries else None
            if entry is not None and entry.drain_end > local_t:
                entry = None  # still draining: blocks all later entries
            put = loopback[li] if li < n_loop else None
            if entry is not None and (put is None or entry.drain_end <= put[0]):
                taken += 1
                size = entry.size
            elif put is not None:
                # Loopback puts happen mid-superstep, so their put
                # times are <= the release and never block.
                li += 1
                size = put[2].nbytes
            else:
                break
            unpack = unpack_time(size)
            if unpack > 0:
                local_t = local_t + unpack
        return taken, li, local_t

    def _finalize(self, state: _PidState, release: float, waiter: Event,
                  index: int) -> None:
        """Commit one party's collect once its cascade is complete.

        The cascade horizon (the receiver clock after all unpacks) can
        exceed the release, and a *different* cycle releasing inside
        that window can register a send that the object path would
        drain and deliver in this same superstep.  Sends register at
        engine time <= their arrival, so waiting until the engine
        clock reaches the horizon guarantees every candidate entry is
        on the timeline; the walk is monotone in the entry set, so
        re-arming until the horizon stops growing is a fixpoint.
        """
        self._refold_all()
        taken, li, local_t = self._walk_collect(state, release)
        engine = self.engine
        if local_t > engine.now:
            engine.call_at(
                local_t, lambda: self._finalize(state, release, waiter, index)
            )
            return
        self._collect(state, release, taken, li, local_t)
        waiter.succeed(index)

    def _collect(self, state: _PidState, release: float, taken: int, li: int,
                 local_t: float) -> None:
        """BSP delivery at the release: move the walked timeline prefix
        + loopback puts into the context in mailbox put order
        (``HbspContext._collect`` without the object plumbing)."""
        timeline = self._timelines[state.pid]
        entries = timeline.entries
        loopback = state.loopback
        task = state.task
        available = state.ctx._available
        ei = 0
        pi = 0
        while ei < taken or pi < li:
            entry = entries[ei] if ei < taken else None
            put = loopback[pi] if pi < li else None
            if entry is not None and (put is None or entry.drain_end <= put[0]):
                ei += 1
                message = Message(entry.src_tid, entry.dst_tid, entry.tag,
                                  entry.payload, entry.size, entry.sent_at,
                                  entry.drain_end)
            else:
                pi += 1
                message = put[2]
            task.received_messages += 1
            task.received_bytes += message.nbytes
            available.append(message)
        if taken:
            timeline.discard(taken)
        if li:
            del loopback[:li]
        state.local_t = local_t
        task.macro_now = local_t
