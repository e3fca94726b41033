"""Macro-event superstep engine: batched fault-free HBSP execution.

Within one superstep of a fault-free HBSP collective, everything the
object-event engine simulates message by message is data-parallel:
each task's pack/inject/compute charges advance a private local clock,
receiver NIC drains fold left-to-right over a per-port timeline, and a
barrier releases at ``max(arrivals) + L``.  :class:`MacroEngine`
computes all of that arithmetically and puts **one** "superstep
boundary" event plus **one** resume batch per barrier cycle on the DES
heap, instead of the O(messages) events of the object path.

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
  same single addition;
* a fan-out (:meth:`MacroEngine.send_each`) hoists *lookups* out of the
  per-peer loop — payload size, ``pack_time``, the route's latency and
  ``size * gap``: pure functions, so the same floats — never float
  operations: each message still advances the sender clock by
  ``(t + pack) + size * gap``, one peer after the other.

Engagement depends on the machine only: :attr:`repro.pvm.vm.VirtualMachine.
macro_blocker` names the one live hook (injector, delivery policy,
span tracer, unserialized NIC) that falls back to the object path;
see :meth:`repro.hbsplib.runtime.HbspRuntime.run`.  Any program qualifies,
because a program reaches the machine only through super^i-steps
(``ctx.send`` / ``ctx.send_each`` / ``ctx.compute`` / ``ctx.sync`` and
message taking).  One that parks on a raw task event instead
(``yield from ctx.task.compute(...)``, say) is stopped with an
:class:`~repro.errors.HbspError` that asks for ``macro=False``.

Who drives a party
------------------

A party is a coroutine, not a DES process: the engine owns each pid's
program generator and resumes it with ``gen.send`` — no
:class:`~repro.sim.process.Process`, no waiter :class:`~repro.sim.events.Event`.
One ``call_soon`` at t = 0 starts every party in pid order (the object
path's spawn order).  ``ctx.sync`` registers the arrival
(:meth:`MacroEngine.barrier_round`) and suspends on a bare ``yield``.
A boundary collects the parties it finalizes into one ready list and
posts one ``call_soon`` that resumes them in finalize order, where the
object path would have triggered one waiter event each.  The two
orders are the same: during a boundary callback nothing else enqueues
a current-instant (lane-0) entry — every re-arm lands in the future
lane — so the waiters' entries would have been contiguous in the
engine's FIFO, and one batched entry at the first one's position runs
the same generator sends, in the same order, against the same heap.
(Resuming them inline inside the boundary instead would let one
cluster's parties send before a same-instant boundary of another
cluster finalizes.)  A party whose collect re-arms resumes alone,
through its own ``call_soon``.  Parties count as live processes for
:meth:`repro.sim.engine.Engine.run`'s deadlock check until their
program returns, so a run that strands one raises
:class:`~repro.errors.DeadlockError` naming it; an exception a
program raises propagates out of ``Engine.run`` as it is.

Boundary staleness
------------------

A cycle's release time is computed when its last party arrives, but a
*different* cluster's segment can later insert an earlier-arriving
send into a NIC timeline this cycle's flush depends on, folding its
drain ends — and therefore the release — upward (never downward: the
fold is work-conserving FIFO).  The boundary callback re-derives the
release when it fires and re-arms itself at the later time if it
grew.

Equal-time order
----------------

The object engine pops equal-time future entries in the order they
were scheduled, so when two messages reach one receiver NIC at the same
double, the port goes first to the one whose arrival was scheduled
first — which, on identical machines, can be decided several events
back.  Each party therefore keeps a *trail*: the times of its events
since it last resumed (resume, unpacks, computes, packs, injects), and
:class:`_NicTimeline` breaks an arrival tie by walking the two senders'
trails back (:func:`_earlier`).  Only a tie pays for the walk.

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
entry is on the timeline), then commits and resumes the party.
"""

from __future__ import annotations

import typing as t
from bisect import bisect_right
from functools import partial
from operator import attrgetter

from repro.errors import HbspError, PvmError
from repro.pvm.message import Message, payload_nbytes

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.hbsplib.context import HbspContext
    from repro.hbsplib.runtime import HbspRuntime
    from repro.sim.barrier import Barrier

__all__ = ["MacroEngine"]


def _history(trail: list, i: int) -> list[float]:
    """Times of event ``trail[i]`` and of the chain of events that
    scheduled it, newest first, back to the party's resume (the unpacks
    of its collect are expanded from the root ``trail[0]`` only here)."""
    _, _, now, sizes, unpack_time = trail[0]
    chain = [now]
    for size in sizes:  # the unpack loop of HbspContext._collect
        unpack = unpack_time(size)
        if unpack > 0 and now + unpack > now:
            now = now + unpack
            chain.append(now)
    return trail[i:1:-1] + chain[::-1]


def _earlier(a: list, i: int, b: list, k: int) -> bool:
    """Whether the object path processes event ``a[i]`` before the
    equal-time event ``b[k]`` (two party trails, see :class:`_PidState`).

    The engine pops equal-time future entries in scheduling order: the
    order of the events that scheduled them, by time, then by *their*
    schedulers, back to the resumes, which compare by ``(last barrier
    arrival, resume stamp)``.  A resume that ties with an ordinary
    event, or schedules a send itself, is taken to come first.
    """
    if a is b:
        return i < k
    if not i or not k:
        return a[0][:2] < b[0][:2]
    ha, hb = _history(a, i), _history(b, k)
    for x, y in zip(ha[1:], hb[1:]):
        if x != y:
            return x < y
    if len(ha) == len(hb):
        return a[0][:2] < b[0][:2]
    if len(ha) < len(hb):  # a's next scheduler is its barrier's cost timeout
        return a[0][0] <= hb[len(ha)]
    return ha[len(hb)] < b[0][0]


class _InFlight(Message):
    """One remote send: the :class:`Message` the receiver will take,
    plus the NIC-timeline fields, shared between the sender's flush
    list and the receiver's timeline; ``trail[sched]`` is the sender
    event that scheduled the wire arrival.  The engine owns (and writes)
    it until delivery; the two dunders put back the C-level slot setter
    that ``frozen=True`` replaced."""

    __slots__ = ("arrival", "drain", "reg", "trail", "sched")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, src: int, dst: int, tag: int, payload: t.Any, nbytes: int,
                 sent_at: float, arrival: float, drain: float, reg: int,
                 trail: list, sched: int) -> None:
        self.src = src
        self.dst = dst
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.sent_at = sent_at
        self.uid = None
        self.arrival = arrival
        self.drain = drain
        self.reg = reg  # delivered_at (the drain end) is set by refold()
        self.trail = trail
        self.sched = sched


class _Delivered(Message):
    """What an :class:`_InFlight` becomes at delivery (``__class__``
    assignment: same layout, :class:`Message`'s frozen setters)."""

    __slots__ = _InFlight.__slots__


class _NicTimeline:
    """Drain schedule of one receiver NIC-in port.

    Unconsumed entries in the FIFO grant order of the serialized port:
    the order in which the object path's wire-arrival events request it.
    Equal arrivals are ordered as the event heap orders them — by the
    time of the sender event that scheduled the arrival (the inject end;
    with zero latency the inject start), then by :func:`_earlier`; what
    that cannot tell apart keeps registration order.  Drain ends fold left to right:
    ``end = max(prev_end, arrival) + drain``, the exact float chain of
    ``Resource.occupy`` under contention.  ``prev_end`` carries the
    busy horizon of the already-consumed prefix across supersteps.

    Folding is lazy: :meth:`insert` only places the entry and marks
    the suffix dirty; drain ends are recomputed in one left-to-right
    pass by :meth:`refold` before anyone reads them (m inserts into a
    k-entry schedule cost O(m log k + k) instead of O(m k)).  Callers
    must :meth:`refold` before reading ``delivered_at`` (the drain end).
    """

    __slots__ = ("entries", "keys", "prev_end", "dirty", "queued")

    def __init__(self) -> None:
        self.entries: list[_InFlight] = []
        #: Parallel (arrival, scheduler time, reg) sort keys.
        self.keys: list[tuple[float, float, int]] = []
        self.prev_end = 0.0
        #: First index whose delivered_at may be stale (= len(entries)
        #: when the whole schedule is folded).
        self.dirty = 0
        #: True while sitting on the engine's dirty-timeline list.
        self.queued = False

    def insert(self, entry: _InFlight, when: float) -> None:
        """Place ``entry``, whose arrival was scheduled at ``when``."""
        keys = self.keys
        arrival = entry.arrival
        key = (arrival, when, entry.reg)
        index = len(keys)
        if index and key < keys[-1]:
            index = bisect_right(keys, key)
        entries = self.entries
        # reg grows: the entry lands behind every (arrival, when) tie,
        # then moves in front of those the object path grants later.
        while index and keys[index - 1][0] == arrival and keys[index - 1][1] == when:
            other = entries[index - 1]
            if not _earlier(entry.trail, entry.sched, other.trail, other.sched):
                break
            index -= 1
        keys.insert(index, key)
        entries.insert(index, entry)
        if index < self.dirty:
            self.dirty = index

    def refold(self) -> None:
        """Recompute drain ends from the first dirty index on."""
        entries = self.entries
        index = self.dirty
        if index >= len(entries):
            return
        prev = entries[index - 1].delivered_at if index else self.prev_end
        for folded in entries[index:]:
            arrival = folded.arrival
            prev = (prev if prev > arrival else arrival) + folded.drain
            folded.delivered_at = prev
        self.dirty = len(entries)

    def discard(self, count: int) -> None:
        """Drop the consumed prefix (``count`` > 0), carrying its busy
        horizon into ``prev_end`` for future folds."""
        entries = self.entries
        self.prev_end = entries[count - 1].delivered_at
        del entries[:count]
        del self.keys[:count]
        self.dirty = len(entries)


class _PidState:
    """One party: its program generator and return value, the private
    local clock, and the flush (pending sends) and loopback lists of the
    current superstep.

    ``trail`` holds what the object path's equal-time order depends
    on: ``trail[0]`` is the last resume — ``(last barrier arrival,
    stamp, release, delivered sizes, unpack_time)``, see
    :func:`_history` — ``trail[1]`` the end of that collect, then one
    time per hold that moved the clock since (compute, pack, inject).
    ``order`` is the next resume's ``(last barrier arrival, stamp)``.
    """

    __slots__ = (
        "pid", "ctx", "task", "spec", "local_t", "pending", "loopback",
        "gen", "value", "waiting_on", "trail", "order",
    )

    def __init__(self, ctx: "HbspContext", gen: t.Generator) -> None:
        self.pid = ctx.pid
        self.ctx = ctx
        self.task = ctx.task
        self.spec = ctx.task.host.spec
        self.local_t = 0.0
        self.pending: list[_InFlight] = []
        #: Self-sends (``delivered_at`` = put time) — merged with
        #: drained messages by mailbox put order at collect time.
        self.loopback: list[Message] = []
        self.gen: t.Generator | None = gen
        self.value: t.Any = None
        self.waiting_on: "Barrier | None" = None
        self.trail: list = [(0.0, self.pid, 0.0, (), None), 0.0]  # started in pid order

    def __repr__(self) -> str:  # names the party in a DeadlockError
        where = f" waiting_on={self.waiting_on.name}" if self.waiting_on else ""
        return f"<macro party {self.task.name}{where}>"


class _Cycle:
    """One barrier cycle being assembled: (state, local arrival time,
    flushed sends) per arrived party."""

    __slots__ = ("barrier", "arrivals")

    def __init__(self, barrier: "Barrier") -> None:
        self.barrier = barrier
        self.arrivals: list[tuple[_PidState, float, list[_InFlight]]] = []


class MacroEngine:
    """Batched superstep execution bound to one :class:`HbspRuntime`.

    Created by :meth:`HbspRuntime.run` when the machine has no live
    hook, with one program generator per pid, which it drives; the
    context's ``send(_each)`` / ``compute`` / ``sync`` dispatch here
    instead of driving the PVM object path.
    """

    def __init__(self, runtime: "HbspRuntime", programs: t.Sequence[t.Generator]) -> None:
        self.runtime = runtime
        self.engine = runtime.engine
        self.vm = runtime.vm
        self._states = [_PidState(ctx, gen) for ctx, gen in zip(runtime._contexts, programs)]
        self._timelines = [_NicTimeline() for _ in self._states]
        self._cycles: dict[int, _Cycle] = {}  # id(barrier) -> open cycle
        self._reg = 0
        self._stamp = len(self._states)  # resume order, after the start stamps
        # Routing is pure in the pid pair: the crossed network is the
        # one of the machines' lowest common ancestor cluster, so we
        # keep the per-pid root-first ancestor id chains and find the
        # LCA with an inline integer scan, caching network constants
        # per LCA.  effective_gap is pure, so the cached floats feed
        # the exact same per-send expressions bit for bit.
        topo = self.vm.topology
        self._chains = [topo._machine_ancestors[state.task.host.machine_id]
                        for state in self._states]
        self._tids = [state.task.tid for state in self._states]
        #: lca -> (latency, labels, network, {pid: effective NIC gap})
        self._lca_net: dict[int, tuple] = {}
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
        # Parties are live until their program returns (the engine's
        # deadlock check), and one entry starts them all in pid order.
        self.engine._live_processes.update(self._states)
        self.engine.call_soon(partial(self._resume, self._states))

    @property
    def values(self) -> dict[int, t.Any]:
        """Per-pid return values of the programs, in pid order."""
        return {state.pid: state.value for state in self._states}

    # -- program-side operations (called from HbspContext) -------------------
    def compute(self, ctx: "HbspContext", work: float) -> None:
        """``ctx.compute``: one serial local-clock addition."""
        state = self._states[ctx.pid]
        duration = state.spec.compute_time(work)
        start = state.local_t
        state.local_t = state.task.macro_now = start + duration
        if state.local_t > start:
            state.trail.append(state.local_t)

    def send_each(self, ctx: "HbspContext", peers: t.Iterable[int], payload: t.Any,
                  tag: int, nbytes: int | None) -> None:
        """``ctx.send_each`` — ``ctx.send`` is its one-peer case: per
        peer, advance the sender clock by pack + inject and register the
        drain on the receiver's NIC timeline.  What every peer shares
        (size, pack time) is looked up once, the route once per
        destination leaf cluster; the float operations per message and
        their order are those of one send after another."""
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        if size < 0:
            raise PvmError(f"nbytes must be >= 0, got {size}")
        me = ctx.pid
        states, timelines, tids, chains = self._states, self._timelines, self._tids, self._chains
        state = states[me]
        task = state.task
        tid = task.tid
        pending = state.pending
        nprocs = len(states)
        own_chain = chains[me]
        chain = None  # the destination leaf cluster the route below is for
        reg = self._reg
        sent = 0
        # pack on the sender CPU, inject through the sender NIC —
        # uncontended (one task per host), so both are serial adds.
        pack = state.spec.pack_time(size)
        t_local = state.local_t
        trail = state.trail
        append = trail.append
        pid = me  # stays a valid pid unless the loop breaks on a bad one
        for pid in peers:
            if not 0 <= pid < nprocs:
                break
            sent += 1
            if pid == me:
                # Loopback: no wire, zero charged bytes, immediate mailbox
                # put (available after the next sync, like every send).
                state.loopback.append(Message(tid, tid, tag, payload, 0, t_local, t_local))
                continue
            if chains[pid] is not chain:
                # Another destination leaf cluster: resolve the route.
                chain = chains[pid]
                i = 1
                lim = min(len(own_chain), len(chain))
                while i < lim and own_chain[i] == chain[i]:
                    i += 1
                lca = own_chain[i - 1]
                if lca not in self._lca_net:
                    network = self.vm.topology.clusters[lca].network
                    self._lca_net[lca] = (network.latency, (("network", network.name),), network, {})
                latency, net_labels, network, gaps = self._lca_net[lca]
                if me not in gaps:
                    gaps[me] = network.effective_gap(state.spec.nic_gap)
                inject = size * gaps[me]
                counts = self._net_counts.setdefault(net_labels, [0, 0])
            drain_gap = gaps.get(pid)
            if drain_gap is None:
                drain_gap = gaps[pid] = network.effective_gap(states[pid].spec.nic_gap)
            counts[0] += 1
            counts[1] += size
            sent_at = t_local
            t_local = t_local + pack
            if t_local > sent_at:  # a hold that moves the clock is an event
                append(t_local)
            packed = t_local
            t_local = t_local + inject
            drain = size * drain_gap
            if t_local > packed:
                append(t_local)
            # wire latency, then the contended receiver drain (folded on
            # the timeline; delivered_at is filled in by refold()).  The
            # inject end schedules the arrival; a zero latency runs
            # inside it, so the inject's own scheduler orders it.
            arrival = t_local + latency
            reg += 1
            sched = len(trail) - (1 if arrival > t_local else 2)
            when = trail[sched] if sched else trail[0][0]
            entry = _InFlight(tid, tids[pid], tag, payload, size, sent_at, arrival, drain,
                              reg, trail, sched)
            timeline = timelines[pid]
            timeline.insert(entry, when)
            if not timeline.queued:
                timeline.queued = True
                self._dirty.append(timeline)
            pending.append(entry)
        self._reg = reg
        state.local_t = task.macro_now = t_local
        task.sent_messages += sent
        task.sent_bytes += sent * size
        ctx._check_peer(pid)  # raises iff the loop broke

    def barrier_round(self, ctx: "HbspContext", level: int | None) -> None:
        """``ctx.sync`` on the macro path: register the arrival (the
        caller then suspends on a bare ``yield``); all flush / release /
        collect bookkeeping happens in the boundary event."""
        barrier = self._barriers.get((ctx.pid, level))
        if barrier is None:
            barrier = self.runtime.barrier_for(ctx.pid, level)
            self._barriers[(ctx.pid, level)] = barrier
        state = self._states[ctx.pid]
        state.waiting_on = barrier
        pending, state.pending = state.pending, []
        cycle = self._cycles.get(id(barrier))
        if cycle is None:
            cycle = _Cycle(barrier)
            self._cycles[id(barrier)] = cycle
        cycle.arrivals.append((state, state.local_t, pending))
        if len(cycle.arrivals) == barrier.parties:
            # Parties block until release, so at most one open cycle
            # exists per barrier; the boundary owns it from here.
            del self._cycles[id(barrier)]
            release = self._release_of(cycle)
            self.engine.call_at(release, partial(self._boundary, cycle, release))

    # -- party driving ----------------------------------------------------------
    def _resume(self, parties: t.Sequence[_PidState]) -> None:
        """Run each party's program, in order, until it next syncs or
        returns (see "Who drives a party" in the module docstring)."""
        for state in parties:
            try:
                parked = state.gen.send(None)
            except StopIteration as stop:
                state.value = stop.value
                self._flush_metrics()
                self._stretch(state)
                continue
            if parked is not None:
                raise HbspError(
                    f"{state.gen.__qualname__} (pid {state.pid} on "
                    f"{state.spec.name}) yielded {parked!r} outside ctx.sync, "
                    "which the macro path cannot resume; run it with "
                    "HbspRuntime(macro=False)"
                )

    def _stretch(self, state: _PidState) -> None:
        """Post-program clock stretch: the object engine keeps running
        until trailing local work and unflushed background drains are
        processed, so the macro path must advance the shared clock to
        the same final instant before the party finishes."""
        self._refold_all()
        target = state.local_t
        for entry in state.pending:
            if entry.delivered_at > target:
                target = entry.delivered_at
        engine = self.engine
        if target > engine.now:
            # Two queue entries, like an event triggered at ``target``:
            # the re-check runs after a same-instant insert that may
            # have folded an unflushed drain end later still.
            engine.call_at(target, partial(engine.call_soon, partial(self._stretch, state)))
            return
        state.ctx._finished = True
        state.gen = None
        engine._live_processes.discard(state)

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
        reads of delivered_at must be preceded by a global refold)."""
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
        for _state, local_t, pending in cycle.arrivals:
            resume = local_t
            for entry in pending:
                if entry.delivered_at > resume:
                    resume = entry.delivered_at
            if resume > last:
                last = resume
        cost = cycle.barrier.cost
        return last + cost if cost else last

    def _boundary(self, cycle: _Cycle, scheduled: float) -> None:
        release = self._release_of(cycle)
        engine = self.engine
        if release != scheduled:
            # An insert folded a flush drain later; re-arm (releases
            # only ever grow — see the module docstring).
            engine.call_at(release, partial(self._boundary, cycle, release))
            return
        self._flush_metrics()
        cycle.barrier.macro_cycle()
        arrivals = cycle.arrivals
        resumes = []
        for _state, local_t, pending in arrivals:
            resume = local_t
            for entry in pending:
                if entry.delivered_at > resume:
                    resume = entry.delivered_at
            resumes.append(resume)
        # Parties finalize in arrival order (ties: registration order),
        # exactly like Barrier.release over its FIFO waiting list, and
        # those whose collect is complete resume in one batch.
        ready: list[_PidState] = []
        last = max(resumes)  # when the cost timeout was scheduled
        for i in sorted(range(len(arrivals)), key=resumes.__getitem__):
            state = arrivals[i][0]
            state.ctx._wait += release - resumes[i]
            state.order = (last, self._stamp)
            self._stamp += 1
            self._finalize(state, release, ready)
        if ready:
            engine.call_soon(partial(self._resume, ready))

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
        size = None
        while True:
            entry = entries[taken] if taken < n_entries else None
            if entry is not None and entry.delivered_at > local_t:
                entry = None  # still draining: blocks all later entries
            put = loopback[li] if li < n_loop else None
            if entry is not None and (put is None or entry.delivered_at <= put.delivered_at):
                taken += 1
            elif put is not None:
                # Loopback puts happen mid-superstep, so their put
                # times are <= the release and never block.
                li += 1
                entry = put
            else:
                break
            if entry.nbytes != size:  # unpack_time is pure in the size
                size = entry.nbytes
                unpack = unpack_time(size)
            if unpack > 0:
                local_t = local_t + unpack
        return taken, li, local_t

    def _finalize(self, state: _PidState, release: float,
                  ready: list[_PidState] | None) -> None:
        """Commit one party's collect once its cascade is complete, then
        queue it on the boundary's ``ready`` batch (``None`` when
        re-armed: the party then resumes through its own entry).

        The cascade horizon (the receiver clock after all unpacks) can
        exceed the release, and a *different* cycle releasing inside
        that window can register a send that the object path would
        drain and deliver in this same superstep.  Sends register at
        engine time <= their arrival, so waiting until the engine
        clock reaches the horizon guarantees every candidate entry is
        on the timeline; the walk is monotone in the entry set, so
        re-arming until the horizon stops growing is a fixpoint.
        """
        self._timelines[state.pid].refold()  # the walk reads no other
        taken, li, local_t = self._walk_collect(state, release)
        engine = self.engine
        if local_t > engine.now:
            engine.call_at(local_t, partial(self._finalize, state, release, None))
            return
        self._collect(state, taken, li, release, local_t)
        if ready is None:
            engine.call_soon(partial(self._resume, (state,)))
        else:
            ready.append(state)

    def _collect(self, state: _PidState, taken: int, li: int, release: float,
                 local_t: float) -> None:
        """BSP delivery at the release: the walked timeline prefix +
        loopback puts go to the context in mailbox put order
        (``HbspContext._collect`` without the object plumbing), and the
        party's trail restarts at this resume.  The drained records *are*
        the delivered messages: the engine lets go of them here (and of
        their senders' trails) and they are frozen from now on."""
        timeline = self._timelines[state.pid]
        task = state.task
        batch = timeline.entries[:taken]
        for entry in batch:
            entry.trail = None
            entry.__class__ = _Delivered
            task.received_bytes += entry.nbytes  # loopback puts carry 0
        if taken:
            timeline.discard(taken)
        if li:
            # Stable sort = merge: drained entries keep the timeline's
            # grant order and precede loopback puts with equal put times.
            batch += state.loopback[:li]
            batch.sort(key=attrgetter("delivered_at"))
            del state.loopback[:li]
        task.received_messages += taken + li
        state.ctx._available.extend(batch)
        state.local_t = task.macro_now = local_t
        # The sizes, not the messages, which are the program's now.
        sizes = tuple(map(attrgetter("nbytes"), batch))
        state.trail = [(*state.order, release, sizes, state.spec.unpack_time), local_t]
