"""Tasks: the processes of the PVM-like virtual machine.

A task runs a user generator on one host.  Its communication methods
are generators themselves (``yield from task.send(...)``) because they
consume virtual time on the host's CPU and NIC resources.

The timing of ``send(dst, payload)`` (see DESIGN.md §5) — five steps,
**one engine event each**:

1. **pack** — hold the sender host's CPU for
   ``machine.pack_time(nbytes)`` (PVM XDR encoding; slower on slower
   CPUs — the asymmetry behind the paper's p = 2 gather inversion);
2. **inject** — hold the sender's NIC out-port for
   ``nbytes · max(machine.nic_gap, network.gap)``;
3. **wire** — after ``network.latency``, the message reaches the
   receiver (the network is the LCA cluster's network);
4. **drain** — hold the receiver's NIC in-port for
   ``nbytes · max(receiver.nic_gap, network.gap)``; many senders
   targeting one receiver serialise here;
5. **unpack** — charged to the receiver's CPU inside ``recv``.

Steps 1, 2 and 5 are :meth:`Resource.hold <repro.sim.Resource.hold>`
events the task yields.  ``send`` returns after step 2 (asynchronous,
like ``pvm_send``); steps 3 and 4 run in the background as a *callback
chain* — the latency timeout's callback starts the drain hold, whose
callback does the duplicate check and the mailbox put — not as a
process, so a message in flight owns no generator.  The returned event
completes at mailbox delivery so BSP-style supersteps can wait for
communication to finish.

With an armed :class:`~repro.pvm.DeliveryPolicy` the send also starts
one ``policy.timeout`` timer.  While the first attempt is in flight the
returned event completes from that attempt's arrival and the timer,
when it eventually fires, is a no-op.  Only a timer that expires first
starts the retransmit process (backoff, re-injection, later attempts,
``TimeoutError``), which owns the returned event from that instant: an
original that lands late, during backoff or re-injection, resolves it
only when the loop next looks — after the re-injection — not at
landing.
"""

from __future__ import annotations

import typing as t

from repro.errors import PvmError, TimeoutError
from repro.pvm.message import Message, payload_nbytes
from repro.sim.events import AnyOf, Event

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.pvm.delivery import DeliveryPolicy
    from repro.pvm.vm import Host, VirtualMachine

__all__ = ["Task"]


class _Link:
    """What a run fixes about sending to one destination.

    Built once per ``(sender, destination)`` and looked up per send;
    everything the fault injector can change (transfer times, extra
    latency, message fate) stays a per-send call.  ``network`` is
    ``None`` when no wire is crossed (loopback, same host).
    """

    __slots__ = (
        "target", "network", "level", "latency",
        "inject_gap", "drain_gap", "labels", "name",
    )

    def __init__(self, source: "Task", target: "Task") -> None:
        self.target = target
        self.name = f"{source.name}->{target.name}"
        self.network: str | None = None
        if target.host is source.host:
            return
        vm = source.vm
        network, self.level = vm.route(source.host, target.host)
        self.network = network.name
        self.latency = network.latency
        self.inject_gap = network.effective_gap(source.host.spec.nic_gap)
        self.drain_gap = network.effective_gap(target.host.spec.nic_gap)
        self.labels = (("network", network.name),)


class _Attempt:
    """One delivery attempt in flight (steps 3 + 4): a callback chain.

    Not a process: the latency timeout's callback starts the drain hold
    on the receiver's NIC in-port, and that hold's callback — which
    runs after the port's own release callback — lands the message and
    succeeds ``arrival``.
    """

    __slots__ = (
        "source", "link", "size", "payload", "tag", "sent_at", "uid",
        "arrival", "start",
    )

    def __init__(
        self,
        source: "Task",
        link: _Link,
        size: int,
        payload: t.Any,
        tag: int,
        sent_at: float,
        uid: int | None,
        arrival: Event,
    ) -> None:
        self.source = source
        self.link = link
        self.size = size
        self.payload = payload
        self.tag = tag
        self.sent_at = sent_at
        self.uid = uid
        self.arrival = arrival

    def launch(self, attempt: int) -> None:
        """Put the message on the wire now (it has just been injected).

        With a fault injector the message may be dropped (the attempt
        vanishes; ``arrival`` resolves with ``None`` only on the
        fire-and-forget path, where ``uid`` is None) or delayed.
        """
        link = self.link
        vm = self.source.vm
        engine = vm.engine
        injector = vm.injector
        latency = link.latency
        if injector is not None:
            network = link.network
            dropped, extra_delay = injector.message_fate(network, engine.now)
            if dropped:
                tracer = engine.obs_tracer
                if tracer is not None:
                    tracer.add(
                        "drop", "drop", group=engine.obs_group, actor=self.source.host.spec.name,
                        start=engine.now, end=engine.now,
                        dst=link.target.tid, nbytes=self.size, attempt=attempt,
                    )
                if self.uid is None:
                    self.arrival.succeed(None)
                return
            latency += injector.extra_latency(network, engine.now) + extra_delay
        engine.timeout(latency).add_callback(self._reached)

    def _reached(self, _wire: Event) -> None:
        link = self.link
        vm = self.source.vm
        now = vm.engine.now
        drain = self.size * link.drain_gap
        if vm.injector is not None:
            drain = vm.injector.transfer_time(link.network, now, drain)
        self.start = now
        link.target.host.nic_in.hold(drain).add_callback(self._drained)

    def _drained(self, _hold: Event) -> None:
        """Land the message; a retransmission (``uid`` set) is suppressed
        if an earlier attempt already landed."""
        link = self.link
        source = self.source
        target = link.target
        engine = source.vm.engine
        now = engine.now
        tracer = engine.obs_tracer
        if tracer is not None:
            tracer.add(
                "drain", "drain", group=engine.obs_group, actor=target.host.spec.name,
                start=self.start, end=now, nbytes=self.size, src=source.tid, network=link.network,
            )
        uid = self.uid
        if uid is not None:
            if uid in target._delivered_uids:
                return  # a prior attempt already delivered this send
            target._delivered_uids.add(uid)
        message = Message(
            source.tid, target.tid, self.tag, self.payload, self.size, self.sent_at, now, uid
        )
        target.mailbox.put(message)
        self.arrival.succeed(message)


class _Watch:
    """The timer side of an armed send while attempt 0 is in flight.

    The first arrival completes ``done`` — unless the timer expired
    first and handed ``done`` to the retransmit loop, which then sees
    that arrival like any other when it next waits.
    """

    __slots__ = ("first", "policy", "done", "retransmitting")

    def __init__(self, first: _Attempt, policy: "DeliveryPolicy", done: Event) -> None:
        self.first = first
        self.policy = policy
        self.done = done
        self.retransmitting = False
        first.arrival.add_callback(self._landed)
        first.source.vm.engine.timeout(policy.timeout).add_callback(self._expired)

    def _landed(self, arrival: Event) -> None:
        if not self.retransmitting:
            self.done.succeed(arrival._value)

    def _expired(self, _timer: Event) -> None:
        first = self.first
        if first.arrival.triggered:
            return
        self.retransmitting = True
        task = first.source
        task.vm._fault_processes.append(task.vm.engine.process(
            task._retransmit(first, self.policy, self.done),
            name="retry:" + first.link.name,
        ))


class Task:
    """One task (process) of the virtual machine.

    Created via :meth:`repro.pvm.VirtualMachine.spawn`; user code
    receives the task object as its first argument.
    """

    __slots__ = (
        "vm", "tid", "host", "name", "mailbox", "_delivered_uids",
        "_links", "sent_messages", "sent_bytes",
        "received_messages", "received_bytes", "process", "macro_now",
    )

    def __init__(self, vm: "VirtualMachine", tid: int, host: "Host", name: str) -> None:
        self.vm = vm
        self.tid = tid
        self.host = host
        self.name = name
        from repro.sim.resources import Store

        self.mailbox = Store(vm.engine, name=f"{name}.mailbox")
        #: Uids already delivered here (suppresses retransmit duplicates).
        self._delivered_uids: set[int] = set()
        #: Per-destination records, by destination tid (route, gaps and
        #: labels are too expensive to rebuild on every send).
        self._links: dict[int, _Link] = {}
        #: Statistics: (messages, bytes) sent and received.
        self.sent_messages = 0
        self.sent_bytes = 0
        self.received_messages = 0
        self.received_bytes = 0
        self.process: t.Any = None  # set by VirtualMachine.spawn
        #: Private local clock under the macro-event path (the task's
        #: superstep segment runs at one engine instant there, so the
        #: engine clock lags the task's virtual progress); ``None`` on
        #: the object path, where engine time is task time.
        self.macro_now: float | None = None

    # -- communication -------------------------------------------------------
    def send(
        self,
        dst: int,
        payload: t.Any,
        *,
        tag: int = 0,
        nbytes: int | None = None,
        policy: "DeliveryPolicy | None" = None,
    ) -> t.Generator[Event, t.Any, Event]:
        """Send ``payload`` to task ``dst``; returns the delivery event.

        A generator: ``delivery = yield from task.send(...)``.  Control
        returns once the message has been packed and injected; the
        returned event succeeds (with the :class:`Message`) when the
        message lands in the destination mailbox.

        ``policy`` (default: the machine's ``delivery`` policy) selects
        the delivery guarantee under injected faults.  With an *armed*
        policy the send watches a timeout and retransmits with bounded
        exponential backoff; the returned event then fails with
        :class:`~repro.errors.TimeoutError` once every attempt is
        exhausted.  Without one, a dropped message resolves the event
        with ``None`` (at-most-once: the sender never learns).
        """
        vm = self.vm
        engine = vm.engine
        tracer = engine.obs_tracer
        link = self._links.get(dst)
        if link is None:
            link = self._links[dst] = _Link(self, vm.task(dst))
        target = link.target
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        if size < 0:
            raise PvmError(f"nbytes must be >= 0, got {size}")
        sent_at = engine.now
        self.sent_messages += 1
        self.sent_bytes += size

        if target is self:
            # Loopback: a processor does not send data to itself.
            message = Message(self.tid, dst, tag, payload, 0, sent_at, engine.now)
            self.mailbox.put(message)
            done = engine.event(name=f"{self.name}.self-send")
            done.succeed(message)
            return done

        host = self.host
        pack = host.spec.pack_time(size)
        network = link.network
        if network is None:
            # Same-host IPC between distinct tasks: packed through the
            # daemon on the shared CPU, but never touches the NIC or
            # the wire.
            start = engine.now
            yield host.cpu.hold(pack)
            if tracer is not None:
                tracer.add(
                    "pack", "pack", group=engine.obs_group, actor=host.spec.name,
                    start=start, end=engine.now, nbytes=size, dst=dst, local=True,
                )
            message = Message(self.tid, dst, tag, payload, size, sent_at, engine.now)
            target.mailbox.put(message)
            done = engine.event(name=f"{self.name}.local-send")
            done.succeed(message)
            return done

        if policy is None:
            policy = vm.delivery
        metrics = vm.metrics
        metrics.inc("repro_messages_sent_total", 1.0, link.labels)
        metrics.inc("repro_bytes_sent_total", float(size), link.labels)

        # 1. pack on the sender CPU
        start = engine.now
        yield host.cpu.hold(pack)
        if tracer is not None:
            tracer.add(
                "pack", "pack", group=engine.obs_group, actor=host.spec.name,
                start=start, end=engine.now, nbytes=size, dst=dst,
            )

        # 2. inject through the sender NIC
        start = engine.now
        yield host.nic_out.hold(self._inject_time(link, size))
        if tracer is not None:
            tracer.add(
                "inject", "inject", group=engine.obs_group, actor=host.spec.name,
                start=start, end=engine.now, nbytes=size, dst=dst, network=network,
                level=link.level,
            )

        # 3 + 4. wire latency then drain at the receiver, in background.
        done = Event(engine, link.name)
        if policy is None or not policy.armed:
            # Fire-and-forget: one attempt; `done` resolves at delivery
            # (or with None at a fault-layer drop).
            _Attempt(self, link, size, payload, tag, sent_at, None, done).launch(0)
            return done

        # Reliable path: attempt 0 under one timer; the retransmit loop
        # starts only if that timer expires first.
        first = _Attempt(
            self, link, size, payload, tag, sent_at, vm.take_uid(),
            Event(engine, link.name + "#0"),
        )
        first.launch(0)
        _Watch(first, policy, done)
        return done

    def _inject_time(self, link: _Link, size: int) -> float:
        """NIC out-port hold for ``size`` bytes over ``link``, as of now."""
        inject = size * link.inject_gap
        injector = self.vm.injector
        if injector is not None:
            inject = injector.transfer_time(link.network, self.vm.engine.now, inject)
        return inject

    def _retransmit(
        self, first: _Attempt, policy: "DeliveryPolicy", done: Event
    ) -> t.Generator[Event, t.Any, None]:
        """Retransmit loop of one reliable send, started at its first expiry.

        Entered with attempt 0 (``first``) just expired.  Each round
        books the expiry, re-injects the payload through the sender NIC
        after a bounded exponential backoff, then waits
        ``policy.timeout`` for *any* outstanding attempt to land (late
        originals count, but only here — see the module docstring).
        Exhaustion fails ``done``.
        """
        vm = self.vm
        engine = vm.engine
        tracer = engine.obs_tracer
        link, size = first.link, first.size
        target = link.target
        arrivals = [first.arrival]
        for attempt in range(1, policy.max_attempts + 1):
            vm.metrics.inc("repro_send_timeouts_total")
            if tracer is not None:
                tracer.add(
                    "timeout", "timeout", group=engine.obs_group, actor=self.host.spec.name,
                    start=engine.now, end=engine.now, dst=target.tid, nbytes=size,
                    attempt=attempt - 1,
                )
            if attempt == policy.max_attempts:
                break
            vm.metrics.inc("repro_send_retries_total")
            backoff = policy.backoff_for(attempt - 1)
            if backoff > 0:
                yield engine.timeout(backoff)
            start = engine.now
            yield self.host.nic_out.hold(self._inject_time(link, size))
            if tracer is not None:
                tracer.add(
                    "inject", "inject", group=engine.obs_group, actor=self.host.spec.name,
                    start=start, end=engine.now,
                    nbytes=size, dst=target.tid, network=link.network, retry=attempt,
                )
            arrival = Event(engine, f"{link.name}#{attempt}")
            _Attempt(
                self, link, size, first.payload, first.tag, first.sent_at, first.uid, arrival
            ).launch(attempt)
            arrivals.append(arrival)
            timer = engine.timeout(policy.timeout)
            yield AnyOf(engine, (*arrivals, timer), name=f"{self.name}.sendwait")
            delivered = next((a for a in arrivals if a.triggered and a.ok), None)
            if delivered is not None:
                done.succeed(delivered.value)
                return
        vm.metrics.inc("repro_sends_failed_total")
        done.fail(TimeoutError(
            f"send {self.name} -> {target.name} undelivered after "
            f"{policy.max_attempts} attempt(s) of {policy.timeout:g}s each",
            src=self.tid, dst=target.tid, attempts=policy.max_attempts,
        ))

    def recv(
        self,
        source: int | None = None,
        tag: int | None = None,
    ) -> t.Generator[Event, t.Any, Message]:
        """Blocking receive with PVM-style wildcards; charges unpack time.

        A generator: ``msg = yield from task.recv(...)``.
        """
        if source is None and tag is None:
            message: Message = yield self.mailbox.get()
        else:
            message = yield self.mailbox.get(lambda m: m.matches(source, tag))
        unpack = self.host.spec.unpack_time(message.nbytes)
        if unpack > 0:
            engine = self.vm.engine
            start = engine.now
            yield self.host.cpu.hold(unpack)
            tracer = engine.obs_tracer
            if tracer is not None:
                tracer.add(
                    "unpack", "unpack", group=engine.obs_group,
                    actor=self.host.spec.name, start=start, end=engine.now,
                    nbytes=message.nbytes, src=message.src,
                )
        self.received_messages += 1
        self.received_bytes += message.nbytes
        return message

    def try_recv(self, source: int | None = None, tag: int | None = None) -> Message | None:
        """Non-blocking probe-and-take (``pvm_nrecv``); no unpack charge."""
        if source is None and tag is None:
            message = self.mailbox.try_take()
        else:
            message = self.mailbox.try_take(lambda m: m.matches(source, tag))
        if message is not None:
            self.received_messages += 1
            self.received_bytes += message.nbytes
        return message

    # -- computation -----------------------------------------------------------
    def compute(self, work: float) -> t.Generator[Event, t.Any, None]:
        """Consume ``work`` CPU work units on this task's host.

        A generator: ``yield from task.compute(...)``.
        """
        duration = self.host.spec.compute_time(work)
        engine = self.vm.engine
        start = engine.now
        yield self.host.cpu.hold(duration)
        tracer = engine.obs_tracer
        if tracer is not None:
            tracer.add(
                "compute", "compute", group=engine.obs_group,
                actor=self.host.spec.name, start=start, end=engine.now, work=work,
            )

    def sleep(self, duration: float) -> Event:
        """An event that fires after ``duration`` (idle wait, no CPU)."""
        return self.vm.engine.timeout(duration)

    @property
    def now(self) -> float:
        """Current virtual time (this task's local clock under the
        macro-event path)."""
        macro_now = self.macro_now
        return self.vm.engine.now if macro_now is None else macro_now

    def __repr__(self) -> str:
        return f"<Task {self.tid} {self.name!r} on {self.host.spec.name}>"
