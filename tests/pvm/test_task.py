"""Unit tests for repro.pvm.task — message timing semantics."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterTopology, MachineSpec, NetworkSpec
from repro.obs import observe
from repro.pvm import VirtualMachine


def make_vm(**net_kwargs):
    """Two-machine cluster with easily computed costs."""
    net = NetworkSpec(
        "net",
        gap=net_kwargs.pop("gap", 0.0),
        latency=net_kwargs.pop("latency", 0.0),
        sync_base=0.0,
        sync_per_member=0.0,
    )
    fast = MachineSpec(
        "fast", cpu_rate=1e6, nic_gap=1e-6, pack_cost=1.0, unpack_cost=0.5,
        msg_overhead=0.0,
    )
    slow = MachineSpec(
        "slow", cpu_rate=2.5e5, nic_gap=2e-6, pack_cost=1.0, unpack_cost=0.5,
        msg_overhead=0.0,
    )
    topo = ClusterTopology(Cluster("lan", net, [fast, slow]))
    return VirtualMachine(topo)


class TestSendTiming:
    def test_pack_inject_drain_sequence(self):
        vm = make_vm()
        done = {}

        def sender(task, dst):
            yield from task.send(dst, np.zeros(1000, dtype=np.uint8))
            done["send_returned"] = task.now

        def receiver(task):
            message = yield from task.recv()
            done["received"] = task.now
            return message.nbytes

        recv_task = vm.spawn(receiver, 1)
        vm.spawn(sender, 0, recv_task.tid)
        vm.run()
        # pack on fast: 1000 * 1.0 / 1e6 = 1 ms; inject: 1000 * 1e-6 = 1 ms
        assert done["send_returned"] == pytest.approx(2e-3)
        # drain on slow NIC: 1000 * 2e-6 = 2 ms; unpack: 1000*0.5/2.5e5 = 2 ms
        assert done["received"] == pytest.approx(6e-3)

    def test_wire_gap_caps_fast_nic(self):
        vm = make_vm(gap=5e-6)  # wire slower than both NICs

        def sender(task, dst):
            yield from task.send(dst, np.zeros(1000, dtype=np.uint8))

        def receiver(task):
            yield from task.recv()
            return task.now

        recv_task = vm.spawn(receiver, 1)
        vm.spawn(sender, 0, recv_task.tid)
        vm.run()
        # inject: 1000*5e-6 = 5ms, drain 5ms, pack 1ms, unpack 2ms = 13ms
        assert recv_task.process.value == pytest.approx(13e-3)

    def test_latency_added_once(self):
        vm = make_vm(latency=0.5)

        def sender(task, dst):
            yield from task.send(dst, b"x")

        def receiver(task):
            yield from task.recv()
            return task.now

        recv_task = vm.spawn(receiver, 1)
        vm.spawn(sender, 0, recv_task.tid)
        vm.run()
        assert recv_task.process.value > 0.5

    def test_self_send_free_and_instant(self):
        vm = make_vm()

        def prog(task):
            delivery = yield from task.send(task.tid, np.zeros(10_000, dtype=np.int32))
            assert task.now == 0.0  # no pack/inject charged
            message = yield delivery
            assert message.nbytes == 0
            got = yield from task.recv()
            return (task.now, got.nbytes)

        task = vm.spawn(prog, 0)
        vm.run()
        assert task.process.value == (0.0, 0)

    def test_drains_serialise_at_receiver(self):
        """Two senders to one receiver: drains can't overlap."""
        vm = make_vm()
        # give machine 0 two peer tasks? simpler: 3-machine cluster
        net = NetworkSpec("net", gap=0.0, latency=0.0, sync_base=0.0, sync_per_member=0.0)
        spec = MachineSpec("m", cpu_rate=1e9, nic_gap=1e-6, pack_cost=0.0,
                           unpack_cost=0.0, msg_overhead=0.0)
        machines = [MachineSpec(f"m{i}", cpu_rate=1e9, nic_gap=1e-6, pack_cost=0.0,
                                unpack_cost=0.0, msg_overhead=0.0) for i in range(3)]
        vm = VirtualMachine(ClusterTopology(Cluster("lan", net, machines)))

        def sender(task, dst):
            yield from task.send(dst, np.zeros(1000, dtype=np.uint8))

        def receiver(task):
            yield from task.recv()
            yield from task.recv()
            return task.now

        recv_task = vm.spawn(receiver, 0)
        vm.spawn(sender, 1, recv_task.tid)
        vm.spawn(sender, 2, recv_task.tid)
        vm.run()
        # Each drain takes 1 ms; they serialise: total >= 2 ms.
        assert recv_task.process.value >= 2e-3 - 1e-12


class TestRecv:
    def test_matching_by_source_and_tag(self):
        vm = make_vm()

        def sender(task, dst):
            yield from task.send(dst, "first", tag=1)
            yield from task.send(dst, "second", tag=2)

        def receiver(task):
            by_tag = yield from task.recv(tag=2)
            leftover = yield from task.recv()
            return (by_tag.payload, leftover.payload)

        recv_task = vm.spawn(receiver, 1)
        vm.spawn(sender, 0, recv_task.tid)
        vm.run()
        assert recv_task.process.value == ("second", "first")

    def test_try_recv_nonblocking(self):
        vm = make_vm()

        def prog(task):
            assert task.try_recv() is None
            delivery = yield from task.send(task.tid, "x")
            yield delivery
            message = task.try_recv()
            return message.payload if message else None

        task = vm.spawn(prog, 0)
        vm.run()
        assert task.process.value == "x"

    def test_statistics(self):
        vm = make_vm()

        def sender(task, dst):
            yield from task.send(dst, np.zeros(100, dtype=np.uint8))

        def receiver(task):
            yield from task.recv()

        recv_task = vm.spawn(receiver, 1)
        send_task = vm.spawn(sender, 0, recv_task.tid)
        vm.run()
        assert send_task.sent_messages == 1
        assert send_task.sent_bytes == 100
        assert recv_task.received_messages == 1
        assert recv_task.received_bytes == 100

    def test_trace_has_all_phases(self):
        with observe(spans=True) as observation:
            vm = make_vm()

        def sender(task, dst):
            yield from task.send(dst, np.zeros(500, dtype=np.uint8))

        def receiver(task):
            yield from task.recv()

        recv_task = vm.spawn(receiver, 1)
        vm.spawn(sender, 0, recv_task.tid)
        vm.run()
        spans = {s.category: s for s in observation.tracer}
        for phase in ("pack", "inject", "drain", "unpack"):
            assert spans[phase].duration > 0
        # Each phase is on the track of the machine that pays for it.
        assert [spans[c].actor for c in ("pack", "inject", "drain", "unpack")] == [
            "fast", "fast", "slow", "slow"
        ]
