"""Tests for same-host inter-task messaging (the daemon loopback path)."""

import numpy as np

from repro.cluster import ucf_testbed
from repro.obs import observe
from repro.pvm import VirtualMachine


class TestSameHostIpc:
    def _run_pair(self, nbytes):
        with observe(spans=True) as observation:
            vm = VirtualMachine(ucf_testbed(2))

        def receiver(task):
            message = yield from task.recv()
            return (message.nbytes, task.now)

        def sender(task, dst):
            yield from task.send(dst, np.zeros(nbytes, dtype=np.uint8))

        recv_task = vm.spawn(receiver, 0)
        vm.spawn(sender, 0, recv_task.tid)  # same host, different task
        vm.run()
        return observation.tracer, recv_task

    def test_delivers_between_tasks_on_one_host(self):
        _tracer, recv_task = self._run_pair(1000)
        assert recv_task.process.value[0] == 1000

    def test_no_nic_or_wire_charged(self):
        tracer, _recv = self._run_pair(10_000)
        assert tracer.filter("inject") == []
        assert tracer.filter("drain") == []

    def test_pack_still_charged(self):
        tracer, _recv = self._run_pair(10_000)
        (pack,) = tracer.filter("pack")
        assert pack.duration > 0.0 and pack.args["local"] is True

    def test_faster_than_cross_host(self):
        _tracer, local = self._run_pair(50_000)

        vm2 = VirtualMachine(ucf_testbed(2))

        def receiver(task):
            message = yield from task.recv()
            return (message.nbytes, task.now)

        def sender(task, dst):
            yield from task.send(dst, np.zeros(50_000, dtype=np.uint8))

        recv_task = vm2.spawn(receiver, 0)
        vm2.spawn(sender, 1, recv_task.tid)  # cross-host
        vm2.run()
        assert local.process.value[1] < recv_task.process.value[1]

    def test_self_send_still_free(self):
        vm = VirtualMachine(ucf_testbed(2))

        def prog(task):
            yield from task.send(task.tid, np.zeros(10_000, dtype=np.uint8))
            message = yield from task.recv()
            return (message.nbytes, task.now)

        task = vm.spawn(prog, 0)
        vm.run()
        assert task.process.value == (0, 0.0)
