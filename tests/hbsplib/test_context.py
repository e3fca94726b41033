"""Unit tests for repro.hbsplib.context — BSP semantics."""

import numpy as np
import pytest

from repro.errors import SuperstepError
from repro.hbsplib import HbspRuntime
from repro.obs import observe
from repro.pvm import Message


class TestBspDeliverySemantics:
    macro = None  # the automatic choice: the macro path on these machines

    def test_message_not_visible_before_sync(self, testbed_small):
        def prog(ctx):
            if ctx.pid == 1:
                yield from ctx.send(0, "hello")
            before = len(ctx.peek_messages())
            yield from ctx.sync()
            after = len(ctx.messages())
            return (before, after)

        result = HbspRuntime(testbed_small, macro=self.macro).run(prog)
        assert result.values[0] == (0, 1)

    def test_all_sends_arrive_after_one_sync(self, testbed_small):
        def prog(ctx):
            if ctx.pid != 0:
                yield from ctx.send(0, ctx.pid)
            yield from ctx.sync()
            if ctx.pid == 0:
                return sorted(m.payload for m in ctx.messages())
            return None

        result = HbspRuntime(testbed_small, macro=self.macro).run(prog)
        assert result.values[0] == [1, 2, 3]

    def test_superstep_isolation(self, testbed_small):
        """Messages from superstep 2 are not mixed into superstep 1."""

        def prog(ctx):
            if ctx.pid == 1:
                yield from ctx.send(0, "step1")
            yield from ctx.sync()
            got_first = [m.payload for m in ctx.messages()] if ctx.pid == 0 else []
            if ctx.pid == 2:
                yield from ctx.send(0, "step2")
            yield from ctx.sync()
            got_second = [m.payload for m in ctx.messages()] if ctx.pid == 0 else []
            return (got_first, got_second)

        result = HbspRuntime(testbed_small, macro=self.macro).run(prog)
        assert result.values[0] == (["step1"], ["step2"])

    def test_messages_filter_by_source_pid(self, testbed_small):
        def prog(ctx):
            if ctx.pid in (1, 2):
                yield from ctx.send(0, f"from{ctx.pid}")
            yield from ctx.sync()
            if ctx.pid == 0:
                only_1 = [m.payload for m in ctx.messages(source=1)]
                rest = [m.payload for m in ctx.messages()]
                return (only_1, rest)
            return None

        result = HbspRuntime(testbed_small, macro=self.macro).run(prog)
        assert result.values[0] == (["from1"], ["from2"])

    def test_messages_filter_by_tag(self, testbed_small):
        def prog(ctx):
            if ctx.pid == 1:
                yield from ctx.send(0, "a", tag=10)
                yield from ctx.send(0, "b", tag=20)
            yield from ctx.sync()
            if ctx.pid == 0:
                return [m.payload for m in ctx.messages(tag=20)]
            return None

        result = HbspRuntime(testbed_small, macro=self.macro).run(prog)
        assert result.values[0] == ["b"]

    def test_untaken_messages_stay_queued(self, testbed_small):
        def prog(ctx):
            if ctx.pid == 1:
                yield from ctx.send(0, "keep", tag=5)
            yield from ctx.sync()
            if ctx.pid == 0:
                ctx.messages(tag=99)  # takes nothing
                return [m.payload for m in ctx.peek_messages()]
            return None

        result = HbspRuntime(testbed_small, macro=self.macro).run(prog)
        assert result.values[0] == ["keep"]

    def test_send_outside_group_rejected(self, testbed_small):
        def prog(ctx):
            if ctx.pid == 0:
                yield from ctx.send(99, "x")
            yield from ctx.sync()

        with pytest.raises(SuperstepError, match="outside"):
            HbspRuntime(testbed_small, macro=self.macro).run(prog)

    def test_pid_of_message(self, testbed_small):
        def prog(ctx):
            if ctx.pid == 2:
                yield from ctx.send(0, "x")
            yield from ctx.sync()
            if ctx.pid == 0:
                message = ctx.messages()[0]
                return ctx.pid_of_message(message)
            return None

        result = HbspRuntime(testbed_small, macro=self.macro).run(prog)
        assert result.values[0] == 2


class TestBspDeliverySemanticsOnObjectPath(TestBspDeliverySemantics):
    """The same tests, with every run forced onto the object path."""

    macro = False


class TestClusterScopedSync:
    macro = None  # the automatic choice: the macro path on these machines

    def test_level1_sync_is_cluster_local(self, fig1_machine):
        """A level-1 sync only involves the proc's own cluster, so
        messages inside one cluster are exchanged without the campus
        barrier cost."""

        def prog(ctx):
            coord = ctx.coordinator_pid(1)
            if ctx.pid != coord:
                yield from ctx.send(coord, ctx.pid)
            yield from ctx.sync(level=1)
            count = len(ctx.messages()) if ctx.pid == coord else 0
            yield from ctx.sync()  # global, so everyone finishes together
            return count

        runtime = HbspRuntime(fig1_machine, macro=self.macro)
        result = runtime.run(prog)
        # SMP coordinator got 3, LAN coordinator got 3, SGI got 0.
        counts = sorted(result.values.values())
        assert counts == [0, 0, 0, 0, 0, 0, 0, 3, 3]

    def test_global_sync_charges_root_L(self, fig1_machine):
        def just_sync(ctx):
            yield from ctx.sync()

        runtime = HbspRuntime(fig1_machine, macro=self.macro)
        L_root = runtime.params.L_of(2, 0)
        result = runtime.run(just_sync)
        assert result.time >= L_root

    def test_level1_sync_cheaper_than_global(self, fig1_machine):
        def sync_level1(ctx):
            yield from ctx.sync(level=1)

        def sync_global(ctx):
            yield from ctx.sync()

        t1 = HbspRuntime(fig1_machine, macro=self.macro).run(sync_level1).time
        t2 = HbspRuntime(fig1_machine, macro=self.macro).run(sync_global).time
        assert t1 < t2


class TestClusterScopedSyncOnObjectPath(TestClusterScopedSync):
    """The same tests, with every run forced onto the object path."""

    macro = False


class TestEnquiry:
    macro = None  # the automatic choice: the macro path on these machines

    def test_pid_nprocs_machine(self, testbed_small):
        def prog(ctx):
            yield from ctx.sync()
            return (ctx.pid, ctx.nprocs, ctx.machine_name)

        result = HbspRuntime(testbed_small, macro=self.macro).run(prog)
        for pid, (got_pid, nprocs, name) in result.values.items():
            assert got_pid == pid
            assert nprocs == 4
            assert name  # non-empty

    def test_time_advances(self, testbed_small):
        def prog(ctx):
            start = ctx.time
            yield from ctx.compute(10_000)
            return ctx.time - start

        result = HbspRuntime(testbed_small, macro=self.macro).run(prog)
        assert all(delta > 0 for delta in result.values.values())

    def test_hetero_enquiry(self, testbed_small):
        def prog(ctx):
            yield from ctx.sync()
            return (
                ctx.fastest_pid,
                ctx.slowest_pid,
                ctx.rank_of(),
                ctx.fraction_of(),
                sum(ctx.partition(100)),
            )

        runtime = HbspRuntime(testbed_small, macro=self.macro)
        result = runtime.run(prog)
        for pid, (fast, slow, rank, fraction, total) in result.values.items():
            assert fast == runtime.fastest_pid
            assert slow == runtime.slowest_pid
            assert rank == runtime.rank_of(pid)
            assert 0 < fraction < 1
            assert total == 100

    def test_is_coordinator(self, fig1_machine):
        def prog(ctx):
            yield from ctx.sync()
            return ctx.is_coordinator(1)

        runtime = HbspRuntime(fig1_machine, macro=self.macro)
        result = runtime.run(prog)
        assert sum(result.values.values()) == 3  # one coordinator per level-1 node

    def test_context_dead_after_program(self, testbed_small):
        contexts = []

        def prog(ctx):
            contexts.append(ctx)
            yield from ctx.sync()

        HbspRuntime(testbed_small, macro=self.macro).run(prog)
        with pytest.raises(SuperstepError, match="finished"):
            list(contexts[0].compute(1))


class TestEnquiryOnObjectPath(TestEnquiry):
    """The same tests, with every run forced onto the object path."""

    macro = False


def _fan_out(use_send_each):
    """A fan-out superstep written with ``send_each`` or as the loop of
    ``send`` it is defined to be: every process sends one array to the
    next pid twice, itself, and the pids two and three ahead."""

    def prog(ctx):
        payload = np.arange(8 + ctx.pid, dtype=np.int32)
        peers = [(ctx.pid + d) % ctx.nprocs for d in (1, 1, 0, 2, 3)]
        with ctx.phase("fan-out"):
            if use_send_each:
                yield from ctx.send_each(peers, payload, tag=5)
                yield from ctx.send_each([], payload, tag=6)
            else:
                for peer in peers:
                    yield from ctx.send(peer, payload, tag=5)
        yield from ctx.sync()
        return payload, ctx.messages()

    return prog


class TestSendEach:
    def test_object_path_emits_the_trace_of_the_loop(self, fig1_machine):
        timings = []
        for use_send_each in (True, False):
            with observe(spans=True) as observation:
                runtime = HbspRuntime(fig1_machine)
                runtime.run(_fan_out(use_send_each))
            assert runtime.engine_path[0] == "object"
            timings.append([
                (s.category, s.actor, s.start, s.end, s.args)
                for s in observation.tracer.spans
                if s.category in ("pack", "inject", "drain", "unpack")
            ])
        assert timings[0] == timings[1] and timings[0]

    def test_object_path_records_the_spans_of_the_loop(self, fig1_machine):
        spans = []
        for use_send_each in (True, False):
            with observe(spans=True) as observation:
                HbspRuntime(fig1_machine).run(_fan_out(use_send_each))
            spans.append([
                (s.category, s.name, s.actor, s.start, s.end, s.args)
                for s in observation.tracer.spans
            ])
        assert spans[0] == spans[1] and spans[0]

    @pytest.mark.parametrize("use_send_each", [True, False])
    def test_delivered_messages_are_the_same_on_both_engine_paths(
        self, fig1_machine, use_send_each
    ):
        runs = {}
        for macro in (True, False):
            runtime = HbspRuntime(fig1_machine, macro=macro)
            result = runtime.run(_fan_out(use_send_each))
            assert (runtime.engine_path[0] == "macro") == macro
            assert result.values[0][1]  # something was delivered
            sent = {runtime.tid_of(pid): value[0] for pid, value in result.values.items()}
            for _, messages in result.values.values():
                for message in messages:
                    assert isinstance(message, Message)
                    assert message.payload is sent[message.src]  # never copied
                    with pytest.raises(Exception):
                        message.tag = 9
                    assert message.tag == 5
            runs[macro] = (result.time, [
                [(m.src, m.dst, m.tag, m.nbytes, m.sent_at, m.delivered_at, m.uid)
                 for m in messages]
                for _, messages in result.values.values()
            ])
        assert runs[True] == runs[False]

    @pytest.mark.parametrize("macro", [True, False])
    def test_peer_outside_group_raises_like_send(self, testbed_small, macro):
        def send_prog(ctx):
            yield from ctx.send(99, "x")

        def send_each_prog(ctx):
            yield from ctx.send_each([1, 99, 2], "x")

        errors = []
        for prog in (send_prog, send_each_prog):
            with pytest.raises(SuperstepError, match="outside") as caught:
                HbspRuntime(testbed_small, macro=macro).run(prog)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]
