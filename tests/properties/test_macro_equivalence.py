"""Macro-event vs object-event equivalence (the tentpole guarantee).

The macro-event fast path (:mod:`repro.sim.macro`) replays the HBSP
cost arithmetic directly instead of simulating every pack/inject/
drain/deliver event.  Its contract is **bit-identical** results — the
same simulated makespan, per-pid values, superstep counts, and
per-superstep accounting marks — on any fault-free, untraced run of
any program.  These properties pin that contract on random k<=3
machines for every toolkit program, and pin the *fallback* contract:
any live hook (span tracer, injector — even an empty plan, delivery policy,
NIC-serialization ablation) silently reverts to the object path, and
``macro=True`` refuses instead of silently degrading.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    histogram_program,
    jacobi_program,
    matvec_program,
    run_histogram,
    run_jacobi,
    run_matvec,
    run_sample_sort,
    sample_sort_program,
)
from repro.cli import build_preset
from repro.cluster import Cluster, ClusterTopology, MachineSpec, NetworkSpec
from repro.collectives import (
    allgather_program,
    allreduce_program,
    alltoall_program,
    reduce_program,
    run_allgather,
    run_allreduce,
    run_alltoall,
    run_broadcast,
    run_gather,
    run_reduce,
    run_scan,
    run_scatter,
    scan_program,
    scatter_program,
)
from repro.errors import HbspError
from repro.faults import DeliveryPolicy, FaultPlan
from repro.hbsplib.runtime import HbspRuntime
from repro.obs import observe

# ---------------------------------------------------------------------------
# Random k<=3 topology strategy (small, so paired runs stay fast)
# ---------------------------------------------------------------------------

_counter = 0


def _name(prefix):
    global _counter
    _counter += 1
    return f"{prefix}{_counter}"


@st.composite
def machine(draw):
    return MachineSpec(
        _name("m"),
        cpu_rate=draw(st.floats(min_value=1e7, max_value=1e8)),
        nic_gap=draw(st.floats(min_value=8e-8, max_value=2e-7)),
    )


@st.composite
def network(draw, free_sync=False):
    if free_sync:  # zero-cost barriers: a release lands on the last arrival
        sync = dict(sync_base=0.0, sync_per_member=0.0)
    else:
        sync = dict(sync_base=draw(st.floats(min_value=0, max_value=1e-3)))
    return NetworkSpec(
        _name("net"),
        gap=draw(st.floats(min_value=0, max_value=2e-7)),
        latency=draw(st.floats(min_value=0, max_value=1e-3)),
        **sync,
    )


@st.composite
def deep_topology(draw, free_sync=False):
    """A random HBSP machine of depth 1, 2, or 3 (k <= 3)."""
    depth = draw(st.integers(min_value=1, max_value=3))

    def subtree(level):
        if level == 0:
            return draw(machine())
        width = draw(st.integers(min_value=1, max_value=3 if level > 1 else 4))
        children = [subtree(level - 1) for _ in range(width)]
        return Cluster(_name("c"), draw(network(free_sync)), children)

    top = subtree(depth)
    topology = ClusterTopology(top)
    # Degenerate single-machine trees have nothing to send; redraw as
    # a 2-machine LAN instead of filtering (keeps shrinking simple).
    if topology.num_machines < 2:
        topology = ClusterTopology(
            Cluster(_name("c"), draw(network(free_sync)), [draw(machine()), draw(machine())])
        )
    return topology


N = 4_000

_EQUAL_FIELDS = ("time", "values", "supersteps")


def _assert_bit_identical(macro, obj):
    assert macro.runtime.macro is not None  # fast path actually engaged
    assert obj.runtime.macro is None
    for field in _EQUAL_FIELDS:
        assert getattr(macro, field) == getattr(obj, field), field
    assert macro.runtime.superstep_marks() == obj.runtime.superstep_marks()


WIDTH, ROWS = 512, 96

#: The toolkit's other ten programs as ``(program, *args)``, the way
#: their runners call them on a runtime and a root pid; ``counts`` are
#: the runtime's balanced split.  jacobi and sample_sort have no toolkit
#: pin, so this property is their only check on both engines.
TOOLKIT_PROGRAMS = {
    "scatter": lambda rt, root: (scatter_program, rt.partition(N), root, 1),
    "reduce": lambda rt, root: (reduce_program, WIDTH, root, 1),
    "allgather-hierarchical": lambda rt, root: (
        allgather_program, rt.partition(N), root, "hierarchical", 1
    ),
    "allgather-direct": lambda rt, root: (
        allgather_program, rt.partition(N), root, "direct", 1
    ),
    "allreduce-tree": lambda rt, root: (allreduce_program, WIDTH, root, "tree", 1),
    "allreduce-direct": lambda rt, root: (allreduce_program, WIDTH, root, "direct", 1),
    "alltoall": lambda rt, root: (alltoall_program, rt.partition(N), 1),
    "scan": lambda rt, root: (scan_program, WIDTH, 1),
    "histogram": lambda rt, root: (histogram_program, rt.partition(N), root, 16, 1),
    "matvec": lambda rt, root: (matvec_program, rt.partition(ROWS), root, 1),
    "sample_sort": lambda rt, root: (sample_sort_program, rt.partition(N), root, True, 1),
    "jacobi": lambda rt, root: (jacobi_program, rt.partition(N), root, 6, 3, 1e-2),
}


class TestBitIdenticalOnRandomMachines:
    @settings(max_examples=20, deadline=None)
    @given(topology=deep_topology(), root=st.integers(min_value=0, max_value=10))
    def test_broadcast(self, topology, root):
        root %= topology.num_machines
        macro = run_broadcast(topology, N, root=root, seed=1, macro=True)
        obj = run_broadcast(topology, N, root=root, seed=1, macro=False)
        _assert_bit_identical(macro, obj)

    @settings(max_examples=20, deadline=None)
    @given(topology=deep_topology(), root=st.integers(min_value=0, max_value=10))
    def test_gather(self, topology, root):
        root %= topology.num_machines
        macro = run_gather(topology, N, root=root, seed=1, macro=True)
        obj = run_gather(topology, N, root=root, seed=1, macro=False)
        _assert_bit_identical(macro, obj)

    @pytest.mark.parametrize("case", TOOLKIT_PROGRAMS)
    @settings(max_examples=20, deadline=None)
    @given(topology=deep_topology(), root=st.integers(min_value=0, max_value=10))
    def test_toolkit_program(self, case, topology, root):
        runs = []
        for macro in (True, False):
            runtime = HbspRuntime(topology, macro=macro)
            program, *args = TOOLKIT_PROGRAMS[case](runtime, root % runtime.nprocs)
            result = runtime.run(program, *args)
            assert runtime.engine_path[0] == ("macro" if macro else "object")
            runs.append((
                result.time, result.values, result.supersteps,
                runtime.superstep_marks(),
            ))
        assert runs[0] == runs[1]

    def test_macro_run_is_deterministic(self):
        topology = build_preset("testbed:4")
        times = {run_gather(topology, N, seed=1, macro=True).time for _ in range(3)}
        assert len(times) == 1


# ---------------------------------------------------------------------------
# send_each: the fan-out is one engine call on the macro path, a loop of
# send on the object path
# ---------------------------------------------------------------------------

def _fan_out_program(ctx, peer_lists):
    """Two supersteps of fan-outs; returns every delivered field."""
    seen = []
    for step in range(2):
        payload = np.arange(16 * (ctx.pid + 1) + step, dtype=np.int32)
        peers = [peer % ctx.nprocs for peer in peer_lists[(ctx.pid + step) % len(peer_lists)]]
        yield from ctx.send_each(peers, payload, tag=step)
        yield from ctx.send_each([], payload, tag=7)
        yield from ctx.sync()
        # (A fast peer's next-step send can land during this collect's
        # unpacks, so a message's tag need not be this ``step``.)
        seen += [
            (m.src, m.dst, m.tag, m.nbytes, m.sent_at, m.delivered_at, m.payload.size)
            for m in ctx.messages()
        ]
    return seen


class TestSendEachFanOut:
    @settings(max_examples=25, deadline=None)
    @given(
        topology=deep_topology(),
        # Per process a peer list (taken modulo p): empty, with repeats,
        # itself and peers behind every lowest common ancestor.
        peer_lists=st.lists(
            st.lists(st.integers(min_value=0, max_value=30), max_size=8),
            min_size=1, max_size=6,
        ),
    )
    def test_fan_out(self, topology, peer_lists):
        runs = []
        for macro in (True, False):
            runtime = HbspRuntime(topology, macro=macro)
            result = runtime.run(_fan_out_program, peer_lists)
            assert (runtime.macro is not None) == macro
            runs.append((result.time, result.values, runtime.superstep_marks()))
        assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Zero-cost barriers: several boundaries release at the same instant, so
# the order the engine resumes their parties in is what is under test
# ---------------------------------------------------------------------------

def _cluster_steps_program(ctx, schedule):
    """Supersteps synced at drawn levels; the drawn senders fan out
    inside the synced cluster.  Returns every delivered field."""
    seen = []
    k = ctx.runtime.tree.k
    for step, (level, stride, nbytes) in enumerate(schedule):
        level = 1 + level % k
        if ctx.pid % stride == stride - 1:
            payload = np.zeros(nbytes, dtype=np.uint8)
            yield from ctx.send_each(ctx.cluster_members(level), payload, tag=step)
        yield from ctx.sync(level)
        seen += [(m.src, m.tag, m.nbytes, m.sent_at, m.delivered_at) for m in ctx.messages()]
    return seen


class TestSameInstantBoundaries:
    @settings(max_examples=25, deadline=None)
    @given(
        topology=deep_topology(free_sync=True),
        schedule=st.lists(
            st.tuples(st.integers(0, 2), st.integers(1, 4), st.integers(0, 64)),
            min_size=1, max_size=5,
        ),
    )
    def test_cluster_syncs_with_free_barriers(self, topology, schedule):
        runs = []
        for macro in (True, False):
            runtime = HbspRuntime(topology, macro=macro)
            result = runtime.run(_cluster_steps_program, schedule)
            assert (runtime.macro is not None) == macro
            runs.append((result.time, result.values, runtime.superstep_marks()))
        assert runs[0] == runs[1]

    def test_a_resumed_party_cannot_reach_a_same_instant_boundary(self):
        # Free machines, wires and barriers: every superstep of three
        # racks ends at t = 0, so the three level-1 boundaries of a
        # superstep fire at the same instant.  A rack's parties must
        # resume only after all three finalized: resumed any earlier,
        # rack 0 would send into rack 1's first collect, a superstep
        # before the object path delivers it.
        free = dict(gap=0.0, latency=0.0, sync_base=0.0, sync_per_member=0.0)
        costless = dict(msg_overhead=0.0, pack_cost=0.0, unpack_cost=0.0)
        racks = [
            Cluster(f"rack{r}", NetworkSpec(f"lan{r}", **free), [
                MachineSpec(f"r{r}m{i}", cpu_rate=1e7 * (1 + i), nic_gap=1e-7, **costless)
                for i in range(3)
            ])
            for r in range(3)
        ]
        topology = ClusterTopology(Cluster("top", NetworkSpec("wan", **free), racks))
        runs = []
        for macro in (True, False):
            runtime = HbspRuntime(topology, macro=macro)
            result = runtime.run(_next_rack_program)
            runs.append((result.time, result.values, runtime.superstep_marks()))
        assert runs[0] == runs[1]
        marks = runs[0][2]
        assert {step[0] for pid_marks in marks for step in pid_marks} == {0.0}
        assert [pid_marks[0][4] for pid_marks in marks] == [0] * 9  # not sent yet
        assert [pid_marks[1][4] for pid_marks in marks] == [1] * 9


def _next_rack_program(ctx):
    """Free zero-byte sends to the next rack, fenced by rack syncs."""
    yield from ctx.sync(1)
    yield from ctx.send((ctx.pid + 3) % ctx.nprocs, b"")
    yield from ctx.sync(1)
    yield from ctx.sync()
    return [(m.src, m.delivered_at) for m in ctx.messages()]


# ---------------------------------------------------------------------------
# A program that raises fails the same way on both paths
# ---------------------------------------------------------------------------

def _raises_after_sync(ctx):
    yield from ctx.sync()
    if ctx.pid == 2:
        raise ValueError(f"boom from pid {ctx.pid}")
    yield from ctx.sync()


class TestRaisingProgram:
    @pytest.mark.parametrize("macro", [True, False])
    def test_same_exception_and_the_collector_back_on(self, macro):
        runtime = HbspRuntime(build_preset("testbed:4"), macro=macro)
        with pytest.raises(ValueError, match="boom from pid 2"):
            runtime.run(_raises_after_sync)
        assert runtime.engine_path[0] == ("macro" if macro else "object")
        assert gc.isenabled()
        assert runtime._contexts[0].runtime is runtime  # left intact


# ---------------------------------------------------------------------------
# Regression: arrival-tie drain order on a shared receiver NIC
# ---------------------------------------------------------------------------

def _ulp_collapse_topology():
    """Hypothesis-found machine where two same-cluster senders' NIC
    arrivals collapse to one double.

    Both leaves of ``lan`` gather into the middle machine with inject
    ends one ulp apart; adding the wire latency rounds both arrivals
    to the *same* float.  The object path still drains the
    earlier-injecting sender first (its latency timer is created
    first, so the event heap's FIFO sequence orders the drains), which
    the macro timeline can only reproduce by tie-breaking equal
    arrivals on the sender's inject end — without it, the two waiters'
    barrier-wait attribution swaps.
    """
    lan = Cluster("c41", NetworkSpec(
        "net42", gap=1.8106817994039848e-07,
        latency=0.0009186785954551233, sync_base=0.0,
    ), [
        MachineSpec("m38", cpu_rate=1e7, nic_gap=8e-08),
        MachineSpec("m39", cpu_rate=10000001.0, nic_gap=1.940032868120623e-07),
        MachineSpec("m40", cpu_rate=10000000.000000002,
                    nic_gap=1.6562397650912794e-07),
    ])
    zero = dict(gap=0.0, latency=0.0, sync_base=0.0)
    quad = Cluster("c28", NetworkSpec("net29", **zero), [
        MachineSpec("m24", cpu_rate=1e7, nic_gap=1.802386175945286e-07),
        MachineSpec("m25", cpu_rate=1e7, nic_gap=1.8866400762020322e-07),
        MachineSpec("m26", cpu_rate=1e7, nic_gap=1.2466596832982166e-07),
        MachineSpec("m27", cpu_rate=1e7, nic_gap=1.0465764667212104e-07),
    ])
    mixed = Cluster("c34", NetworkSpec("net35", **zero), [
        MachineSpec("m30", cpu_rate=1e7, nic_gap=8e-08),
        MachineSpec("m31", cpu_rate=1e7, nic_gap=8e-08),
        MachineSpec("m32", cpu_rate=13209504.0, nic_gap=8e-08),
        MachineSpec("m33", cpu_rate=17903826.0, nic_gap=8e-08),
    ])
    return ClusterTopology(Cluster("c45", NetworkSpec("net46", **zero), [
        Cluster("c36", NetworkSpec("net37", **zero), [quad, mixed]),
        Cluster("c43", NetworkSpec("net44", **zero), [lan]),
    ]))


class TestArrivalTieDrainOrder:
    def test_gather_wait_attribution_matches_object_path(self):
        topology = _ulp_collapse_topology()
        macro = run_gather(topology, N, root=0, seed=1, macro=True)
        obj = run_gather(topology, N, root=0, seed=1, macro=False)
        _assert_bit_identical(macro, obj)
        # The collapse really happens here: per-pid waits differ
        # between the lan's two senders, so a swapped attribution
        # cannot hide behind symmetry.
        marks = obj.runtime.superstep_marks()
        assert marks[8][0][1] != marks[10][0][1]

    def test_broadcast_on_same_topology(self):
        topology = _ulp_collapse_topology()
        macro = run_broadcast(topology, N, root=0, seed=1, macro=True)
        obj = run_broadcast(topology, N, root=0, seed=1, macro=False)
        _assert_bit_identical(macro, obj)


# ---------------------------------------------------------------------------
# Regression: identical senders whose arrival tie is decided events back
# ---------------------------------------------------------------------------

def _lan(*machines):
    """A free LAN of machines with the given ``(cpu_rate, nic_gap)``."""
    lan = NetworkSpec("lan", gap=0.0, latency=0.0, sync_base=0.0)
    return ClusterTopology(Cluster("top", lan, [
        MachineSpec(f"m{i}", cpu_rate=rate, nic_gap=gap)
        for i, (rate, gap) in enumerate(machines)
    ]))


class TestTwinSendersTie:
    """Hypothesis-found: two identical machines' messages reach one NIC
    at the same double with equal inject (and pack) ends, and the object
    path grants the port to the twin whose *earlier* event was scheduled
    first — a swapped send order (alltoall) or unpack order (matvec)
    several events back.  Registration order swapped the twins' waits."""

    def _assert_same(self, topology, twins, program, *args):
        runs = []
        for macro in (True, False):
            runtime = HbspRuntime(topology, macro=macro)
            result = runtime.run(program, runtime.partition(args[0]), *args[1:])
            runs.append((result.time, result.values, runtime.superstep_marks()))
        assert runs[0] == runs[1]
        marks = runs[1][2]
        assert marks[twins[0]][-1][1] != marks[twins[1]][-1][1]  # not symmetric

    def test_alltoall(self):
        twin = (11902169.0, 1.8018836822066922e-07)
        topology = _lan(twin, (13026100.0, 1.192092896e-07), twin, (1e7, 8e-08))
        self._assert_same(topology, (0, 2), alltoall_program, N, 1)

    def test_matvec(self):
        twin = (22134494.0, 1.0762278027442506e-07)
        topology = _lan((1e7, 8e-08), twin, twin, (36283287.0, 1.5005657678015528e-07))
        self._assert_same(topology, (1, 2), matvec_program, ROWS, 0, 1)


# ---------------------------------------------------------------------------
# Fallback: any live hook reverts to the object path
# ---------------------------------------------------------------------------

def _ping_program(ctx):
    peer = (ctx.pid + 1) % ctx.nprocs
    yield from ctx.send(peer, np.arange(4, dtype=np.int32), tag=3)
    yield from ctx.sync()
    got = ctx.messages(tag=3)
    yield from ctx.compute(1_000.0)
    yield from ctx.sync()
    return len(got)



RUNNERS = {
    "gather": lambda topo: run_gather(topo, N),
    "broadcast": lambda topo: run_broadcast(topo, N),
    "scatter": lambda topo: run_scatter(topo, N),
    "reduce": lambda topo: run_reduce(topo, WIDTH),
    "allgather": lambda topo: run_allgather(topo, N),
    "allreduce": lambda topo: run_allreduce(topo, WIDTH),
    "alltoall": lambda topo: run_alltoall(topo, N),
    "scan": lambda topo: run_scan(topo, WIDTH),
    "histogram": lambda topo: run_histogram(topo, N),
    "matvec": lambda topo: run_matvec(topo, ROWS),
    "sample_sort": lambda topo: run_sample_sort(topo, N),
    "jacobi": lambda topo: run_jacobi(topo, 64, max_iterations=4),
}


class TestFallbackToObjectPath:
    @pytest.mark.parametrize("op", RUNNERS)
    def test_every_runner_takes_the_macro_path_by_default(self, op):
        outcome = RUNNERS[op](build_preset("testbed:4"))
        assert outcome.runtime.engine_path == ("macro", "")

    def test_trace_forces_object_path(self):
        with observe(spans=True):
            outcome = run_gather(build_preset("testbed:4"), N, seed=1)
        assert outcome.runtime.macro is None
        assert outcome.runtime.engine_path == ("object", "spans")

    def test_empty_fault_plan_forces_object_path(self):
        # An injector is an injector, even with nothing planned.
        outcome = run_gather(
            build_preset("testbed:4"), N, seed=1, faults=FaultPlan.empty()
        )
        assert outcome.runtime.macro is None

    def test_delivery_policy_forces_object_path(self):
        outcome = run_gather(
            build_preset("testbed:4"), N, seed=1,
            delivery=DeliveryPolicy.retry(3, timeout=0.05),
        )
        assert outcome.runtime.macro is None

    def test_nic_ablation_forces_object_path(self):
        runtime = HbspRuntime(build_preset("testbed:4"), serialize_nic=False)
        result = runtime.run(_ping_program)
        assert runtime.macro is None
        assert set(result.values.values()) == {1}

    def test_auto_engages_when_clean(self):
        runtime = HbspRuntime(build_preset("testbed:4"))
        result = runtime.run(_ping_program)
        assert runtime.macro is not None
        assert set(result.values.values()) == {1}


class TestMacroInsistRaises:
    def test_traced_machine_refused(self):
        with observe(spans=True), pytest.raises(HbspError, match="live hook: spans$"):
            run_gather(build_preset("testbed:4"), N, seed=1, macro=True)

    def test_faulted_machine_refused(self):
        with pytest.raises(HbspError, match="fault-free, untraced"):
            run_gather(
                build_preset("testbed:4"), N, seed=1,
                faults=FaultPlan.empty(), macro=True,
            )
