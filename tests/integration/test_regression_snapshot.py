"""Golden-value regression tests.

Every simulation in this library is deterministic, so key experiment
numbers can be pinned.  If a refactor changes any of these, either it
introduced a behaviour change (fix it) or it deliberately recalibrated
the simulator (update the goldens *and* EXPERIMENTS.md together).
"""

import contextlib
import hashlib
import json
import pathlib

import pytest

from repro.apps import run_histogram, run_matvec
from repro.cluster import grid_three_level, smp_sgi_lan, ucf_testbed
from repro.collectives import (
    RootPolicy,
    WorkloadPolicy,
    run_allgather,
    run_allreduce,
    run_alltoall,
    run_broadcast,
    run_gather,
    run_reduce,
    run_scan,
    run_scatter,
)
from repro.experiments import fig3a_gather_root
from repro.faults import FaultPlan
from repro.model.params import HBSPParams, calibrate
from repro.model.predict import predict_broadcast, predict_gather
from repro.obs import observe

REL = 1e-6


class TestGoldenValues:
    def test_gather_fast_root_time(self):
        outcome = run_gather(
            ucf_testbed(10), 25_600,
            root=RootPolicy.FASTEST, workload=WorkloadPolicy.EQUAL,
        )
        assert outcome.time == pytest.approx(0.0127183, rel=1e-3)

    def test_fig3a_key_points(self):
        report = fig3a_gather_root((100,), (2, 10))
        series = report.series["100 KB"]
        assert series[2] == pytest.approx(0.870, abs=0.005)
        assert series[10] == pytest.approx(1.312, abs=0.01)

    def test_broadcast_factor(self):
        topo = ucf_testbed(10)
        t_s = run_broadcast(topo, 25_600, root=RootPolicy.SLOWEST).time
        t_f = run_broadcast(topo, 25_600, root=RootPolicy.FASTEST).time
        assert t_s / t_f == pytest.approx(1.208, abs=0.01)

    def test_exact_repeatability(self):
        """Same run, bit-identical times — the determinism contract."""
        a = run_gather(ucf_testbed(7), 50_000, seed=42)
        b = run_gather(ucf_testbed(7), 50_000, seed=42)
        assert a.time == b.time  # exact float equality, no tolerance
        assert a.values == b.values
        assert a.predicted_time == b.predicted_time


# ---------------------------------------------------------------------------
# Plan-less predicted ledgers: exact pins and a hand-computed oracle
# ---------------------------------------------------------------------------
#
# ``predict_gather`` / ``predict_broadcast`` are boundary conversions onto
# the schedule-plan arithmetic, so comparing them with ``predict_*_plan``
# compares a function with its own wrapper.  What holds them instead is
# (a) every float, label and name they produced before that fold, captured
# at the last commit that still had a separate plan-less body, and (b) one
# ledger worked out by hand from Sections 4.2 and 4.4.

ALL_PINS = json.loads(
    pathlib.Path(__file__).with_name("predicted_ledgers.json").read_text()
)
PINS = [pin for pin in ALL_PINS if "scheme" in pin]
MACHINES = {
    "testbed": lambda: ucf_testbed(10),
    "fig1": smp_sgi_lan,
    "grid3": lambda: grid_three_level(2, 2, 2),
}
SCHEMES = {"one": "one", "two": "two", "mixed": {1: "one", 3: "one"}}


@pytest.fixture(scope="module")
def pinned_params():
    return {name: calibrate(build()) for name, build in MACHINES.items()}


class TestPredictedLedgerPins:
    @pytest.mark.parametrize(
        "pin",
        PINS,
        ids=lambda pin: "{machine}-{scheme}-n{n}-{root}".format(**pin),
    )
    def test_planless_ledger_is_float_for_float_the_pinned_one(
        self, pinned_params, pin
    ):
        params = pinned_params[pin["machine"]]
        root = (
            params.fastest_index(0)
            if pin["root"] == "fastest"
            else params.slowest_index(0)
        )
        if pin["scheme"] == "gather":
            ledger = predict_gather(params, pin["n"], root=root)
        else:
            ledger = predict_broadcast(
                params, pin["n"], root=root, phases=SCHEMES[pin["scheme"]]
            )
        assert ledger.name == pin["name"]
        assert [
            [s.label, s.level, s.gh, s.L] for s in ledger.steps
        ] == pin["steps"]  # == on floats: no tolerance


class TestHandComputedHbsp1:
    """Three machines on one network, every number written out.

    ``r = (1, 2, 4)``, ``g`` = 1 µs/byte, ``L`` = 1 ms, 4-byte items,
    rooted at the fastest machine.  An h-relation is ``max r·bytes``
    over the machines that send or receive (Section 3.4).
    """

    G, L = 1e-6, 1e-3

    @pytest.fixture(scope="class")
    def params(self):
        return HBSPParams(
            k=1,
            g=self.G,
            m=(3, 1),
            r={(0, 0): 1.0, (0, 1): 2.0, (0, 2): 4.0, (1, 0): 1.0},
            L={(1, 0): self.L},
            c={(0, 0): 4 / 7, (0, 1): 2 / 7, (0, 2): 1 / 7, (1, 0): 1.0},
            fan_out={(0, 0): 0, (0, 1): 0, (0, 2): 0, (1, 0): 3},
        )

    def test_gather(self, params):
        # 1400 items split 800/400/200 by c.  The root keeps its 800 and
        # receives 600 items = 2400 B at r=1; the senders push
        # 1600 B at r=2 and 800 B at r=4: h = max(2400, 3200, 3200).
        ledger = predict_gather(params, 1400)
        assert ledger.name == "gather(k=1, n=1400)"
        (step,) = ledger.steps
        assert step.label == "super1: gather into (1, 0)"
        assert (step.level, step.gh, step.L) == (1, self.G * 3200.0, self.L)

    def test_one_phase_broadcast(self, params):
        # The root sends 1200 items = 4800 B to each of 2 peers: 9600 B
        # at r=1; each peer receives 4800 B, at r=2 and at r=4:
        # h = max(9600, 9600, 19200).
        ledger = predict_broadcast(params, 1200, phases="one")
        assert ledger.name == "broadcast(k=1, n=1200, phases='one')"
        (step,) = ledger.steps
        assert step.label == "super1: one-phase bcast in (1, 0)"
        assert (step.level, step.gh, step.L) == (1, self.G * 19200.0, self.L)

    def test_two_phase_broadcast(self, params):
        # Scatter: shares of 400 items = 1600 B; the root sends two of
        # them (3200 B at r=1), the peers receive one each:
        # h_a = max(3200, 3200, 6400).  Exchange: every machine sends its
        # share twice and receives the other 800 items, 3200 B either
        # way: h_b = max(3200, 6400, 12800).  Two barriers.
        ledger = predict_broadcast(params, 1200, phases="two")
        assert ledger.name == "broadcast(k=1, n=1200, phases='two')"
        (step,) = ledger.steps
        assert step.label == "super1: two-phase bcast in (1, 0)"
        assert step.gh == self.G * (6400.0 + 12800.0)
        assert (step.level, step.L) == (1, 2 * self.L)


# ---------------------------------------------------------------------------
# The toolkit and the applications: exact pins of ledger, run and spans
# ---------------------------------------------------------------------------
#
# Scatter, reduce, allgather, allreduce, alltoall, scan, histogram and
# matvec are compositions of three step bodies (docs/model.md, "three
# steps").  What holds a composition to the program it replaced is every
# number that program produced, captured at the last commit that still
# inlined the steps: the predicted ledger (label, level, w, g·h, L), the
# simulated makespan, superstep count and per-pid return values, and the
# span sequence of the three programs that chain two tree walks.  Each
# case runs twice against the same pin: by default, on the macro path,
# and once more with a live hook that forces the object path — an empty
# fault plan, or for the two apps (which take no plan) span tracing.
# The pinned spans are the runtime's superstep structure; the
# message-timing spans recorded beside them are held by
# test_event_path_pins.py.

TOOLKIT_MACHINES = {
    "testbed": lambda: ucf_testbed(10),
    "fig1": smp_sgi_lan,
    "grid3": grid_three_level,
}
ITEMS, WIDTH, ROWS, SEED = 25_600, 4_096, 240, 2
TOOLKIT = {
    "scatter": lambda topo, root, **hook: run_scatter(
        topo, ITEMS, root=root, seed=SEED, **hook
    ),
    "reduce": lambda topo, root, **hook: run_reduce(
        topo, WIDTH, root=root, seed=SEED, **hook
    ),
    "allgather-hierarchical": lambda topo, root, **hook: run_allgather(
        topo, ITEMS, strategy="hierarchical", root=root, seed=SEED, **hook
    ),
    "allgather-direct": lambda topo, root, **hook: run_allgather(
        topo, ITEMS, strategy="direct", root=root, seed=SEED, **hook
    ),
    "allreduce-tree": lambda topo, root, **hook: run_allreduce(
        topo, WIDTH, strategy="tree", root=root, seed=SEED, **hook
    ),
    "allreduce-direct": lambda topo, root, **hook: run_allreduce(
        topo, WIDTH, strategy="direct", root=root, seed=SEED, **hook
    ),
    "alltoall": lambda topo, root, **hook: run_alltoall(topo, ITEMS, seed=SEED, **hook),
    "scan": lambda topo, root, **hook: run_scan(topo, WIDTH, seed=SEED, **hook),
    "histogram": lambda topo, root, **hook: run_histogram(
        topo, ITEMS, root=root, seed=SEED, **hook
    ),
    "matvec": lambda topo, root, **hook: run_matvec(
        topo, ROWS, root=root, seed=SEED, **hook
    ),
}
APPS = ("histogram", "matvec")
ROOTS = {"fastest": RootPolicy.FASTEST, "slowest": RootPolicy.SLOWEST}
SPANNED = ("allgather-hierarchical", "allreduce-tree", "histogram")
STRUCTURE = ("superstep", "barrier", "phase", "engine")


def toolkit_record(machine: str, op: str, root: str, *, object_path: bool = False) -> dict:
    """Everything one toolkit run produced, in the pin file's shape, from
    the default (macro) path or, with ``object_path``, the object path."""
    topology = TOOLKIT_MACHINES[machine]()
    hook = {"faults": FaultPlan.empty()} if object_path and op not in APPS else {}
    spanned = object_path and op in APPS
    with observe(spans=True) if spanned else contextlib.nullcontext():
        outcome = TOOLKIT[op](topology, ROOTS[root], **hook)
    if object_path:
        assert outcome.runtime.engine_path[0] == "object"
    else:
        assert outcome.runtime.engine_path == ("macro", "")
    record = {
        "machine": machine,
        "op": op,
        "root": root,
        "outcome": outcome.name,
        "ledger": outcome.predicted.name,
        "steps": [
            [s.label, s.level, s.w, s.gh, s.L] for s in outcome.predicted.steps
        ],
        "time": outcome.time,
        "supersteps": outcome.supersteps,
        "values": [
            [pid, list(value)] for pid, value in sorted(outcome.values.items())
        ],
    }
    if op in SPANNED and root == "fastest":
        with observe(spans=True) as observation:
            TOOLKIT[op](topology, ROOTS[root])
        spans = [s for s in observation.tracer.spans if s.category in STRUCTURE]
        record["spans"] = [[s.category, s.name, s.actor] for s in spans]
        record["span_times"] = hashlib.sha256(
            repr([(s.start, s.end) for s in spans]).encode()
        ).hexdigest()
    return record


TOOLKIT_PINS = [pin for pin in ALL_PINS if "op" in pin]


class TestToolkitPins:
    def test_every_machine_op_and_root_is_pinned(self):
        rootless = ("alltoall", "scan")
        assert [(pin["machine"], pin["op"], pin["root"]) for pin in TOOLKIT_PINS] == [
            (machine, op, root)
            for machine in TOOLKIT_MACHINES
            for op in TOOLKIT
            for root in ROOTS
            if not (op in rootless and root == "slowest")
        ]

    @pytest.mark.parametrize(
        "pin",
        TOOLKIT_PINS,
        ids=lambda pin: "{machine}-{op}-{root}".format(**pin),
    )
    def test_ledger_run_and_spans_are_the_pinned_ones(self, pin):
        for object_path in (False, True):
            record = toolkit_record(
                pin["machine"], pin["op"], pin["root"], object_path=object_path
            )
            # Through JSON, as the pin went: tuples become lists, floats
            # round-trip exactly.  == on floats: no tolerance.
            assert json.loads(json.dumps(record)) == pin
