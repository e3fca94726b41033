"""Exact pins of the event-by-event path, captured before the
one-event-per-step rewrite of ``pvm/task.py`` and ``sim/resources.py``.

Everything *simulated* is held here — makespans, retry/timeout
counters, the full sequence of message-timing spans, the metric
counters and the span export — on runs where the retransmit loop
really fires.  The one thing allowed to differ between implementations
is a count of engine events (the ``events`` arg of the
``engine``/``event batch`` span), which is stripped before hashing.
"""

import hashlib
import json

import pytest

from repro.cluster import ucf_testbed
from repro.cluster.discover.generators import fat_tree, multi_rack
from repro.collectives import run_broadcast, run_gather
from repro.faults import DeliveryPolicy, straggler_plan
from repro.obs import chrome_trace, observe

N = 5000
SEED = 3

TOPOLOGIES = {
    "testbed10": lambda: ucf_testbed(10),
    "fat_tree_2_4_4": lambda: fat_tree(2, 4, 4, seed=0),
    "multi_rack_4_8": lambda: multi_rack(4, 8, seed=1),
}
RUNS = {"gather": run_gather, "broadcast": run_broadcast}


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


#: Span categories the runtime records beside message timing.
LIVE_CATEGORIES = ("superstep", "barrier", "phase", "engine")


def timing_rows(tracer) -> list[tuple]:
    """The message-timing spans as ``(time, category, machine, duration,
    sorted args)``: ``time`` is a fault window's start and every other
    interval's end, floats by exact repr."""
    return [
        (s.start if s.category == "fault" else s.end, s.category, s.actor,
         s.end - s.start, sorted(s.args.items()))
        for s in tracer.spans
        if s.category not in LIVE_CATEGORIES
    ]


def trace_digest(tracer) -> str:
    """sha256 over every message-timing span (see :func:`timing_rows`)."""
    return _sha(timing_rows(tracer))


def counters_digest(outcome) -> str:
    return _sha(outcome.runtime.vm.metrics.counters_snapshot())


def counter(outcome, name: str) -> float:
    return sum(
        value for metric, _labels, value in outcome.runtime.vm.metrics.counters_snapshot()
        if metric == name
    )


def run(collective: str, topology_name: str, *, faulted: bool):
    """The pinned run, its spans recorded: ``(outcome, tracer)``."""
    topology = TOPOLOGIES[topology_name]()
    kwargs = {}
    if faulted:
        # A 1 ms timer under a 4x straggler: retransmissions really happen.
        kwargs = {
            "faults": straggler_plan(topology.machines[1].name, factor=4.0),
            "delivery": DeliveryPolicy.retry(3, timeout=0.001),
        }
    else:
        kwargs = {"macro": False}
    with observe(spans=True) as observation:
        outcome = RUNS[collective](topology, N, seed=SEED, **kwargs)
    return outcome, observation.tracer


class TestRetransmissionsHappen:
    def test_gather_testbed(self):
        outcome, _ = run("gather", "testbed10", faulted=True)
        assert outcome.time == 0.006042997714285715
        assert counter(outcome, "repro_send_retries_total") == 1
        assert counter(outcome, "repro_send_timeouts_total") == 1
        assert counter(outcome, "repro_sends_failed_total") == 0

    def test_broadcast_fat_tree(self):
        outcome, _ = run("broadcast", "fat_tree_2_4_4", faulted=True)
        assert outcome.time == 0.03669166344929301
        assert counter(outcome, "repro_send_retries_total") == 12
        assert counter(outcome, "repro_send_timeouts_total") == 12
        assert counter(outcome, "repro_sends_failed_total") == 0


#: (collective, topology, faulted) -> (time, timing rows, trace sha256, counters sha256)
PINS = {
    ("gather", "testbed10", False): (
        0.005209791466666667, 36,
        "7838446626f53f3400b7043aa54b7a9be49b0a99cbbb51aa4fe2be704812c993",
        "0949a4adbcdc39295e7cfe3322f958946b9d652d317a245fe935136772ea2938",
    ),
    ("gather", "testbed10", True): (
        0.006042997714285715, 40,
        "1aaa7814ad7f80a4adb8fc164df34bc6f13cf18343201880c69849975be5cf69",
        "861e3eed2eee638a64e81588268e1e9a1329c66a75e701a31a7bdae682316022",
    ),
    ("gather", "fat_tree_2_4_4", False): (
        0.01080515910492996, 124,
        "3a0e0c14b8b33b3be06ba76297520c23d1d184074651018d1d532dba640e9ce7",
        "c57f0442a447709c9bc394125e84cafac91a2d8e7ea6322657da5f9b0f82b873",
    ),
    ("gather", "fat_tree_2_4_4", True): (
        0.01220515910492996, 128,
        "b9fb28523adc2e3a83da2b3ad6497abf8c5123a6a0e1ede541db424b7053c99c",
        "b33fe12172eb75b31bf3fb7320d6997aa0011879f5fed301c7ad14ffcc764f8c",
    ),
    ("gather", "multi_rack_4_8", False): (
        0.005178522074076769, 124,
        "06e36f201c0c0590fc7024c75110a78c9b1ae81f4edf230593633c3e4ce0e141",
        "03af546066618971c7c47148312b9f5b7e5d415e897a9f8aae9ccd8287080b08",
    ),
    ("gather", "multi_rack_4_8", True): (
        0.005178522074076769, 125,
        "6c583013bb685933e334015932eea0cfb6be1b397b2adde0acae4761fc252f9b",
        "03af546066618971c7c47148312b9f5b7e5d415e897a9f8aae9ccd8287080b08",
    ),
    ("broadcast", "testbed10", False): (
        0.015225199999999996, 396,
        "30d3b8fded90e255c65fc7d8195acbfa610c7056409eeaa59335fa9919ae39f3",
        "c475fbf56fa6208017e4f32cf7373bf27896eec261fdd5ebbd9160219b683225",
    ),
    ("broadcast", "testbed10", True): (
        0.015876, 406,
        "524c51d84914e4f730bdb32c919f6fd2c8e06959c4486e861a851bd7500d2bdc",
        "a4c19a930e04b2a71c1aaaa7eb690046e7c06fb3106c6e2cc26763dc9e44c628",
    ),
    ("broadcast", "fat_tree_2_4_4", False): (
        0.030722463650769978, 612,
        "8e0b46d619c10da247ba5f41adc43501c8e8024657b269dd963c86a270d112db",
        "d491a2a9bf5c0da5b9e446625103bef6505dde0bb29a5d227c4308a49c49d7b5",
    ),
    ("broadcast", "fat_tree_2_4_4", True): (
        0.03669166344929301, 649,
        "b11b7a2edcfacaf3358fda33decb06cc8f99c009f1e60a37bf94925503b70d11",
        "57eb8a0840500386eff2f51f6c1eded47fe5c5eeb5df32673e8532caf31fab10",
    ),
    ("broadcast", "multi_rack_4_8", False): (
        0.01900075992395884, 1068,
        "99d238042d93ab3ed55c2e5706ce1e3dca662bd1b46975896dbce33364f23233",
        "40b3c54ca8fc6e08719bd7bae6bda551df6f19e4844d7cb7e62394de37ffb5ed",
    ),
    ("broadcast", "multi_rack_4_8", True): (
        0.028875547065218745, 1123,
        "bf80a7f1dbf6e106536c5aa941c5e7fe95d00f7c72e69418dc2ea2ec5c266b89",
        "384b26a6abfffa5a1b5834a83bbd03c7fd0a0601f5dd61d5f6b02d08f8a4cc7c",
    ),
}


@pytest.mark.parametrize(
    "key", sorted(PINS), ids=lambda k: f"{k[0]}-{k[1]}-{'faulted' if k[2] else 'clean'}"
)
def test_trace_and_counters_pinned(key):
    collective, topology_name, faulted = key
    outcome, tracer = run(collective, topology_name, faulted=faulted)
    time, rows, trace_sha, counters_sha = PINS[key]
    assert outcome.time == time
    assert len(timing_rows(tracer)) == rows
    assert trace_digest(tracer) == trace_sha
    assert counters_digest(outcome) == counters_sha


def spans_digest(tracer) -> tuple[int, str]:
    """Event count and sha256 of a Chrome trace without engine event counts."""
    events = json.loads(chrome_trace(tracer))["traceEvents"]
    for event in events:
        if event.get("cat") == "engine":
            assert event["args"].pop("events") > 0
    return len(events), _sha(json.dumps(events, sort_keys=True))


def test_chrome_trace_pinned_except_engine_event_counts():
    with observe(spans=True) as observation:
        outcome = run_broadcast(fat_tree(2, 4, 4, seed=0), N, seed=SEED)
    assert outcome.runtime.macro is None  # spans force the event-by-event path
    assert spans_digest(observation.tracer) == CHROME_PIN


#: Message-timing spans are recorded live with their measured start, so
#: an ``inject`` may differ in the last bit from ``end - duration``.
CHROME_PIN = (1084, "b98bb65230073ef367de18090e3f4ce0f840c7d163e62ccc4c0d94c957c8e0bb")
