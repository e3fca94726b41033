"""Exact pins of the event-by-event path, captured before the
one-event-per-step rewrite of ``pvm/task.py`` and ``sim/resources.py``.

Everything *simulated* is held here — makespans, retry/timeout
counters, the full :class:`~repro.sim.Trace` record sequence, the
metric counters and the span export — on runs where the retransmit
loop really fires.  The one thing allowed to differ between
implementations is a count of engine events (the ``events`` arg of the
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


def trace_digest(outcome) -> str:
    """sha256 over every trace record, floats by exact repr."""
    return _sha([
        (r.time, r.category, r.actor, r.duration, sorted(r.detail.items()))
        for r in outcome.runtime.vm.trace.records
    ])


def counters_digest(outcome) -> str:
    return _sha(outcome.runtime.vm.metrics.counters_snapshot())


def counter(outcome, name: str) -> float:
    return sum(
        value for metric, _labels, value in outcome.runtime.vm.metrics.counters_snapshot()
        if metric == name
    )


def run(collective: str, topology_name: str, *, faulted: bool):
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
    return RUNS[collective](topology, N, seed=SEED, trace=True, **kwargs)


class TestRetransmissionsHappen:
    def test_gather_testbed(self):
        outcome = run("gather", "testbed10", faulted=True)
        assert outcome.time == 0.006042997714285715
        assert counter(outcome, "repro_send_retries_total") == 1
        assert counter(outcome, "repro_send_timeouts_total") == 1
        assert counter(outcome, "repro_sends_failed_total") == 0

    def test_broadcast_fat_tree(self):
        outcome = run("broadcast", "fat_tree_2_4_4", faulted=True)
        assert outcome.time == 0.03669166344929301
        assert counter(outcome, "repro_send_retries_total") == 12
        assert counter(outcome, "repro_send_timeouts_total") == 12
        assert counter(outcome, "repro_sends_failed_total") == 0


#: (collective, topology, faulted) -> (time, records, trace sha256, counters sha256)
PINS = {
    ("gather", "testbed10", False): (
        0.005209791466666667, 46,
        "6edab8d3729a2426873d5f5bb52f3bbff3d7776abb7ece73fc70e7ac7ab9105e",
        "0949a4adbcdc39295e7cfe3322f958946b9d652d317a245fe935136772ea2938",
    ),
    ("gather", "testbed10", True): (
        0.006042997714285715, 50,
        "8c1bb7231f596f9e34042f1da19b0398d88d6ac9c7a5217e60ddc34aabd104cd",
        "861e3eed2eee638a64e81588268e1e9a1329c66a75e701a31a7bdae682316022",
    ),
    ("gather", "fat_tree_2_4_4", False): (
        0.01080515910492996, 220,
        "c02302ad65c5e21ff594e4f99703cdda3ba95b9f36fe81ac942fd844cfafc888",
        "c57f0442a447709c9bc394125e84cafac91a2d8e7ea6322657da5f9b0f82b873",
    ),
    ("gather", "fat_tree_2_4_4", True): (
        0.01220515910492996, 224,
        "51da79c8daa9ffa8e5841fda8a433ce4c9a027d06ad15c71b5cf506211980b40",
        "b33fe12172eb75b31bf3fb7320d6997aa0011879f5fed301c7ad14ffcc764f8c",
    ),
    ("gather", "multi_rack_4_8", False): (
        0.005178522074076769, 188,
        "738470b115c5cc6546bac4f489424692698c2d8e60accd1571923afd55e5d926",
        "03af546066618971c7c47148312b9f5b7e5d415e897a9f8aae9ccd8287080b08",
    ),
    ("gather", "multi_rack_4_8", True): (
        0.005178522074076769, 189,
        "dabad87097b4264f43207efb85f63ccde32111bac61a232728112a9cef7f049f",
        "03af546066618971c7c47148312b9f5b7e5d415e897a9f8aae9ccd8287080b08",
    ),
    ("broadcast", "testbed10", False): (
        0.015225199999999996, 416,
        "8347a32eb93b39790fdf08dd1f340f3230486438c8dc9aed41ac48e80ea718ae",
        "c475fbf56fa6208017e4f32cf7373bf27896eec261fdd5ebbd9160219b683225",
    ),
    ("broadcast", "testbed10", True): (
        0.015876, 426,
        "989f81bfff010e68dc2d27127cb9354d75acb155f67ffc5eadb2cdfd1a2abe0f",
        "a4c19a930e04b2a71c1aaaa7eb690046e7c06fb3106c6e2cc26763dc9e44c628",
    ),
    ("broadcast", "fat_tree_2_4_4", False): (
        0.030722463650769978, 804,
        "56c8d3d96467a44b2e6ba9d5822c8de79f5f0c2d5bded8370b734a671c2b5a2d",
        "d491a2a9bf5c0da5b9e446625103bef6505dde0bb29a5d227c4308a49c49d7b5",
    ),
    ("broadcast", "fat_tree_2_4_4", True): (
        0.03669166344929301, 841,
        "9971395af5d95eaa6bf830f103e072347cd323fb4a605599bfbdccf5f94aa7c9",
        "57eb8a0840500386eff2f51f6c1eded47fe5c5eeb5df32673e8532caf31fab10",
    ),
    ("broadcast", "multi_rack_4_8", False): (
        0.01900075992395884, 1196,
        "e8891ae8183c7ad6d9bd0dc1e3e8504c7f5a43a8a93973193e155d228759ad4d",
        "40b3c54ca8fc6e08719bd7bae6bda551df6f19e4844d7cb7e62394de37ffb5ed",
    ),
    ("broadcast", "multi_rack_4_8", True): (
        0.028875547065218745, 1251,
        "99662192f88e713667609e063653c681e78a9dfec9cdac2a25709e10cef76b41",
        "384b26a6abfffa5a1b5834a83bbd03c7fd0a0601f5dd61d5f6b02d08f8a4cc7c",
    ),
}


@pytest.mark.parametrize(
    "key", sorted(PINS), ids=lambda k: f"{k[0]}-{k[1]}-{'faulted' if k[2] else 'clean'}"
)
def test_trace_and_counters_pinned(key):
    collective, topology_name, faulted = key
    outcome = run(collective, topology_name, faulted=faulted)
    time, records, trace_sha, counters_sha = PINS[key]
    assert outcome.time == time
    assert len(outcome.runtime.vm.trace.records) == records
    assert trace_digest(outcome) == trace_sha
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


CHROME_PIN = (472, "ba9a70071a4dad5a5d39406dd10c43b8f1ec91a425da16d158035d1f47f7a0ca")
