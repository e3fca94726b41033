"""Properties of the SimJob content hash.

The hash is the cache key for every layer of the sweep executor, so it
must be canonical (spelling order cannot matter), discriminating (any
configuration change must change it) and process-independent (no
``PYTHONHASHSEED`` or ``id()`` leakage).
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterTopology, MachineSpec, NetworkSpec, topology_hash
from repro.cluster.discover.generators import fat_tree
from repro.cluster.presets import flat_cluster, ucf_testbed
from repro.collectives import RootPolicy, WorkloadPolicy
from repro.errors import ReproError
from repro.faults import (
    BackgroundLoad,
    DeliveryPolicy,
    FaultPlan,
    LinkDegradation,
    MachinePause,
    MachineSlowdown,
    MessageFaults,
)
from repro.perf import APP_OPS, COLLECTIVE_OPS, SimJob
from repro.perf.job import content_tokens
from repro.tuning import LevelSchedule, SchedulePlan


def _hash(job: SimJob) -> str:
    return job.content_hash


#: One valid value of every job-kwarg dataclass, and per field one other
#: valid value.  The test below walks ``dataclasses.fields``, so a field
#: added to any of these types fails it until it is listed here.
_KWARG_VALUES = {
    DeliveryPolicy: (
        DeliveryPolicy(timeout=0.01, retries=2, backoff_base=0.005, backoff_factor=2.0),
        {"timeout": 0.02, "retries": 3, "backoff_base": 0.004, "backoff_factor": 3.0},
    ),
    MachineSlowdown: (
        MachineSlowdown("sgi-octane", factor=2.0, start=0.001, duration=0.01),
        {"machine": "sgi-o2", "factor": 3.0, "start": 0.002, "duration": 0.02},
    ),
    MachinePause: (
        MachinePause("sgi-octane", start=0.002, duration=0.001),
        {"machine": "sgi-o2", "start": 0.003, "duration": 0.002},
    ),
    LinkDegradation: (
        LinkDegradation("ucf-lan", gap_factor=2.0, extra_latency=0.001, start=0.0,
                        duration=0.01),
        {"network": "other-lan", "gap_factor": 3.0, "extra_latency": 0.002,
         "start": 0.001, "duration": 0.02},
    ),
    MessageFaults: (
        MessageFaults("ucf-lan", drop_prob=0.1, delay_prob=0.1, delay_mean=0.001,
                      start=0.0, duration=0.01),
        {"network": "other-lan", "drop_prob": 0.2, "delay_prob": 0.2,
         "delay_mean": 0.002, "start": 0.001, "duration": 0.02},
    ),
    BackgroundLoad: (
        BackgroundLoad("sgi-octane", intensity=0.5, start=0.0, duration=0.01,
                       burst_mean=0.01),
        {"machine": "sgi-o2", "intensity": 0.25, "start": 0.001, "duration": 0.02,
         "burst_mean": 0.02},
    ),
    SchedulePlan: (
        SchedulePlan("gather", (LevelSchedule("binomial"),)),
        {"op": "broadcast", "levels": (LevelSchedule("flat"),)},
    ),
    LevelSchedule: (
        LevelSchedule("flat"),
        {"algorithm": "binomial", "segments": 2},
    ),
}


def _gather_job(value) -> SimJob:
    """The gather job that carries ``value`` in the kwarg it belongs to."""
    if isinstance(value, DeliveryPolicy):
        kwargs = {"delivery": value}
    elif isinstance(value, SchedulePlan):
        kwargs = {"plan": value}
    elif isinstance(value, LevelSchedule):
        kwargs = {"plan": SchedulePlan("gather", (value,))}
    else:
        kwargs = {"faults": FaultPlan([value])}
    return SimJob.collective("gather", ucf_testbed(4), 1000, seed=0, **kwargs)


class TestCanonical:
    def test_kwarg_spelling_order_is_irrelevant(self):
        topology = ucf_testbed(4)
        a = SimJob.collective(
            "gather", topology, 1000, root=RootPolicy.FASTEST, seed=7
        )
        b = SimJob.collective(
            "gather", topology, 1000, seed=7, root=RootPolicy.FASTEST
        )
        assert _hash(a) == _hash(b)

    def test_equal_topologies_hash_equally(self):
        a = SimJob.collective("gather", ucf_testbed(4), 1000, seed=0)
        b = SimJob.collective("gather", ucf_testbed(4), 1000, seed=0)
        assert a.topology is not b.topology
        assert _hash(a) == _hash(b)

    def test_dict_kwarg_insertion_order_is_irrelevant(self):
        out_ab: list[bytes] = []
        out_ba: list[bytes] = []
        content_tokens({"a": 1, "b": 2}, out_ab)
        content_tokens({"b": 2, "a": 1}, out_ba)
        assert b"".join(out_ab) == b"".join(out_ba)

    def test_hash_is_pythonhashseed_independent(self):
        script = (
            "from repro.cluster.presets import ucf_testbed\n"
            "from repro.perf import SimJob\n"
            "from repro.collectives import RootPolicy\n"
            "job = SimJob.collective('gather', ucf_testbed(4), 1000,\n"
            "                        root=RootPolicy.FASTEST, seed=3)\n"
            "print(job.content_hash)\n"
        )
        digests = set()
        for hashseed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env.setdefault("PYTHONPATH", "src")
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1


class TestDiscriminating:
    def test_every_field_feeds_the_hash(self):
        topology = ucf_testbed(4)
        base = SimJob.collective("gather", topology, 1000, seed=0)
        variants = [
            SimJob.collective("scatter", topology, 1000, seed=0),
            SimJob.collective("gather", flat_cluster(4), 1000, seed=0),
            SimJob.collective("gather", ucf_testbed(5), 1000, seed=0),
            SimJob.collective("gather", topology, 1001, seed=0),
            SimJob.collective("gather", topology, 1000, seed=1),
            SimJob.collective("gather", topology, 1000, seed=0,
                              root=RootPolicy.SLOWEST),
        ]
        digests = {_hash(base), *(_hash(v) for v in variants)}
        assert len(digests) == len(variants) + 1

    @pytest.mark.parametrize(
        "part,field",
        [("machine", f.name) for f in dataclasses.fields(MachineSpec)]
        + [("network", f.name) for f in dataclasses.fields(NetworkSpec)]
        + [("cluster", "name")],
    )
    def test_every_topology_value_feeds_the_hash(self, part, field):
        """The topology's one content identity covers every value in
        the tree: change any single one and both keys move."""
        lan = ucf_testbed(4).root
        name, network, machines = lan.name, lan.network, list(lan.children)

        def changed(value):
            return value + "-x" if isinstance(value, str) else value * 1.5 + 1e-6

        if part == "machine":
            machines[1] = dataclasses.replace(
                machines[1], **{field: changed(getattr(machines[1], field))}
            )
        elif part == "network":
            network = dataclasses.replace(network, **{field: changed(getattr(network, field))})
        else:
            name = changed(name)
        other = ClusterTopology(Cluster(name, network, machines))
        assert topology_hash(other) != topology_hash(ucf_testbed(4))
        assert _hash(SimJob.collective("gather", other, 1000, seed=0)) != _hash(
            SimJob.collective("gather", ucf_testbed(4), 1000, seed=0)
        )

    @pytest.mark.parametrize(
        "kind,field",
        [(kind, f.name) for kind in _KWARG_VALUES for f in dataclasses.fields(kind)],
        ids=lambda v: v if isinstance(v, str) else v.__name__,
    )
    def test_every_job_kwarg_value_feeds_the_hash(self, kind, field):
        """Two gather jobs differing only in one field of a delivery
        policy, fault spec or schedule plan have different keys."""
        base, alternates = _KWARG_VALUES[kind]
        other = dataclasses.replace(base, **{field: alternates[field]})
        assert getattr(other, field) != getattr(base, field)
        assert _hash(_gather_job(other)) != _hash(_gather_job(base))

    def test_enum_members_are_distinguished(self):
        topology = ucf_testbed(4)
        a = SimJob.collective("gather", topology, 1000,
                              workload=WorkloadPolicy.EQUAL)
        b = SimJob.collective("gather", topology, 1000,
                              workload=WorkloadPolicy.BALANCED)
        assert _hash(a) != _hash(b)

    def test_int_and_float_do_not_collide(self):
        out_int: list[bytes] = []
        out_float: list[bytes] = []
        content_tokens(1, out_int)
        content_tokens(1.0, out_float)
        assert b"".join(out_int) != b"".join(out_float)

    def test_array_content_and_dtype_feed_the_hash(self):
        def digest(array):
            out: list[bytes] = []
            content_tokens(array, out)
            return b"".join(out)

        base = digest(np.array([1, 2, 3], dtype=np.int32))
        assert digest(np.array([1, 2, 4], dtype=np.int32)) != base
        assert digest(np.array([1, 2, 3], dtype=np.int64)) != base


class TestDigestPins:
    """Disk-cache keys are content hashes: a change to the encoding's
    implementation must not move a digest, or every stored entry
    silently misses."""

    def test_digests_are_stable(self):
        testbed = ucf_testbed(4)
        jobs = {
            "1317af05225db45a210778f48f32f8ef003a8328d5cca1999199636587aaf43e":
                SimJob.collective(
                    "broadcast", fat_tree(2, 2, 4, seed=0), 500, root=0, seed=0,
                    macro=True, plan=SchedulePlan("broadcast", (
                        LevelSchedule("one", segments=2),
                        LevelSchedule("binomial"),
                        LevelSchedule("two"),
                    )),
                ),
            "da672c718a44c231f2d08f169d456d356d16187dca6d5dbdcb06ed6e589247c2":
                SimJob.collective("gather", testbed, 1000, seed=0, faults=FaultPlan([
                    MachineSlowdown("sgi-octane", factor=2.0, start=0.001, duration=0.01),
                    MessageFaults("ucf-lan", drop_prob=0.1, delay_prob=0.1,
                                  delay_mean=0.001, start=0.0, duration=0.01),
                ])),
            "73e0f875c3732d524446a71eb17b8b81786f4b51093359f0ca34a56e7883bca1":
                SimJob.collective(
                    "gather", testbed, 1000, seed=3, root=RootPolicy.FASTEST,
                    workload=WorkloadPolicy.BALANCED,
                    scores={"sgi-octane": 2.5, "sun-ultra1": 1.0, "sgi-indy": 0.75,
                            "sun-classic": 1.25},
                ),
            "5b46669adfd838eaa5dd2ed5b1cf5c62cbe448cec226301f7b45e587529e0a7e":
                SimJob.collective("broadcast", testbed, 1000, seed=1, delivery=DeliveryPolicy(
                    timeout=0.01, retries=2, backoff_base=0.005, backoff_factor=2.0,
                )),
        }
        assert [job.content_hash for job in jobs.values()] == list(jobs)


class TestValidation:
    def test_unknown_ops_raise(self):
        topology = ucf_testbed(2)
        with pytest.raises(ReproError, match="unknown collective"):
            SimJob.collective("sample_sort", topology, 10)
        with pytest.raises(ReproError, match="unknown app"):
            SimJob.app("gather", topology, 10)

    def test_op_registries_are_disjoint(self):
        assert not set(COLLECTIVE_OPS) & set(APP_OPS)

    def test_unsupported_kwarg_types_raise(self):
        job = SimJob.collective(
            "gather", ucf_testbed(2), 10, callback=lambda: None
        )
        with pytest.raises(ReproError, match="cannot content-hash"):
            job.content_hash
