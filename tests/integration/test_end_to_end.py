"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro import (
    Cluster,
    ClusterTopology,
    HbspRuntime,
    MachineSpec,
    NetworkSpec,
    WorkloadPolicy,
    calibrate,
    run_broadcast,
    run_gather,
)
from repro.bytemark import simulate_scores
from repro.cluster.presets import ETHERNET_100


class TestCustomTopologyPipeline:
    """Build a custom machine -> calibrate -> run -> predict, end to end."""

    def make_machine(self):
        lan_a = Cluster(
            "lab-a",
            ETHERNET_100,
            [
                MachineSpec("alpha", cpu_rate=9e7, nic_gap=8e-8),
                MachineSpec("beta", cpu_rate=4e7, nic_gap=9e-8),
            ],
        )
        lan_b = Cluster(
            "lab-b",
            ETHERNET_100,
            [
                MachineSpec("gamma", cpu_rate=6e7, nic_gap=8.5e-8),
                MachineSpec("delta", cpu_rate=3e7, nic_gap=1e-7),
            ],
        )
        backbone = NetworkSpec("backbone", gap=2e-7, latency=1e-3, sync_base=5e-3)
        return ClusterTopology(Cluster("campus", backbone, [lan_a, lan_b]))

    def test_full_pipeline(self):
        topology = self.make_machine()
        params = calibrate(topology)
        assert params.k == 2
        assert params.p == 4

        outcome = run_gather(topology, 10_000)
        root = outcome.runtime.fastest_pid
        assert outcome.runtime.topology.machines[root].name == "alpha"
        assert outcome.values[root][0] == 10_000
        assert outcome.predicted_time > 0

    def test_noisy_scores_flow_through(self):
        topology = self.make_machine()
        scores = simulate_scores(topology, noise_sigma=0.2, seed=11)
        outcome = run_gather(topology, 10_000, scores=scores)
        assert sum(v[0] for v in outcome.values.values()) == 10_000


class TestUserProgram:
    """A hand-written superstep program using the full HBSPlib API."""

    def test_histogram_program(self, testbed_small):
        """Distributed histogram: scatter-less local data, local count,
        reduce at the fastest machine."""
        BINS = 8

        def histogram(ctx, n_local):
            rng = np.random.default_rng(ctx.pid)
            data = rng.integers(0, BINS, size=n_local)
            yield from ctx.compute(n_local)
            local_counts = np.bincount(data, minlength=BINS)
            root = ctx.fastest_pid
            if ctx.pid != root:
                yield from ctx.send(root, local_counts)
            yield from ctx.sync()
            if ctx.pid == root:
                total = local_counts.astype(np.int64)
                for message in ctx.messages():
                    total += message.payload
                return int(total.sum())
            return None

        runtime = HbspRuntime(testbed_small)
        result = runtime.run(histogram, 1000)
        assert result.values[runtime.fastest_pid] == 4000

    def test_multi_superstep_pipeline(self, fig1_machine):
        """Three supersteps with cluster-local then global traffic."""

        def program(ctx):
            coord = ctx.coordinator_pid(1)
            # Step 1: everyone reports to its cluster coordinator.
            if ctx.pid != coord:
                yield from ctx.send(coord, 1)
            yield from ctx.sync(level=1)
            local = 1 + sum(m.payload for m in ctx.messages())
            # Step 2: coordinators report to the global root.
            root = ctx.coordinator_pid(2)
            if ctx.pid == coord and ctx.pid != root:
                yield from ctx.send(root, local)
            yield from ctx.sync()
            total = None
            if ctx.pid == root:
                total = local + sum(m.payload for m in ctx.messages())
                # Step 3: root announces the total.
                for pid in range(ctx.nprocs):
                    if pid != ctx.pid:
                        yield from ctx.send(pid, total)
            yield from ctx.sync()
            if ctx.pid != root:
                total = ctx.messages()[0].payload
            return total

        runtime = HbspRuntime(fig1_machine)
        result = runtime.run(program)
        assert set(result.values.values()) == {9}


class TestCrossChecks:
    def test_collective_times_ranked_sanely(self, testbed_small):
        """broadcast moves ~p*n bytes, gather ~n: broadcast slower."""
        n = 50_000
        gather = run_gather(testbed_small, n)
        broadcast = run_broadcast(testbed_small, n, phases="one")
        assert broadcast.time > gather.time

    def test_homogeneous_cluster_no_root_effect(self, homogeneous):
        """On a homogeneous (pure BSP) machine, root choice is a wash."""
        n = 25_600
        t_a = run_gather(homogeneous, n, root=0, workload=WorkloadPolicy.EQUAL)
        t_b = run_gather(
            homogeneous, n, root=homogeneous.num_machines - 1,
            workload=WorkloadPolicy.EQUAL,
        )
        assert t_a.time == pytest.approx(t_b.time, rel=0.02)

    def test_equal_and_balanced_agree_on_homogeneous(self, homogeneous):
        runtime = HbspRuntime(homogeneous)
        assert runtime.partition(1000, balanced=True) == runtime.partition(
            1000, balanced=False
        )

    def test_more_machines_slower_broadcast(self):
        from repro.cluster import ucf_testbed

        n = 25_600
        small = run_broadcast(ucf_testbed(3), n, phases="one")
        large = run_broadcast(ucf_testbed(9), n, phases="one")
        assert large.time > small.time
