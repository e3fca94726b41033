"""The sweep executor: ordered merge, cache layers, parallel equivalence."""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterTopology
from repro.cluster.presets import ucf_testbed
from repro.collectives import RootPolicy
from repro.perf import SimJob, SweepExecutor, current_executor, evaluate, sweep


def _gather_job(seed: int = 0, n: int = 500, p: int = 3) -> SimJob:
    return SimJob.collective(
        "gather", ucf_testbed(p), n, root=RootPolicy.FASTEST, seed=seed
    )


class TestEvaluate:
    def test_results_come_back_in_job_order(self):
        jobs = [_gather_job(n=n) for n in (900, 300, 600)]
        results = evaluate(jobs)
        times = {job.content_hash: result.time
                 for job, result in zip(jobs, results)}
        # Re-evaluating any permutation maps the same hash to the same
        # result, and positions follow the submission order.
        shuffled = [jobs[2], jobs[0], jobs[1]]
        reshuffled = evaluate(shuffled)
        assert [r.time for r in reshuffled] == [
            times[job.content_hash] for job in shuffled
        ]

    def test_duplicates_simulate_once(self):
        executor = SweepExecutor(jobs=1)
        job = _gather_job()
        results = executor.evaluate([job, job, job])
        assert executor.cache_misses == 1
        assert executor.cache_hits == 2
        assert results[0] == results[1] == results[2]

    def test_memo_survives_across_batches(self):
        executor = SweepExecutor(jobs=1)
        first = executor.evaluate([_gather_job()])
        again = executor.evaluate([_gather_job()])
        assert executor.cache_misses == 1
        assert executor.cache_hits == 1
        assert first == again

    def test_parallel_results_equal_serial(self):
        jobs = [_gather_job(n=n, p=p) for n in (400, 800) for p in (2, 3)]
        serial = SweepExecutor(jobs=1).evaluate(jobs)
        with SweepExecutor(jobs=2) as pooled:
            parallel = pooled.evaluate(jobs)
        assert parallel == serial


class TestPairMultiplierCollision:
    """Machines differing only in a (since removed) per-pair multiplier
    once shared a key; two differing in one NIC gap must never."""

    @staticmethod
    def _jobs() -> tuple[SimJob, SimJob]:
        plain = ucf_testbed(4)
        lan = plain.root
        machines = list(lan.children)
        machines[1] = dataclasses.replace(machines[1], nic_gap=50 * machines[1].nic_gap)
        slow_link = ClusterTopology(Cluster(lan.name, lan.network, machines))
        return (
            SimJob.collective("gather", plain, 100_000),
            SimJob.collective("gather", slow_link, 100_000),
        )

    def test_sweep_memo_keeps_them_apart(self):
        plain, slow_link = self._jobs()
        expected = [plain.run().time, slow_link.run().time]
        assert expected[1] > 10 * expected[0]
        with sweep(jobs=1) as executor:
            got = [evaluate([job])[0].time for job in (plain, slow_link)]
        assert got == expected
        assert executor.cache_misses == 2 and executor.cache_hits == 0

    def test_reopened_disk_cache_keeps_them_apart(self, tmp_path):
        plain, slow_link = self._jobs()
        with sweep(jobs=1, cache_dir=tmp_path):
            expected = [evaluate([job])[0].time for job in (plain, slow_link)]
        plain, slow_link = self._jobs()  # fresh instances, as a new process has
        with sweep(jobs=1, cache_dir=tmp_path) as reopened:
            got = [evaluate([job])[0].time for job in (slow_link, plain)]
        assert got == expected[::-1]
        assert reopened.disk_hits == 2 and reopened.cache_misses == 0


class TestSweepContext:
    def test_installs_and_restores_current_executor(self):
        assert current_executor() is None
        with sweep(jobs=1) as outer:
            assert current_executor() is outer
            with sweep(jobs=1) as inner:
                assert current_executor() is inner
            assert current_executor() is outer
        assert current_executor() is None

    def test_evaluate_routes_through_active_sweep(self):
        with sweep(jobs=1) as executor:
            evaluate([_gather_job()])
            evaluate([_gather_job()])
        assert executor.cache_misses == 1
        assert executor.cache_hits == 1

    def test_evaluate_outside_sweep_keeps_no_state(self):
        job = _gather_job()
        evaluate([job])
        assert current_executor() is None


class TestSeedIsolation:
    @settings(max_examples=10, deadline=None)
    @given(st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(
        lambda pair: pair[0] != pair[1]
    ))
    def test_cache_never_serves_across_differing_seeds(self, seeds):
        """A warm cache entry for one seed must not answer another.

        Runs seed A, then B against the same executor (warm memo), then
        B against a fresh executor; the warm and cold answers for B must
        agree exactly.
        """
        seed_a, seed_b = seeds
        job_a, job_b = _gather_job(seed=seed_a), _gather_job(seed=seed_b)
        assert job_a.content_hash != job_b.content_hash
        executor = SweepExecutor(jobs=1)
        executor.evaluate([job_a])
        warm = executor.evaluate([job_b])[0]
        cold = SweepExecutor(jobs=1).evaluate([_gather_job(seed=seed_b)])[0]
        assert executor.cache_misses == 2
        assert warm == cold
