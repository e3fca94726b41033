"""The metrics registry and its determinism contract.

Metrics are fed from RunObs snapshots merged in submission order, so a
sweep's exported text must be byte-identical whatever the worker count
— the same promise the report renderer makes for ``--jobs``.
"""

from __future__ import annotations

import pytest

from repro.cluster.presets import ucf_testbed
from repro.collectives import RootPolicy, run_gather
from repro.faults import DeliveryPolicy, FaultPlan, MessageFaults
from repro.obs import MetricsRegistry, collect_run_obs, observe, prometheus_text
from repro.obs.metrics import BUCKET_BOUNDS, METRIC_HELP, HistogramState
from repro.perf import SimJob, sweep


class TestRegistryUnit:
    def test_counters_inc_and_read(self):
        registry = MetricsRegistry()
        registry.inc("repro_runs_total")
        registry.inc("repro_bytes_sent_total", 100.0, (("network", "lan"),))
        registry.inc("repro_bytes_sent_total", 50.0, (("network", "wan"),))
        assert registry.value("repro_runs_total") == 1.0
        assert registry.value("repro_bytes_sent_total", (("network", "lan"),)) == 100.0
        assert registry.counter_sum("repro_bytes_sent_total") == 150.0

    def test_snapshot_is_sorted_and_merges_back(self):
        a = MetricsRegistry()
        a.inc("z_total", 2.0)
        a.inc("a_total", 1.0)
        snapshot = a.counters_snapshot()
        assert [name for name, _, _ in snapshot] == ["a_total", "z_total"]
        b = MetricsRegistry()
        b.inc("a_total", 10.0)
        b.merge_counters(snapshot)
        assert b.value("a_total") == 11.0
        assert b.value("z_total") == 2.0

    def test_histogram_buckets_are_cumulative_with_inf(self):
        hist = HistogramState((1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 100.0):
            hist.observe(value)
        assert hist.cumulative() == [(1.0, 2), (10.0, 3), (float("inf"), 4)]
        assert hist.total == pytest.approx(106.2)

    def test_histogram_merge(self):
        a, b = HistogramState((1.0,)), HistogramState((1.0,))
        a.observe(0.5)
        b.observe(2.0)
        a.merge(b)
        assert a.cumulative() == [(1.0, 1), (float("inf"), 2)]

    def test_registry_merge_folds_all_kinds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.inc("repro_runs_total", 3.0)
        b.set_gauge("depth", 2.0)
        b.observe("repro_superstep_seconds", 0.5)
        a.merge(b)
        assert a.value("repro_runs_total") == 3.0
        assert a.gauges[("depth", ())] == 2.0
        assert a.histograms[("repro_superstep_seconds", ())].count == 1

    def test_every_declared_histogram_has_fixed_bounds(self):
        for name, (mtype, _help) in METRIC_HELP.items():
            if mtype == "histogram":
                assert name in BUCKET_BOUNDS


class TestRunMetrics:
    def test_gather_populates_traffic_and_run_counters(self):
        with observe() as observation:
            outcome = run_gather(ucf_testbed(4), 1024)
            observation.record_run(collect_run_obs(outcome))
        metrics = observation.metrics
        assert metrics.value("repro_runs_total") == 1.0
        assert metrics.value("repro_supersteps_total") == float(outcome.supersteps)
        assert metrics.counter_sum("repro_messages_sent_total") == 3.0
        assert metrics.counter_sum("repro_bytes_sent_total") > 0.0

    def test_fault_drops_flow_through_vm_metrics(self):
        plan = FaultPlan(MessageFaults(drop_prob=0.3))
        with observe() as observation:
            outcome = run_gather(
                ucf_testbed(3), 512, root=RootPolicy.FASTEST,
                faults=plan, seed=3,
                delivery=DeliveryPolicy.retry(3, timeout=0.25),
            )
            observation.record_run(collect_run_obs(outcome))
        injector = outcome.runtime.vm.injector
        dropped = observation.metrics.counter_sum("repro_messages_dropped_total")
        assert dropped > 0
        # No double bookkeeping: the injector property *is* the metric.
        assert injector.dropped_messages == int(
            outcome.runtime.vm.metrics.value("repro_messages_dropped_total")
        )
        assert injector.dropped_messages == int(dropped)


class TestSweepDeterminism:
    def _jobs_batch(self):
        return [
            SimJob.collective(
                "gather", ucf_testbed(p), n, root=RootPolicy.FASTEST, seed=0
            )
            for p in (2, 3)
            for n in (500, 1000)
        ]

    def _export(self, workers: int) -> str:
        from repro.perf import evaluate

        with observe() as observation:
            with sweep(jobs=workers):
                evaluate(self._jobs_batch())
        return prometheus_text(observation.metrics)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_metrics_identical_serial_vs_parallel(self, workers):
        assert self._export(1) == self._export(workers)

    def test_duplicate_jobs_count_once_per_occurrence(self):
        from repro.perf import evaluate

        job = SimJob.collective("gather", ucf_testbed(2), 500, seed=0)
        with observe() as observation:
            with sweep(jobs=1):
                evaluate([job, job, job])
        # Cache-deduped simulation, but three observed occurrences.
        assert observation.metrics.value("repro_runs_total") == 3.0
        assert len(observation.ledgers) == 3
