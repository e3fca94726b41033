"""Tests for the tuning pipeline: enumerate, price, validate, memoize."""

import dataclasses
import inspect

import pytest

from repro.cluster import Cluster, ClusterTopology, topology_hash
from repro.cluster.discover.generators import GENERATORS, multi_rack
from repro.cluster.presets import PRESETS, build_preset, deep_hierarchy, two_lans
from repro.collectives import RootPolicy, run_broadcast, run_gather
from repro.errors import CollectiveError
from repro.hbsplib.runtime import HbspRuntime
from repro.perf import sweep
from repro.tuning.cache import DecisionCache, decision_key
from repro.tuning import tuner as tuner_module
from repro.tuning.tuner import _resolve_root_fast, tune, tuned_plan


@pytest.fixture
def cache(tmp_path):
    return DecisionCache(tmp_path)


@pytest.fixture
def topology():
    return deep_hierarchy(2, 4)


@pytest.fixture
def runtime_runs(monkeypatch):
    """One entry per ``HbspRuntime.run`` call: one per simulated program."""
    calls: list[None] = []
    original = HbspRuntime.run

    def counting(self, *args, **kwargs):
        calls.append(None)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(HbspRuntime, "run", counting)
    return calls


@pytest.fixture
def pricing_calls(monkeypatch):
    """One entry per ``calibrate``/``rank_plans`` call the tuner makes."""
    calls: list[str] = []
    for name in ("calibrate", "rank_plans"):

        def counting(*args, _name=name, _original=getattr(tuner_module, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(tuner_module, name, counting)
    return calls


class TestTune:
    def test_cold_tune_returns_a_validated_decision(self, topology, cache):
        decision = tune(topology, "broadcast", 4000, cache=cache)
        assert decision.op == "broadcast"
        assert decision.topology_hash == topology_hash(topology)
        assert decision.plan.k == 2
        assert decision.candidates == 25  # 5^2 broadcast space
        assert decision.validated >= 1
        assert decision.simulated_time > 0

    def test_tuned_never_slower_than_default(self, cache):
        """The default plan is always in the validated shortlist and
        the winner is picked on simulated time."""
        for op in ("gather", "broadcast"):
            for n in (64, 4000):
                decision = tune(
                    deep_hierarchy(2, 3), op, n, cache=cache, force=True
                )
                assert decision.simulated_time <= decision.default_time

    def test_latency_bound_broadcast_beats_the_default(self, cache):
        """A 500-item broadcast over 4 racks x 8 hosts is all latency:
        the expanded space's one-phase plan must save >= 10 % of the
        paper's two-phase makespan (29 % today)."""
        topology = multi_rack(racks=4, hosts_per_rack=8, seed=0)
        decision = tune(topology, "broadcast", 500, cache=cache, force=True)
        assert decision.improvement >= 0.10

    def test_decision_replays_exactly_in_the_simulator(self, topology, cache):
        decision = tune(topology, "gather", 4000, cache=cache)
        outcome = run_gather(
            topology, 4000, root=decision.root, plan=decision.plan
        )
        assert outcome.time == decision.simulated_time
        decision = tune(topology, "broadcast", 4000, cache=cache)
        outcome = run_broadcast(
            topology, 4000, root=decision.root, plan=decision.plan
        )
        assert outcome.time == decision.simulated_time

    def test_warm_hit_skips_the_pipeline(self, topology, cache, monkeypatch):
        decision = tune(topology, "broadcast", 4000, cache=cache)

        def boom(*args, **kwargs):  # pragma: no cover
            raise AssertionError("warm path must not simulate")

        monkeypatch.setattr("repro.tuning.tuner._simulate", boom)
        assert tune(topology, "broadcast", 4000, cache=cache) == decision

    def test_cold_and_warm_decisions_byte_identical(self, topology, tmp_path):
        """Satellite invariant: a fresh process resolving from disk gets
        the exact decision the cold run stored."""
        cold = tune(topology, "gather", 4000, cache=DecisionCache(tmp_path))
        warm = tune(topology, "gather", 4000, cache=DecisionCache(tmp_path))
        assert warm == cold
        assert warm.to_dict() == cold.to_dict()

    def test_force_retunes_on_a_hit(self, topology, cache, monkeypatch):
        tune(topology, "broadcast", 4000, cache=cache)
        calls = []
        import repro.tuning.tuner as tuner_module

        original = tuner_module._simulate

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(tuner_module, "_simulate", counting)
        tune(topology, "broadcast", 4000, cache=cache, force=True)
        assert calls

    def test_default_outside_the_shortlist_is_not_priced_again(
        self, topology, cache, monkeypatch
    ):
        import repro.tuning.tuner as tuner_module

        calls = []
        original = tuner_module.rank_plans

        def counting(params, n, plans, **kwargs):
            calls.append(len(plans))
            return original(params, n, plans, **kwargs)

        monkeypatch.setattr(tuner_module, "rank_plans", counting)
        monkeypatch.setattr(tuner_module, "DEFAULT_SHORTLIST", 1)
        decision = tune(topology, "broadcast", 4000, cache=cache)
        assert calls == [decision.candidates]
        # The appended default carries its total from that one pricing.
        assert decision.validated == 2
        assert decision.default_time >= decision.simulated_time

    def test_topology_mutation_changes_the_key(self, cache):
        """Satellite invariant: a mutated machine never reuses the old
        machine's decision."""
        a = tune(two_lans(3), "broadcast", 4000, cache=cache)
        mutated = two_lans(3, nic_slowdown=1.5)
        b = tune(mutated, "broadcast", 4000, cache=cache)
        assert a.topology_hash != b.topology_hash
        assert len(cache.disk) == 2

    def test_root_policy_and_pid_share_one_entry(self, topology, cache):
        by_policy = tune(
            topology, "gather", 2000, root=RootPolicy.FASTEST, cache=cache
        )
        by_pid = tune(
            topology, "gather", 2000, root=by_policy.root, cache=cache
        )
        assert by_pid == by_policy
        assert len(cache.disk) == 1

    def test_input_validation(self, topology, cache):
        with pytest.raises(CollectiveError, match="op must be"):
            tune(topology, "scatter", 100, cache=cache)
        with pytest.raises(CollectiveError, match="n must be"):
            tune(topology, "gather", -1, cache=cache)

    def test_tuned_plan_returns_the_winning_plan(self, topology, cache):
        decision = tune(topology, "broadcast", 4000, cache=cache)
        assert tuned_plan(
            topology, "broadcast", 4000, cache=cache
        ) == decision.plan


#: What each keyed ``tune()`` parameter is at the base call and mutated.
_KEYED = {
    "topology": (two_lans(3), two_lans(3, nic_slowdown=1.5)),
    "op": ("gather", "broadcast"),
    "n": (4000, 4001),
    "root": (0, 1),
}

#: ``tune()`` parameters that may leave the decision key alone.
_EXEMPT = {
    # Draws item values only; a gather's or broadcast's time depends on
    # item counts (test_the_seed_cannot_move_a_decision).
    "seed",
    # Where and whether a decision is stored or recomputed, not what it is.
    "cache",
    "force",
}


class _KeyRecorder:
    """A stand-in cache that answers every lookup and records its key."""

    def __init__(self):
        self.keys: list[str] = []

    def get(self, *key):
        self.keys.append(decision_key(*key))
        return "hit"


class TestDecisionKey:
    def test_every_tune_parameter_moves_the_key_or_is_exempt(self):
        """A new ``tune()`` parameter fails here until it is keyed or
        exempted with a reason (ROADMAP item 8(e))."""
        names = set(inspect.signature(tune).parameters)
        assert names == set(_KEYED) | _EXEMPT, names ^ (set(_KEYED) | _EXEMPT)
        cache = _KeyRecorder()
        base = {name: values[0] for name, values in _KEYED.items()}
        tune(**base, cache=cache)
        for name, (_, mutated) in _KEYED.items():
            tune(**{**base, name: mutated}, cache=cache)
        assert len(set(cache.keys)) == len(cache.keys) == 1 + len(_KEYED)

    @pytest.mark.parametrize("op", ["gather", "broadcast"])
    def test_the_seed_cannot_move_a_decision(self, op, cache):
        """Why the seed stays out of the key: it draws item values, and
        a gather's or broadcast's time depends on item counts only."""
        decisions = [
            tune(two_lans(3), op, 4000, seed=seed, cache=cache, force=True)
            for seed in (0, 7)
        ]
        assert decisions[0] == decisions[1]


class TestValidationBatch:
    """The shortlist is one executor batch: cached like any grid point."""

    def test_a_warm_sweep_replays_the_tuning_experiment(
        self, tmp_path, runtime_runs, pricing_calls
    ):
        """The decisions persist beside the validations: a warm pass
        neither simulates nor calibrates nor prices."""
        from repro.experiments import run_experiment

        with sweep(cache_dir=tmp_path):
            cold = run_experiment("tuning").render()
            assert runtime_runs and pricing_calls
            runtime_runs.clear()
            pricing_calls.clear()
            warm = run_experiment("tuning").render()
        assert runtime_runs == [] and pricing_calls == []
        assert warm == cold

    def test_force_outside_a_sweep_simulates_every_shortlisted_plan(
        self, topology, cache, runtime_runs
    ):
        for _ in range(2):
            runtime_runs.clear()
            decision = tune(topology, "broadcast", 4000, cache=cache, force=True)
            assert len(runtime_runs) == decision.validated

    def test_one_nic_gap_apart_re_simulates(self, cache, runtime_runs):
        """The job key covers every machine spec, so the sweep memo
        cannot serve one machine's validations to a machine whose last
        NIC is slower."""
        topology = two_lans(3)
        lan0, lan1 = topology.root.children
        last = dataclasses.replace(lan1.children[-1], nic_gap=4 * lan1.children[-1].nic_gap)
        slower = ClusterTopology(Cluster(topology.root.name, topology.root.network, [
            lan0, Cluster(lan1.name, lan1.network, [*lan1.children[:-1], last]),
        ]))
        with sweep():
            first = tune(topology, "broadcast", 4000, cache=cache)
            runtime_runs.clear()
            second = tune(slower, "broadcast", 4000, cache=cache)
        assert second.topology_hash != first.topology_hash
        assert len(runtime_runs) == second.validated


class TestResolveRootFast:
    """The warm path resolves roots without building a runtime; it must
    agree with the runtime's own resolution on every spelling."""

    def test_matches_runtime_resolution(self):
        """On every preset (``fig1`` has a machine above the deepest
        level) and every generator family; the parameters the cold path
        calibrates without a runtime are the runtime's own, too."""
        from repro.collectives.base import make_runtime
        from repro.collectives.schedules import resolve_root
        from repro.experiments.tuning import TUNING_SCENARIOS
        from repro.model.params import calibrate

        machines = [build_preset(name) for name in sorted(PRESETS)] + [
            GENERATORS[name](seed=0, **TUNING_SCENARIOS[name][1])
            for name in sorted(GENERATORS)
        ]
        for topology in machines:
            runtime = make_runtime(topology)
            last = topology.num_machines - 1
            for spec in (None, RootPolicy.FASTEST, RootPolicy.SLOWEST, 0, last):
                assert _resolve_root_fast(topology, spec) == resolve_root(runtime, spec)
            assert calibrate(topology) == runtime.params

    def test_rejects_bad_roots(self, topology):
        for bad in (True, -1, 10**6, "fastest"):
            with pytest.raises(CollectiveError):
                _resolve_root_fast(topology, bad)
