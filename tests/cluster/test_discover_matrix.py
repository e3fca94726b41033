"""Tests for the probe-matrix representation and analytic synthesis."""

import numpy as np
import pytest

from repro.cluster import ucf_testbed
from repro.cluster.discover import ProbeMatrix, synthesize
from repro.cluster.discover.generators import multi_rack
from repro.errors import DiscoveryError


def _tiny() -> ProbeMatrix:
    lat = np.array([[0.0, 1e-4, 2e-3], [1e-4, 0.0, 2e-3], [2e-3, 2e-3, 0.0]])
    gap = np.full((3, 3), 1e-7)
    np.fill_diagonal(gap, 0.0)
    return ProbeMatrix(names=("a", "b", "c"), latency=lat, gap=gap,
                       speeds=(1e8, 5e7, 2.5e7))


class TestValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(DiscoveryError, match="latency must be"):
            ProbeMatrix(names=("a", "b"), latency=np.zeros((3, 3)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(DiscoveryError, match="unique"):
            ProbeMatrix(names=("a", "a"), latency=np.zeros((2, 2)))

    def test_negative_latency_rejected(self):
        lat = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(DiscoveryError, match="non-negative"):
            ProbeMatrix(names=("a", "b"), latency=lat)

    def test_empty_rejected(self):
        with pytest.raises(DiscoveryError, match="at least one"):
            ProbeMatrix(names=(), latency=np.zeros((0, 0)))

    def test_speeds_length_checked(self):
        with pytest.raises(DiscoveryError, match="speeds"):
            ProbeMatrix(names=("a", "b"), latency=np.zeros((2, 2)),
                        speeds=(1.0,))

    def test_gap_shape_checked(self):
        with pytest.raises(DiscoveryError, match="gap must be"):
            ProbeMatrix(names=("a", "b"), latency=np.zeros((2, 2)),
                        gap=np.zeros((3, 3)))


class TestDissimilarity:
    def test_symmetric_zero_diagonal(self):
        lat = np.array([[0.0, 1.0, 4.0], [3.0, 0.0, 6.0], [4.0, 6.0, 5.0]])
        d = ProbeMatrix(names=("a", "b", "c"), latency=lat).dissimilarity()
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert d[0, 1] == pytest.approx(2.0)  # mean of both directions



class TestNoise:
    def test_zero_sigma_is_identity(self):
        m = _tiny()
        assert m.with_noise(0.0) is m

    def test_negative_sigma_rejected(self):
        with pytest.raises(DiscoveryError, match="sigma"):
            _tiny().with_noise(-0.1)

    def test_noise_is_symmetric_and_deterministic(self):
        m = _tiny()
        n1 = m.with_noise(0.2, seed=7)
        n2 = m.with_noise(0.2, seed=7)
        n3 = m.with_noise(0.2, seed=8)
        assert np.array_equal(n1.latency, n2.latency)
        assert not np.array_equal(n1.latency, n3.latency)
        # The (i, j) factor equals the (j, i) factor on symmetric input.
        assert np.allclose(n1.latency, n1.latency.T)
        assert np.all(np.diag(n1.latency) == 0.0)

    def test_noise_preserves_speeds(self):
        assert _tiny().with_noise(0.3).speeds == _tiny().speeds


class TestPersistence:
    @pytest.mark.parametrize("suffix", [".json", ".npz"])
    def test_save_load_roundtrip(self, tmp_path, suffix):
        m = _tiny()
        path = tmp_path / f"probe{suffix}"
        m.save(path)
        restored = ProbeMatrix.load(path)
        assert restored.names == m.names
        assert np.allclose(restored.latency, m.latency)
        assert np.allclose(restored.gap, m.gap)
        assert restored.speeds == m.speeds

    def test_latency_only_roundtrip(self, tmp_path):
        m = ProbeMatrix(names=("a", "b"), latency=np.ones((2, 2)) * 1e-4)
        path = tmp_path / "probe.json"
        m.save(path)
        restored = ProbeMatrix.load(path)
        assert restored.gap is None
        assert restored.speeds is None

    def test_unknown_schema_rejected(self):
        with pytest.raises(DiscoveryError, match="schema"):
            ProbeMatrix.from_dict({"schema": "nope/9", "names": ["a"]})


class TestSynthesize:
    def test_block_structure_matches_routes(self):
        topology = ucf_testbed(6)
        m = synthesize(topology)
        assert m.p == 6
        for a in range(6):
            for b in range(6):
                if a == b:
                    assert m.latency[a, b] == 0.0
                else:
                    net, _level = topology.route(a, b)
                    assert m.latency[a, b] == net.latency

    def test_gap_is_inject_plus_drain(self):
        topology = ucf_testbed(4)
        m = synthesize(topology)
        machines = topology.machines
        for a in range(4):
            for b in range(4):
                if a == b:
                    continue
                net, _ = topology.route(a, b)
                expected = (
                    max(net.gap, machines[a].nic_gap)
                    + max(net.gap, machines[b].nic_gap)
                )
                assert m.gap[a, b] == pytest.approx(expected)
                assert m.latency[a, b] == net.latency

    def test_speeds_are_true_cpu_rates(self):
        topology = multi_rack(racks=2, hosts_per_rack=3, seed=5)
        m = synthesize(topology)
        assert m.speeds == tuple(x.cpu_rate for x in topology.machines)

    def test_dtype_and_gap_options(self):
        topology = multi_rack(racks=2, hosts_per_rack=2)
        m = synthesize(topology, dtype=np.float32, include_gap=False)
        assert m.latency.dtype == np.float32
        assert m.gap is None

    def test_noise_applied_when_requested(self):
        topology = multi_rack(racks=2, hosts_per_rack=2)
        clean = synthesize(topology)
        noisy = synthesize(topology, noise=0.2, seed=3)
        assert not np.array_equal(clean.latency, noisy.latency)
