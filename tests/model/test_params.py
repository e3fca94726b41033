"""Unit tests for repro.model.params."""

import math

import pytest

from repro.bytemark import simulate_scores
from repro.errors import CalibrationError, ValidationError
from repro.model import HBSPParams, HBSPTree, calibrate


class TestCalibrateTestbed:
    def test_g_is_fastest_nic(self, testbed, testbed_params):
        assert testbed_params.g == testbed.min_nic_gap()

    def test_r_normalised(self, testbed_params):
        values = [testbed_params.r_of(0, j) for j in range(testbed_params.p)]
        assert min(values) == pytest.approx(1.0)
        assert all(v >= 1.0 for v in values)

    def test_c_sums_to_one(self, testbed_params):
        total = math.fsum(testbed_params.c_of(0, j) for j in range(testbed_params.p))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_faster_machine_larger_c(self, testbed, testbed_params):
        rates = [m.cpu_rate for m in testbed.machines]
        cs = [testbed_params.c_of(0, j) for j in range(testbed_params.p)]
        order_by_rate = sorted(range(len(rates)), key=lambda j: -rates[j])
        order_by_c = sorted(range(len(cs)), key=lambda j: -cs[j])
        assert order_by_rate == order_by_c

    def test_L_positive_for_real_clusters(self, testbed_params):
        assert testbed_params.L_of(1, 0) > 0

    def test_m_vector(self, testbed_params):
        assert testbed_params.m == (10, 1)
        assert testbed_params.p == 10

    def test_fan_out(self, testbed_params):
        assert testbed_params.m_of(1, 0) == 10


class TestCalibrateHierarchical:
    def test_cluster_r_is_coordinator_r(self, fig1_machine, fig1_params):
        tree = HBSPTree(fig1_machine)
        for node in tree.level_nodes(1):
            coord_gap = tree.topology.machines[node.coordinator].nic_gap
            assert fig1_params.r_of(1, node.index) == pytest.approx(
                coord_gap / fig1_params.g
            )

    def test_cluster_c_is_member_sum(self, fig1_params):
        for level in range(1, fig1_params.k + 1):
            for j in range(fig1_params.m[level]):
                leaf_sum = math.fsum(
                    fig1_params.c_of(0, leaf)
                    for leaf in fig1_params.leaf_indices(level, j)
                )
                assert fig1_params.c_of(level, j) == pytest.approx(leaf_sum)

    def test_self_wrapper_has_zero_L(self, fig1_params):
        """The wrapped SGI's singleton cluster synchronises for free."""
        # Find the level-1 node with fan-out 1 (the wrapper).
        wrapper_j = next(
            j for j in range(fig1_params.m[1]) if fig1_params.m_of(1, j) == 1
        )
        assert fig1_params.L_of(1, wrapper_j) == 0.0

    def test_root_r_is_one(self, fig1_params):
        """The root coordinator is the fastest machine, so r_{k,0} = 1."""
        assert fig1_params.r_of(2, 0) == pytest.approx(1.0)

    def test_calibrate_with_noisy_scores_changes_c(self, testbed):
        noisy = calibrate(testbed, scores=simulate_scores(testbed, noise_sigma=0.4))
        clean = calibrate(testbed)
        assert any(
            noisy.c_of(0, j) != pytest.approx(clean.c_of(0, j))
            for j in range(noisy.p)
        )

    def test_missing_scores_raise(self, testbed):
        with pytest.raises(CalibrationError, match="missing"):
            calibrate(testbed, scores={"sgi-octane": 1.0})


class TestStructureNavigation:
    def test_children_contiguous(self, fig1_params):
        seen: list[tuple[int, int]] = []
        for j in range(fig1_params.m[2]):
            seen.extend(fig1_params.children_of(2, j))
        assert seen == [(1, j) for j in range(fig1_params.m[1])]

    def test_parent_of_inverse_of_children(self, fig1_params):
        for level in range(1, fig1_params.k + 1):
            for j in range(fig1_params.m[level]):
                for child in fig1_params.children_of(level, j):
                    assert fig1_params.parent_of(*child) == (level, j)

    def test_root_has_no_parent(self, fig1_params):
        assert fig1_params.parent_of(fig1_params.k, 0) is None

    def test_leaf_indices_partition(self, fig1_params):
        leaves: list[int] = []
        for j in range(fig1_params.m[1]):
            leaves.extend(fig1_params.leaf_indices(1, j))
        assert sorted(leaves) == list(range(fig1_params.p))

    def test_leaf_indices_of_leaf(self, fig1_params):
        assert fig1_params.leaf_indices(0, 3) == (3,)


def _children_by_definition(params, level, index):
    if level < 1:
        return ()
    offset = sum(params.fan_out[(level, j)] for j in range(index))
    return tuple(
        (level - 1, offset + j) for j in range(params.fan_out[(level, index)])
    )


def _parent_by_definition(params, level, index):
    if level >= params.k:
        return None
    for j in range(params.m[level + 1]):
        if (level, index) in _children_by_definition(params, level + 1, j):
            return (level + 1, j)
    return None


def _leaves_by_definition(params, level, index):
    if level == 0:
        return (index,)
    return tuple(
        leaf
        for child in _children_by_definition(params, level, index)
        for leaf in _leaves_by_definition(params, *child)
    )


def _irregular_params():
    """A hand-built HBSP^3 tree: fan-outs 2 | 1, 3 | 2, 1, 3, 1."""
    m = (7, 4, 2, 1)
    fan_out = {
        (3, 0): 2,
        (2, 0): 1, (2, 1): 3,
        (1, 0): 2, (1, 1): 1, (1, 2): 3, (1, 3): 1,
    }
    nodes = [(level, j) for level, count in enumerate(m) for j in range(count)]
    return HBSPParams(
        k=3, g=1e-7, m=m, fan_out=fan_out,
        r={key: 1.0 for key in nodes},
        L={key: 0.0 for key in nodes if key[0] >= 1},
        c={key: 1 / 7 for key in nodes if key[0] == 0},
    )


class TestNavigationTables:
    """The precomputed child offsets answer exactly what the summing /
    scanning / recursive definitions (kept above as the reference) do."""

    @pytest.fixture(params=["irregular", "fig1"])
    def params(self, request, fig1_params):
        return _irregular_params() if request.param == "irregular" else fig1_params

    def test_every_node_matches_the_definitions(self, params):
        for level in range(params.k + 1):
            # One index past the level too: no parent there, by either route.
            assert params.parent_of(level, params.m[level]) is None
            for j in range(params.m[level]):
                key = (level, j)
                assert params.children_of(*key) == _children_by_definition(params, *key)
                assert params.parent_of(*key) == _parent_by_definition(params, *key)
                assert params.leaf_indices(*key) == _leaves_by_definition(params, *key)

    def test_unknown_node_has_no_children(self):
        with pytest.raises(KeyError):
            _irregular_params().children_of(1, 4)

    def test_copies_navigate_like_the_original(self):
        params = _irregular_params()
        copy = params.with_equal_fractions()
        assert copy.leaf_indices(2, 1) == params.leaf_indices(2, 1) == (2, 3, 4, 5, 6)


class TestAccessorsAndCopies:
    def test_slowest_r(self, testbed_params):
        assert testbed_params.slowest_r(0) == pytest.approx(1.25, rel=0.01)

    def test_fastest_slowest_index(self, testbed_params):
        assert testbed_params.r_of(0, testbed_params.fastest_index(0)) == 1.0
        assert (
            testbed_params.r_of(0, testbed_params.slowest_index(0))
            == testbed_params.slowest_r(0)
        )

    def test_with_equal_fractions(self, testbed_params):
        equal = testbed_params.with_equal_fractions()
        for j in range(equal.p):
            assert equal.c_of(0, j) == pytest.approx(1 / equal.p)
        # Original untouched (frozen dataclass copy semantics).
        assert testbed_params.c_of(0, 0) != pytest.approx(1 / testbed_params.p)

    def test_with_fractions(self, testbed_params):
        fractions = [0.0] * testbed_params.p
        fractions[0] = 1.0
        custom = testbed_params.with_fractions(fractions)
        assert custom.c_of(0, 0) == 1.0

    def test_with_fractions_wrong_length(self, testbed_params):
        with pytest.raises(ValidationError):
            testbed_params.with_fractions([1.0])

    def test_describe_contains_all_nodes(self, fig1_params):
        text = fig1_params.describe()
        for level in range(fig1_params.k + 1):
            for j in range(fig1_params.m[level]):
                assert f"M_{{{level},{j}}}" in text


class TestValidation:
    def _base_kwargs(self):
        return dict(
            k=1,
            g=1e-7,
            m=(2, 1),
            r={(0, 0): 1.0, (0, 1): 2.0, (1, 0): 1.0},
            L={(1, 0): 0.001},
            c={(0, 0): 0.6, (0, 1): 0.4, (1, 0): 1.0},
            fan_out={(0, 0): 0, (0, 1): 0, (1, 0): 2},
        )

    def test_valid_construction(self):
        HBSPParams(**self._base_kwargs())

    def test_r_below_one_rejected(self):
        kwargs = self._base_kwargs()
        kwargs["r"] = {(0, 0): 0.5, (0, 1): 2.0, (1, 0): 1.0}
        with pytest.raises(ValidationError, match="relative to the fastest"):
            HBSPParams(**kwargs)

    def test_no_fastest_processor_rejected(self):
        kwargs = self._base_kwargs()
        kwargs["r"] = {(0, 0): 1.5, (0, 1): 2.0, (1, 0): 1.5}
        with pytest.raises(ValidationError, match="fastest processor"):
            HBSPParams(**kwargs)

    def test_c_sum_enforced(self):
        kwargs = self._base_kwargs()
        kwargs["c"] = {(0, 0): 0.6, (0, 1): 0.6, (1, 0): 1.2}
        with pytest.raises(ValidationError, match="sum to 1"):
            HBSPParams(**kwargs)

    def test_missing_r_rejected(self):
        kwargs = self._base_kwargs()
        del kwargs["r"][(0, 1)]
        with pytest.raises(ValidationError, match="missing r"):
            HBSPParams(**kwargs)

    def test_negative_L_rejected(self):
        kwargs = self._base_kwargs()
        kwargs["L"] = {(1, 0): -0.1}
        with pytest.raises(ValidationError):
            HBSPParams(**kwargs)

    def test_m_length_mismatch_rejected(self):
        kwargs = self._base_kwargs()
        kwargs["m"] = (2,)
        with pytest.raises(ValidationError):
            HBSPParams(**kwargs)
