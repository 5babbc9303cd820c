"""Dyadic ladder mechanics: alignment, coarsening, the O(log W) bound."""

import math

import pytest

from repro.core.reports import SimplexReport
from repro.errors import ConfigurationError
from repro.temporal.ladder import DyadicLadder
from repro.temporal.node import LadderNode, make_freq_sketch, merge_nodes, snapshot_freq
from repro.temporal.policy import TemporalPolicy


def make_policy(**overrides):
    overrides.setdefault("freq_memory_kb", 1.0)
    return TemporalPolicy(**overrides)


def make_report(item, window, slope=1.0):
    return SimplexReport(
        item=item,
        start_window=max(0, window - 2),
        report_window=window,
        lasting_time=2,
        coefficients=(0.0, slope),
        mse=0.1,
    )


def window_node(policy, window, items=(), reports=()):
    freq = make_freq_sketch(policy, seed=0)
    for item in items:
        freq.insert(item)
    return LadderNode(0, window, items=len(items), freq=freq, reports=tuple(reports))


class TestNode:
    def test_span_and_alignment(self):
        assert LadderNode(0, 0).span == 1
        assert LadderNode(3, 8).span == 8
        assert LadderNode(0, 4).aligned
        assert not LadderNode(0, 5).aligned
        assert LadderNode(1, 4).aligned
        assert not LadderNode(1, 2).aligned  # 2 % 4 != 0
        assert LadderNode(2, 8).aligned

    def test_overlaps_inclusive_range(self):
        node = LadderNode(2, 4)  # covers windows 4..7
        assert node.overlaps(7, 9)
        assert node.overlaps(0, 4)
        assert node.overlaps(5, 6)
        assert not node.overlaps(0, 3)
        assert not node.overlaps(8, 10)

    def test_merge_requires_adjacent_aligned_siblings(self):
        policy = make_policy()
        a, b = window_node(policy, 0), window_node(policy, 1)
        parent = merge_nodes(a, b)
        assert (parent.level, parent.start, parent.end) == (1, 0, 2)
        with pytest.raises(ConfigurationError):
            merge_nodes(window_node(policy, 0), window_node(policy, 2))
        with pytest.raises(ConfigurationError):
            # window 1 is not aligned to the level-1 grid
            merge_nodes(window_node(policy, 1), window_node(policy, 2))

    def test_merge_is_exact_and_does_not_mutate_children(self):
        policy = make_policy()
        a = window_node(policy, 0, items=["x", "x", "y"])
        b = window_node(policy, 1, items=["x", "z"])
        before = snapshot_freq(a.freq)
        parent = merge_nodes(a, b)
        assert parent.freq.query("x") == 3
        assert parent.freq.query("y") == 1
        assert parent.items == 5
        # published snapshots may still hold the children: untouched
        assert snapshot_freq(a.freq) == before
        assert parent.freq.counters is not a.freq.counters
        assert a.freq.query("x") == 2

    def test_merge_concatenates_reports_in_canonical_order(self):
        policy = make_policy()
        a = window_node(policy, 0, reports=[make_report("b", 0)])
        b = window_node(policy, 1, reports=[make_report("a", 1), make_report("a", 0)])
        parent = merge_nodes(a, b)
        stamps = [(r.report_window, str(r.item)) for r in parent.reports]
        assert stamps == sorted(stamps)
        assert parent.report_count == 3

    def test_merge_drops_asof_payload(self):
        policy = make_policy()
        a = window_node(policy, 0)
        a.asof = {"window": 1}
        parent = merge_nodes(a, window_node(policy, 1))
        assert parent.asof is None


class TestLadder:
    def fill(self, ladder, policy, n, start=0):
        for window in range(start, start + n):
            ladder.append(window_node(policy, window))

    def test_append_requires_contiguity(self):
        policy = make_policy()
        ladder = DyadicLadder(policy)
        self.fill(ladder, policy, 3)
        with pytest.raises(ConfigurationError):
            ladder.append(window_node(policy, 5))

    def test_nodes_partition_covered_range(self):
        policy = make_policy(level_capacity=2)
        ladder = DyadicLadder(policy)
        self.fill(ladder, policy, 137)
        assert ladder.base == 0 and ladder.tip == 137
        edge = 0
        for node in ladder.nodes:
            assert node.start == edge
            edge = node.end
        assert edge == 137

    @pytest.mark.parametrize("windows", [64, 300, 1024])
    @pytest.mark.parametrize("capacity", [1, 2, 3])
    def test_logarithmic_node_bound(self, windows, capacity):
        policy = make_policy(level_capacity=capacity)
        ladder = DyadicLadder(policy)
        self.fill(ladder, policy, windows)
        levels = math.floor(math.log2(windows)) + 1
        assert ladder.depth <= levels
        # capacity finished nodes per level, plus the one in-progress
        # overflow slot the coarsening loop is allowed to leave.
        assert len(ladder) <= (capacity + 1) * (levels + 1)
        for level, count in ladder.level_counts().items():
            assert count <= capacity + 1, f"level {level} holds {count}"

    def test_item_totals_survive_coarsening(self):
        policy = make_policy(level_capacity=2)
        ladder = DyadicLadder(policy)
        for window in range(50):
            ladder.append(window_node(policy, window, items=["a"] * 3))
        assert sum(node.items for node in ladder.nodes) == 150

    def test_off_grid_base_tolerated(self):
        # A store attached mid-stream starts at a non-dyadic window; the
        # leading off-grid nodes never merge but stay bounded per level.
        policy = make_policy(level_capacity=2)
        ladder = DyadicLadder(policy)
        self.fill(ladder, policy, 100, start=37)
        assert ladder.base == 37 and ladder.tip == 137
        edge = 37
        for node in ladder.nodes:
            assert node.start == edge
            edge = node.end
        levels = math.floor(math.log2(100)) + 1
        for count in ladder.level_counts().values():
            assert count <= policy.level_capacity + 1

    def test_covering_is_minimal(self):
        policy = make_policy(level_capacity=2)
        ladder = DyadicLadder(policy)
        self.fill(ladder, policy, 40)
        for a, b in [(0, 39), (5, 5), (10, 30), (38, 39)]:
            cover = ladder.covering(a, b)
            assert all(node.overlaps(a, b) for node in cover)
            covered = set()
            for node in cover:
                covered.update(range(node.start, node.end))
            assert covered.issuperset(range(a, b + 1))

    def test_node_of(self):
        policy = make_policy()
        ladder = DyadicLadder(policy)
        self.fill(ladder, policy, 20)
        for window in range(20):
            node = ladder.node_of(window)
            assert node is not None and node.start <= window < node.end
        assert ladder.node_of(20) is None


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TemporalPolicy(freq_memory_kb=0)
        with pytest.raises(ConfigurationError):
            TemporalPolicy(level_capacity=0)
        with pytest.raises(ConfigurationError):
            TemporalPolicy(fidelity_windows=-1)
        with pytest.raises(ConfigurationError):
            TemporalPolicy(hot_payloads=0)

    def test_spec_round_trip(self):
        policy = TemporalPolicy(freq_memory_kb=2.0, level_capacity=3,
                                fidelity_windows=1, hot_payloads=5)
        restored = TemporalPolicy.from_spec(policy.spec(), spill_dir="/tmp/x")
        assert restored.level_capacity == 3
        assert restored.fidelity_windows == 1
        assert restored.spill_dir == "/tmp/x"
        assert "spill_dir" not in policy.spec()
