"""Tests for the vectorized (numpy-batched) X-Sketch engine."""

import random

import numpy as np
import pytest
from hypothesis import given, settings

from repro.config import XSketchConfig
from repro.core.oracle import SimplexOracle
from repro.core.vectorized import VectorizedXSketch
from repro.errors import ConfigurationError
from repro.fitting.simplex import SimplexTask
from repro.metrics.classification import score_reports
from repro.sketch.vectorized_tower import VectorizedTower
from repro.sketch.windowed import WindowedTower
from repro.streams.datasets import make_dataset

from tests.test_core.test_equivalence import stream_scenarios


class TestVectorizedTower:
    def test_positions_cached_and_shaped(self):
        tower = VectorizedTower(memory_bytes=20000, s=4, d=3, seed=1)
        positions = tower.positions(["a", "b", "a"])
        assert positions.shape == (3, 3)
        assert (positions[0] == positions[2]).all()

    @pytest.mark.parametrize("rule", ["cm", "cu"])
    def test_matches_scalar_tower_single_items(self, rule):
        """One item per batch: vectorized reads equal the scalar tower."""
        scalar = WindowedTower(memory_bytes=20000, s=3, d=3, update_rule=rule, seed=2)
        vector = VectorizedTower(memory_bytes=20000, s=3, d=3, update_rule=rule, seed=2)
        rng = random.Random(0)
        for _ in range(300):
            item = f"i{rng.randrange(40)}"
            slot = rng.randrange(3)
            scalar.insert(item, slot)
            vector.bulk_insert(vector.positions([item]), np.array([1]), slot)
        for item in {f"i{i}" for i in range(40)}:
            positions = vector.positions([item])
            for slot in range(3):
                assert (
                    vector.query_recent(positions, [slot])[0, 0]
                    == scalar.query_slot(item, slot)
                )

    def test_bulk_cm_equals_repeated_adds(self):
        tower = VectorizedTower(memory_bytes=20000, s=2, d=3, seed=3)
        positions = tower.positions(["x"])
        tower.bulk_insert(positions, np.array([37]), 0)
        assert tower.query_recent(positions, [0])[0, 0] == 37

    def test_saturation_and_escalation(self):
        tower = VectorizedTower(memory_bytes=20000, s=2, d=3, seed=3)
        positions = tower.positions(["hot"])
        tower.bulk_insert(positions, np.array([300]), 0)
        assert tower.query_recent(positions, [0])[0, 0] >= 300

    def test_clear_slot(self):
        tower = VectorizedTower(memory_bytes=20000, s=2, d=3, seed=3)
        positions = tower.positions(["x"])
        tower.bulk_insert(positions, np.array([5]), 0)
        tower.clear_slot(0)
        assert tower.query_recent(positions, [0])[0, 0] == 0

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            VectorizedTower(memory_bytes=2, s=4)
        with pytest.raises(ConfigurationError):
            VectorizedTower(memory_bytes=2000, s=4, update_rule="median")


class TestVectorizedXSketch:
    def test_requires_tower_structure(self):
        config = XSketchConfig(
            task=SimplexTask.paper_default(1), memory_kb=20.0, stage1_structure="cold"
        )
        with pytest.raises(ConfigurationError):
            VectorizedXSketch(config, seed=1)

    def test_linear_item_detected(self):
        sketch = VectorizedXSketch(
            XSketchConfig(task=SimplexTask.paper_default(1), memory_kb=40.0), seed=7
        )
        for window in range(12):
            sketch.run_window(["lin"] * (5 + 3 * window) + ["pad"] * 5)
        assert any(r.item == "lin" for r in sketch.reports)

    def test_accuracy_on_realistic_stream(self):
        trace = make_dataset("ip_trace", n_windows=30, window_size=1200, seed=4)
        task = SimplexTask.paper_default(1)
        oracle = SimplexOracle.from_stream(trace.windows(), task)
        sketch = VectorizedXSketch(XSketchConfig(task=task, memory_kb=20.0), seed=5)
        for window in trace.windows():
            sketch.run_window(window)
        assert score_reports(sketch.reports, oracle.instances).f1 > 0.7

    def test_stats_populate(self):
        sketch = VectorizedXSketch(
            XSketchConfig(task=SimplexTask.paper_default(1), memory_kb=40.0), seed=7
        )
        for window in range(10):
            sketch.run_window(["lin"] * (5 + 3 * window) + ["noise"] * 10)
        stats = sketch.stats
        assert stats.windows == 10
        assert stats.stage1_arrivals > 0
        assert stats.promotions >= 1

    @settings(max_examples=20, deadline=None)
    @given(stream_scenarios())
    def test_vectorized_equals_oracle_without_collisions(self, scenario):
        task, schedules, n_windows, shuffle_seed = scenario
        s = max(task.k + 1, min(4, task.p - 1))
        config = XSketchConfig(task=task, memory_kb=5000.0, G=0.0, s=s)
        sketch = VectorizedXSketch(config, seed=shuffle_seed)
        oracle = SimplexOracle(task)
        for window in range(n_windows):
            for item, counts in schedules.items():
                for _ in range(counts[window]):
                    sketch.insert(item)
                    oracle.insert(item)
            sketch.end_window()
            oracle.end_window()
        oracle.finalize()
        assert {r.instance for r in sketch.reports} == oracle.instances


class TestBatchedPositionHashing:
    """The batched hash path must be bit-identical to the scalar family."""

    ITEMS = [1, -5, 0, 2**40, "hello", "x", "longer-string-item", b"\x01\x02", b""]

    @pytest.mark.parametrize("seed", [0, 7, 123456])
    def test_crc_rows_match_scalar_hash32(self, seed):
        tower = VectorizedTower(memory_bytes=20000, s=4, d=3, seed=seed)
        rows = tower.family.hash_rows(self.ITEMS, tower.level_counters)
        for row, item in zip(rows, self.ITEMS):
            for index in range(tower.d):
                expected = tower.family.hash32(item, index) % tower.level_counters[index]
                assert int(row[index]) == expected

    @pytest.mark.parametrize("name", ["bob", "murmur"])
    def test_fallback_families_match_scalar_hash32(self, name):
        tower = VectorizedTower(memory_bytes=20000, s=4, d=3, seed=3, hash_family=name)
        rows = tower.family.hash_rows(self.ITEMS, tower.level_counters)
        for row, item in zip(rows, self.ITEMS):
            for index in range(tower.d):
                expected = tower.family.hash32(item, index) % tower.level_counters[index]
                assert int(row[index]) == expected

    def test_positions_bypass_and_cache_agree(self):
        """Cached reads return exactly what the fresh hash computed."""
        tower = VectorizedTower(memory_bytes=20000, s=4, d=3, seed=1)
        first = tower.positions(self.ITEMS)
        second = tower.positions(self.ITEMS)  # all hits now
        assert (first == second).all()
        assert tower.cache_info()["hits"] == len(self.ITEMS)


class TestPositionCache:
    def test_capacity_bound_and_eviction_count(self):
        tower = VectorizedTower(memory_bytes=20000, s=4, d=3, seed=1, pos_cache_capacity=10)
        tower.positions([f"i{j}" for j in range(25)])
        info = tower.cache_info()
        assert info["size"] == 10
        assert info["evictions"] == 15
        assert info["misses"] == 25
        assert info["capacity"] == 10

    def test_lru_refresh_keeps_hot_items(self):
        tower = VectorizedTower(memory_bytes=20000, s=4, d=3, seed=1, pos_cache_capacity=4)
        tower.positions(["a", "b", "c", "d"])
        tower.positions(["a"])  # refresh "a"; "b" is now the oldest
        tower.positions(["e"])  # evicts exactly one: "b"
        hits_before = tower.cache_info()["hits"]
        tower.positions(["a"])
        assert tower.cache_info()["hits"] == hits_before + 1
        misses_before = tower.cache_info()["misses"]
        tower.positions(["b"])
        assert tower.cache_info()["misses"] == misses_before + 1

    def test_zero_capacity_disables_caching(self):
        tower = VectorizedTower(memory_bytes=20000, s=4, d=3, seed=1, pos_cache_capacity=0)
        tower.positions(["a", "b"])
        tower.positions(["a", "b"])
        info = tower.cache_info()
        assert info["size"] == 0
        assert info["hits"] == 0
        assert info["misses"] == 4

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            VectorizedTower(memory_bytes=20000, s=4, d=3, pos_cache_capacity=-1)


class TestVectorizedTowerMerge:
    def test_split_inserts_equal_single_tower(self):
        rng = random.Random(4)
        single = VectorizedTower(memory_bytes=20000, s=3, d=3, seed=2)
        left = VectorizedTower(memory_bytes=20000, s=3, d=3, seed=2)
        right = VectorizedTower(memory_bytes=20000, s=3, d=3, seed=2)
        items = [f"i{j}" for j in range(60)]
        for item in items:
            count = rng.randrange(1, 9)
            slot = rng.randrange(3)
            positions = single.positions([item])
            single.bulk_insert(positions, np.array([count]), slot)
            side = left if sum(item.encode()) % 2 == 0 else right
            side.bulk_insert(side.positions([item]), np.array([count]), slot)
        left.merge(right)
        for item in items:
            for slot in range(3):
                assert (
                    left.query_recent(left.positions([item]), [slot])[0, 0]
                    == single.query_recent(single.positions([item]), [slot])[0, 0]
                )

    def test_mismatches_rejected(self):
        from repro.errors import MergeError

        base = VectorizedTower(memory_bytes=20000, s=3, d=3, seed=2)
        with pytest.raises(MergeError):
            base.merge(VectorizedTower(memory_bytes=20000, s=4, d=3, seed=2))
        with pytest.raises(MergeError):
            base.merge(VectorizedTower(memory_bytes=40000, s=3, d=3, seed=2))
        with pytest.raises(MergeError):
            base.merge(VectorizedTower(memory_bytes=20000, s=3, d=3, seed=3))
        with pytest.raises(MergeError):
            base.merge(
                VectorizedTower(memory_bytes=20000, s=3, d=3, seed=2, update_rule="cu")
            )


class TestVectorizedSketchMerge:
    def _config(self, **overrides):
        overrides.setdefault("memory_kb", 80.0)
        return XSketchConfig(task=SimplexTask.paper_default(1), **overrides)

    @staticmethod
    def _side(item):
        text = item if isinstance(item, str) else repr(item)
        return sum(text.encode()) % 2

    def test_merge_combines_report_streams_in_canonical_order(self, controlled_trace):
        config = self._config()
        windows = list(controlled_trace.windows())
        left_stream = [[i for i in w if self._side(i) == 0] for w in windows]
        right_stream = [[i for i in w if self._side(i) == 1] for w in windows]
        a = VectorizedXSketch(config, seed=31)
        b = VectorizedXSketch(config, seed=31)
        for left, right in zip(left_stream, right_stream):
            a.run_window(left)
            b.run_window(right)
        expected = sorted(
            [(r.report_window, str(r.item)) for r in a.reports + b.reports]
        )
        a.merge(b)
        assert [(r.report_window, str(r.item)) for r in a.reports] == expected
        assert any(expected)  # the split stream actually produced reports

    def test_merge_requires_same_window_config_and_boundary(self):
        from repro.errors import MergeError

        config = self._config()
        a = VectorizedXSketch(config, seed=31)
        b = VectorizedXSketch(config, seed=31)
        b.run_window(["x"] * 10)
        with pytest.raises(MergeError):
            a.merge(b)
        with pytest.raises(MergeError):
            a.merge(VectorizedXSketch(self._config(memory_kb=50.0), seed=31))
        c = VectorizedXSketch(config, seed=31)
        c.insert("pending")
        with pytest.raises(MergeError):
            a.merge(c)

    def test_satisfies_mergeable_protocol(self):
        from repro.runtime.mergeable import Mergeable

        assert isinstance(VectorizedXSketch(self._config(), seed=31), Mergeable)


class TestDegenerateBatches:
    def _sketch(self, memory_kb=40.0):
        return VectorizedXSketch(
            XSketchConfig(task=SimplexTask.paper_default(1), memory_kb=memory_kb), seed=7
        )

    def test_empty_window_emits_no_reports_and_advances(self):
        sketch = self._sketch()
        assert sketch.run_window([]) == []
        assert sketch.window == 1
        for _ in range(10):
            assert sketch.run_window([]) == []
        assert sketch.window == 11

    def test_empty_windows_match_scalar_engines(self):
        from repro.core.xsketch import XSketch

        config = XSketchConfig(task=SimplexTask.paper_default(1), memory_kb=40.0)
        engines = [XSketch(config, seed=7), self._sketch()]
        for engine in engines:
            for _ in range(8):
                engine.run_window([])
        assert {e.window for e in engines} == {8}
        assert all(e.reports == [] for e in engines)

    def test_single_item_windows(self):
        sketch = self._sketch()
        for window in range(12):
            sketch.run_window(["solo"])
        assert sketch.window == 12
        assert sketch.stats.stage1_arrivals == 12

    def test_all_tracked_window_skips_stage1(self):
        """Once every arrival hits Stage 2, the Stage-1 batch is empty
        and the numpy path must cope with (0, d) arrays."""
        sketch = self._sketch()
        for window in range(12):
            sketch.run_window(["lin"] * (5 + 3 * window))
        assert sketch.stage2.lookup("lin") is not None
        arrivals_before = sketch.stats.stage1_arrivals
        sketch.run_window(["lin"] * 50)  # tracked: bypasses Stage 1 entirely
        assert sketch.stats.stage1_arrivals == arrivals_before

    def test_ingest_batch_equals_per_item_inserts(self):
        a = self._sketch()
        b = self._sketch()
        stream = [f"i{j % 7}" for j in range(40)]
        a.ingest_batch(stream)
        for item in stream:
            b.insert(item)
        assert a._buffer == b._buffer
        assert a.end_window() == b.end_window()
