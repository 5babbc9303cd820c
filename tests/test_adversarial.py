"""Adversarial and degenerate-stream tests.

Streams a real deployment would eventually produce: a single item
monopolizing every window, fully distinct arrivals, saturating counts,
mixed item-ID types, and single-window geometries.  None of these may
crash or corrupt any algorithm.
"""

import pytest

from repro.config import StreamGeometry, XSketchConfig
from repro.core.baseline import BaselineConfig, BaselineSolution
from repro.core.oracle import SimplexOracle
from repro.core.xsketch import XSketch
from repro.fitting.simplex import SimplexTask
from repro.metrics.classification import score_reports


def _all_algorithms(task, memory_kb=20.0, seed=3):
    from repro.core.vectorized import VectorizedXSketch

    return [
        XSketch(XSketchConfig(task=task, memory_kb=memory_kb), seed=seed),
        VectorizedXSketch(XSketchConfig(task=task, memory_kb=memory_kb), seed=seed),
        BaselineSolution(BaselineConfig(task=task, memory_kb=memory_kb), seed=seed),
    ]


class TestMonopolyStream:
    """One item is every arrival of every window."""

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_runs_and_matches_oracle_items(self, k):
        task = SimplexTask.paper_default(k)
        windows = [["mono"] * 500 for _ in range(12)]
        oracle = SimplexOracle.from_stream(windows, task)
        for algorithm in _all_algorithms(task):
            for window in windows:
                algorithm.run_window(window)
            reported = {r.item for r in algorithm.reports}
            truth = {item for item, _ in oracle.instances}
            # constant 500/window: 0-simplex only
            assert reported <= {"mono"}
            if k == 0:
                assert truth == {"mono"}


class TestAllDistinctStream:
    """Every arrival is a brand-new item: nothing can be simplex."""

    def test_no_reports(self):
        task = SimplexTask.paper_default(1)
        windows = [
            [f"unique-{window}-{i}" for i in range(400)] for window in range(10)
        ]
        for algorithm in _all_algorithms(task):
            for window in windows:
                algorithm.run_window(window)
            assert algorithm.reports == []

    def test_oracle_agrees(self):
        task = SimplexTask.paper_default(1)
        windows = [
            [f"unique-{window}-{i}" for i in range(400)] for window in range(10)
        ]
        oracle = SimplexOracle.from_stream(windows, task)
        assert oracle.instances == set()


class TestSaturatingCounts:
    """Counts beyond the 4-bit bottom level must escalate, not corrupt."""

    def test_heavy_constant_item_found_k0(self):
        task = SimplexTask(k=0, p=5, T=4.0, L=1.0)
        sketch = XSketch(XSketchConfig(task=task, memory_kb=30.0, s=3), seed=1)
        windows = [["heavy"] * 900 + ["pad"] * 100 for _ in range(10)]
        oracle = SimplexOracle.from_stream(windows, task)
        for window in windows:
            sketch.run_window(window)
        scores = score_reports(sketch.reports, oracle.instances)
        assert scores.recall > 0.5


class TestMixedItemTypes:
    """Integer, string and bytes IDs may coexist in one stream."""

    def test_all_algorithms_accept_mixed_ids(self):
        task = SimplexTask.paper_default(0)
        window = [42, "flow", b"\x01\x02", -7] * 50
        for algorithm in _all_algorithms(task):
            for _ in range(8):
                algorithm.run_window(list(window))
            # constant presence of each -> k=0 candidates; no crashes
            assert all(
                isinstance(r.report_window, int) for r in algorithm.reports
            )


class TestDegenerateGeometry:
    def test_window_size_one(self):
        task = SimplexTask(k=0, p=4, T=1.0, L=1.0)
        sketch = XSketch(XSketchConfig(task=task, memory_kb=10.0, s=2), seed=1)
        for _ in range(8):
            sketch.run_window(["only"])
        assert any(r.item == "only" for r in sketch.reports)

    def test_minimal_p_and_s(self):
        task = SimplexTask(k=0, p=2, T=1.0, L=1.0)
        config = XSketchConfig(task=task, memory_kb=10.0, s=1)
        sketch = XSketch(config, seed=1)
        for _ in range(6):
            sketch.run_window(["x"] * 5 + ["y"])
        assert any(r.item == "x" for r in sketch.reports)

    def test_empty_window_stream(self):
        """Windows with zero arrivals of tracked items evict them."""
        task = SimplexTask.paper_default(0)
        sketch = XSketch(XSketchConfig(task=task, memory_kb=10.0), seed=1)
        for _ in range(8):
            sketch.run_window(["x"] * 5)
        assert sketch.stage2.lookup("x") is not None
        sketch.run_window(["other"] * 5)
        assert sketch.stage2.lookup("x") is None


class TestOracleDegenerate:
    def test_oracle_empty_stream(self):
        oracle = SimplexOracle.from_stream([], SimplexTask.paper_default(1))
        assert oracle.instances == set()
        assert oracle.reports() == []

    def test_oracle_shorter_than_p(self):
        task = SimplexTask.paper_default(1)
        windows = [["a"] * 10 for _ in range(task.p - 1)]
        oracle = SimplexOracle.from_stream(windows, task)
        assert oracle.instances == set()
