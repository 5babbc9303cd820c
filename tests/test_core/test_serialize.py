"""Tests for X-Sketch checkpoint/restore."""

import dataclasses
import json

import pytest

from repro.config import XSketchConfig
from repro.core.reports import SimplexReport, report_from_dict, report_to_dict
from repro.core.serialize import (
    load_xsketch,
    restore_xsketch,
    save_xsketch,
    snapshot_xsketch,
)
from repro.core.xsketch import XSketch
from repro.errors import ConfigurationError
from repro.fitting.simplex import SimplexTask
from repro.streams.datasets import make_dataset


def _fresh(structure="tower", seed=9):
    config = XSketchConfig(
        task=SimplexTask.paper_default(1), memory_kb=20.0, stage1_structure=structure
    )
    return XSketch(config, seed=seed)


class TestSnapshotRoundtrip:
    @pytest.mark.parametrize("structure", ["tower", "cm", "cu", "cold", "loglog"])
    def test_restored_sketch_continues_identically(self, structure):
        """Run half the stream, checkpoint, restore, run the rest: the
        report stream must match an uninterrupted run bit-for-bit."""
        trace = make_dataset("ip_trace", n_windows=24, window_size=600, seed=2)
        windows = list(trace.windows())

        uninterrupted = _fresh(structure)
        for window in windows:
            uninterrupted.run_window(window)

        first_half = _fresh(structure)
        for window in windows[:12]:
            first_half.run_window(window)
        snapshot = snapshot_xsketch(first_half)
        resumed = restore_xsketch(snapshot, seed=9)
        for window in windows[12:]:
            resumed.run_window(window)

        assert [r.instance for r in resumed.reports] == [
            r.instance for r in uninterrupted.reports
        ]
        assert resumed.window == uninterrupted.window

    def test_file_roundtrip(self, tmp_path):
        trace = make_dataset("synthetic", n_windows=12, window_size=400, seed=3)
        sketch = _fresh()
        for window in trace.windows():
            sketch.run_window(window)
        path = tmp_path / "sketch.json"
        save_xsketch(sketch, path)
        loaded = load_xsketch(path, seed=9)
        assert [r.instance for r in loaded.reports] == [r.instance for r in sketch.reports]
        assert loaded.window == sketch.window

    def test_snapshot_preserves_tracked_cells(self):
        sketch = _fresh()
        for window in range(10):
            sketch.run_window(["lin"] * (5 + 3 * window) + ["pad"] * 5)
        snapshot = snapshot_xsketch(sketch)
        resumed = restore_xsketch(snapshot, seed=9)
        original_cell = sketch.stage2.lookup("lin")
        restored_cell = resumed.stage2.lookup("lin")
        assert original_cell is not None and restored_cell is not None
        assert restored_cell.counts == original_cell.counts
        assert restored_cell.w_str == original_cell.w_str

    def test_version_check(self):
        sketch = _fresh()
        snapshot = snapshot_xsketch(sketch)
        snapshot["format_version"] = 99
        with pytest.raises(ConfigurationError):
            restore_xsketch(snapshot)

    def test_geometry_mismatch_rejected(self):
        sketch = _fresh()
        snapshot = snapshot_xsketch(sketch)
        snapshot["stage1_arrays"][0] = snapshot["stage1_arrays"][0][:-1]
        with pytest.raises(ConfigurationError):
            restore_xsketch(snapshot, seed=9)


class TestLegacyBatchedSnapshot:
    """The deleted dict-batched engine wrote ``variant="batched"``
    snapshots with the vectorized engine's geometry; they restore as
    vectorized.  Built by re-tagging vectorized snapshots."""

    @pytest.mark.parametrize("memory_kb", [8.0, 60.0])
    def test_continues_as_vectorized(self, memory_kb):
        from repro.core.vectorized import VectorizedXSketch

        config = XSketchConfig(task=SimplexTask.paper_default(1), memory_kb=memory_kb)
        windows = list(make_dataset("ip_trace", n_windows=20, window_size=500, seed=4).windows())
        uninterrupted = VectorizedXSketch(config, seed=9)
        half = VectorizedXSketch(config, seed=9)
        for window in windows[:10]:
            uninterrupted.run_window(window)
            half.run_window(window)
        snapshot = snapshot_xsketch(half)
        resumed = restore_xsketch(dict(snapshot, variant="batched"), seed=9)
        assert type(resumed) is VectorizedXSketch
        assert snapshot_xsketch(resumed) == snapshot
        for window in windows[10:]:
            uninterrupted.run_window(window)
            resumed.run_window(window)
        assert resumed.reports == uninterrupted.reports

    def test_cold_stage1_raises_one_line_error(self):
        snapshot = snapshot_xsketch(_fresh(structure="cold"))
        with pytest.raises(ConfigurationError, match="tower Stage 1 only") as error:
            restore_xsketch(dict(snapshot, variant="batched"), seed=9)
        assert "\n" not in str(error.value)

    def test_unknown_variant_rejected(self):
        snapshot = snapshot_xsketch(_fresh())
        with pytest.raises(ConfigurationError, match="unknown snapshot variant 'turbo'"):
            restore_xsketch(dict(snapshot, variant="turbo"), seed=9)


class TestVectorizedSnapshot:
    def _vectorized(self, seed=9):
        from repro.core.vectorized import VectorizedXSketch

        config = XSketchConfig(task=SimplexTask.paper_default(1), memory_kb=20.0)
        return VectorizedXSketch(config, seed=seed)

    def test_vectorized_roundtrip_continues_identically(self):
        trace = make_dataset("ip_trace", n_windows=20, window_size=500, seed=4)
        windows = list(trace.windows())
        uninterrupted = self._vectorized()
        for window in windows:
            uninterrupted.run_window(window)
        half = self._vectorized()
        for window in windows[:10]:
            half.run_window(window)
        snapshot = snapshot_xsketch(half)
        assert snapshot["variant"] == "vectorized"
        resumed = restore_xsketch(snapshot, seed=9)
        assert type(resumed).__name__ == "VectorizedXSketch"
        for window in windows[10:]:
            resumed.run_window(window)
        assert [r.instance for r in resumed.reports] == [
            r.instance for r in uninterrupted.reports
        ]

    def test_snapshot_geometry_matches_scalar_tower(self):
        """The numpy tower flattens to the scalar CounterArray layout, so
        a vectorized snapshot restores as a per-arrival sketch (and back)
        with identical Stage-1 counters."""
        trace = make_dataset("ip_trace", n_windows=8, window_size=400, seed=6)
        sketch = self._vectorized()
        for window in trace.windows():
            sketch.run_window(window)
        snapshot = snapshot_xsketch(sketch)
        crossed = dict(snapshot, variant="per-arrival")
        scalar = restore_xsketch(crossed, seed=9)
        assert type(scalar).__name__ == "XSketch"
        assert snapshot_xsketch(scalar)["stage1_arrays"] == snapshot["stage1_arrays"]

    def test_snapshot_is_plain_json(self):
        """Counters leave the numpy tower as Python ints, and the JSON
        round trip restores to a sketch with an equal snapshot."""
        trace = make_dataset("ip_trace", n_windows=12, window_size=500, seed=4)
        sketch = self._vectorized()
        for window in trace.windows():
            sketch.run_window(window)
        snapshot = snapshot_xsketch(sketch)
        assert snapshot["reports"], "the stream must produce reports"
        assert all(
            type(value) is int
            for level in snapshot["stage1_arrays"]
            for value in level
        )
        assert any(any(level) for level in snapshot["stage1_arrays"])
        loaded = json.loads(json.dumps(snapshot))
        assert loaded == snapshot
        assert snapshot_xsketch(restore_xsketch(loaded, seed=9)) == snapshot

    def test_mid_window_snapshot_rejected(self):
        sketch = self._vectorized()
        sketch.insert("x")  # buffer non-empty
        with pytest.raises(ConfigurationError):
            snapshot_xsketch(sketch)


class TestReportCodec:
    def test_record_keeps_field_order_and_round_trips(self):
        """One codec writes every report record; its bytes equal the
        dataclass encoding snapshots and ladder nodes used before it."""
        report = SimplexReport(
            item="flow-7", start_window=3, report_window=9, lasting_time=8,
            coefficients=(1.5, -2.0), mse=0.25,
        )
        record = report_to_dict(report)
        assert list(record) == [field.name for field in dataclasses.fields(SimplexReport)]
        assert json.dumps(record) == json.dumps(dataclasses.asdict(report))
        assert report_from_dict(json.loads(json.dumps(record))) == report
