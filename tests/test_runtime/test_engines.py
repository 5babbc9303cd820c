"""Engine selection in the sharded runtime: ``engine="xsketch" |
"vectorized"``, process/inline report identity, checkpoint round-trips
that preserve the engine (and restore legacy ``batched`` checkpoints as
vectorized), compaction classes, and supervised respawn continuing with
the engine the shard crashed with."""

from __future__ import annotations

import json

import pytest

from repro.config import XSketchConfig
from repro.core.engines import ENGINE_NAMES, make_engine, validate_engine
from repro.core.serialize import snapshot_xsketch
from repro.errors import ConfigurationError
from repro.fitting.simplex import SimplexTask
from repro.runtime.faults import Fault
from repro.runtime.sharded import ShardedXSketch

SEED = 11
N_WINDOWS = 12


def _config(memory_kb=60.0, **overrides):
    return XSketchConfig(
        task=SimplexTask.paper_default(1), memory_kb=memory_kb, **overrides
    )


def _report_keys(reports):
    return [(r.report_window, str(r.item)) for r in reports]


def _run_trace(algorithm, windows):
    for window in windows:
        algorithm.run_window(window)
    return algorithm


@pytest.fixture(scope="module")
def planted_windows(controlled_trace):
    return list(controlled_trace.windows())[:N_WINDOWS]


@pytest.fixture(scope="module")
def inline_keys_by_engine(planted_windows):
    keys = {}
    for engine in ENGINE_NAMES:
        with ShardedXSketch(
            _config(), n_shards=2, seed=SEED, backend="inline", engine=engine
        ) as sharded:
            _run_trace(sharded, planted_windows)
            keys[engine] = sorted(_report_keys(sharded.reports))
    return keys


class TestEngineValidation:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            validate_engine("turbo")

    def test_vectorized_requires_tower(self):
        config = _config(stage1_structure="cold")
        with pytest.raises(ConfigurationError, match="tower"):
            validate_engine("vectorized", config)

    def test_sharded_rejects_bad_engine_before_spawn(self):
        with pytest.raises(ConfigurationError):
            ShardedXSketch(_config(), n_shards=2, backend="inline", engine="turbo")
        with pytest.raises(ConfigurationError):
            ShardedXSketch(
                _config(stage1_structure="cold"),
                n_shards=2,
                backend="inline",
                engine="vectorized",
            )

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_factory_builds_the_named_engine(self, engine):
        expected = {"xsketch": "XSketch", "vectorized": "VectorizedXSketch"}[engine]
        assert type(make_engine(_config(), engine=engine)).__name__ == expected

    def test_make_algorithm_threads_engine(self):
        from repro.experiments.harness import make_algorithm

        task = SimplexTask.paper_default(1)
        single = make_algorithm("xs-cu", task, 40.0, engine="vectorized")
        assert type(single).__name__ == "VectorizedXSketch"
        with pytest.raises(ConfigurationError, match="fixes its engine"):
            make_algorithm("xs-vectorized", task, 40.0, engine="vectorized")
        with pytest.raises(ConfigurationError, match="fixes its engine"):
            make_algorithm("baseline", task, 40.0, engine="vectorized")
        with pytest.raises(ConfigurationError, match="unknown engine 'batched'"):
            make_algorithm("xs-cu", task, 40.0, engine="batched")


class TestCrossEngineReportIdentity:
    @pytest.mark.parametrize("engine", ["vectorized"])
    def test_process_backend_matches_inline(
        self, engine, planted_windows, inline_keys_by_engine
    ):
        with ShardedXSketch(
            _config(), n_shards=2, seed=SEED, backend="process",
            reply_timeout=60.0, engine=engine,
        ) as sharded:
            _run_trace(sharded, planted_windows)
            keys = sorted(_report_keys(sharded.reports))
        assert keys == inline_keys_by_engine[engine]
        assert keys  # the trace produced reports


class TestEngineCheckpoint:
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_roundtrip_preserves_engine_and_reports(
        self, engine, planted_windows, tmp_path
    ):
        directory = tmp_path / engine
        with ShardedXSketch(
            _config(), n_shards=2, seed=SEED, backend="inline", engine=engine
        ) as sharded:
            _run_trace(sharded, planted_windows[:8])
            sharded.checkpoint(directory)
            expected = _report_keys(sharded.reports)
            _run_trace(sharded, planted_windows[8:])
            full = _report_keys(sharded.reports)
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["engine"] == engine
        restored = ShardedXSketch.restore(directory, backend="inline")
        assert restored.engine == engine
        assert _report_keys(restored.reports) == expected
        _run_trace(restored, planted_windows[8:])
        assert _report_keys(restored.reports) == full
        restored.close()

    def test_legacy_manifest_defaults_to_per_arrival(self, planted_windows, tmp_path):
        directory = tmp_path / "legacy"
        with ShardedXSketch(
            _config(), n_shards=2, seed=SEED, backend="inline"
        ) as sharded:
            _run_trace(sharded, planted_windows[:4])
            sharded.checkpoint(directory)
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["engine"]
        manifest_path.write_text(json.dumps(manifest))
        restored = ShardedXSketch.restore(directory, backend="inline")
        assert restored.engine == "xsketch"
        restored.close()

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_legacy_batched_checkpoint_restores_as_vectorized(
        self, backend, planted_windows, tmp_path
    ):
        """A checkpoint of the deleted ``batched`` engine (manifest and
        shard snapshots tagged ``batched``, vectorized geometry) restores
        on either backend as vectorized and continues the stream."""
        directory = tmp_path / "batched"
        with ShardedXSketch(
            _config(), n_shards=2, seed=SEED, backend="inline", engine="vectorized"
        ) as sharded:
            _run_trace(sharded, planted_windows[:8])
            sharded.checkpoint(directory)
            _run_trace(sharded, planted_windows[8:])
            full = _report_keys(sharded.reports)
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["engine"] = "batched"
        manifest_path.write_text(json.dumps(manifest))
        for filename in manifest["shards"]:
            shard_path = directory / filename
            snapshot = json.loads(shard_path.read_text())
            snapshot["variant"] = "batched"
            shard_path.write_text(json.dumps(snapshot))
        with ShardedXSketch.restore(
            directory, backend=backend, reply_timeout=60.0
        ) as restored:
            assert restored.engine == "vectorized"
            _run_trace(restored, planted_windows[8:])
            assert _report_keys(restored.reports) == full
            assert type(restored.merged_sketch()).__name__ == "VectorizedXSketch"


class TestMergedSketchPerEngine:
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_compaction_class_matches_engine(self, engine, planted_windows):
        expected = {"xsketch": "XSketch", "vectorized": "VectorizedXSketch"}[engine]
        with ShardedXSketch(
            _config(), n_shards=2, seed=SEED, backend="inline", engine=engine
        ) as sharded:
            _run_trace(sharded, planted_windows[:8])
            merged = sharded.merged_sketch()
            assert type(merged).__name__ == expected
            assert _report_keys(merged.reports) == _report_keys(sharded.report())


class TestSupervisedRespawnKeepsEngine:
    def test_boundary_kill_report_identical_vectorized(
        self, planted_windows, inline_keys_by_engine
    ):
        """SIGKILL a vectorized shard at a checkpoint boundary: the
        respawned worker restores the ``vectorized`` snapshot variant and
        the run stays report-identical with zero estimated loss."""
        fault = Fault(kind="kill", shard=0, window=4, point="checkpoint")
        with ShardedXSketch(
            _config(), n_shards=2, seed=SEED, backend="process",
            reply_timeout=60.0, faults=[fault], engine="vectorized",
        ) as sharded:
            with pytest.warns(RuntimeWarning, match="restarted shard 0"):
                _run_trace(sharded, planted_windows)
            keys = sorted(_report_keys(sharded.reports))
            health = sharded.health()
            merged = sharded.merged_sketch()
            assert type(merged).__name__ == "VectorizedXSketch"
        assert keys == inline_keys_by_engine["vectorized"]
        assert health["restarts_total"] == 1
        assert health["items_lost_estimate"] == 0

    def test_mid_window_kill_replays_count_batches_vectorized(self, planted_windows):
        """SIGKILL a vectorized shard on its first count batch of a
        window.  The batch it consumed is lost, and the loss estimate
        counts that batch's arrivals, not its keys.  The count batches
        still queued are replayed as count batches, so the run equals
        an inline run that never saw the lost shard-0 arrivals."""
        kill_window, n_chunks = 5, 4
        fault = Fault(kind="kill", shard=0, window=kill_window, point="ingest")

        def chunks(window):
            size = -(-len(window) // n_chunks)
            return [window[start:start + size] for start in range(0, len(window), size)]

        def feed(sharded, drop_lost=False):
            """Run the trace; returns the merged state after the kill window."""
            shard_of = sharded.partitioner.shard_of
            for index, window in enumerate(planted_windows):
                for position, chunk in enumerate(chunks(window)):
                    if drop_lost and (index, position) == (kill_window, 0):
                        chunk = [item for item in chunk if shard_of(item) != 0]
                    sharded.ingest_batch(chunk)
                sharded.flush_window()
                if index == kill_window:
                    state = snapshot_xsketch(sharded.merged_sketch())
            return state

        with ShardedXSketch(
            _config(), n_shards=2, seed=SEED, backend="inline", engine="vectorized"
        ) as reference:
            expected_state = feed(reference, drop_lost=True)
            shard_of = reference.partitioner.shard_of
            first = chunks(planted_windows[kill_window])[0]
            lost = [item for item in first if shard_of(item) == 0]
            expected = reference.report()
        with ShardedXSketch(
            _config(), n_shards=2, seed=SEED, backend="process",
            reply_timeout=60.0, faults=[fault], engine="vectorized",
        ) as sharded:
            with pytest.warns(RuntimeWarning, match="restarted shard 0"):
                state = feed(sharded)
            health = sharded.health()
            reports = sharded.report()
            routed = sum(sharded.items_routed)
        assert health["restarts_total"] == 1
        assert len(set(lost)) < len(lost)  # the lost batch repeats keys
        assert health["items_lost_estimate"] == len(lost)
        assert routed == sum(len(window) for window in planted_windows)
        assert state == expected_state
        assert reports == expected
        assert reports  # the trace produced reports
