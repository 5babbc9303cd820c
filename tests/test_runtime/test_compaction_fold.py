"""The inline compaction folds live shards; the process one restores snapshots.

``merged_sketch()`` on the inline backend merges the live shard sketches
into a blank engine instead of snapshotting and restoring them.  These
tests pin that the fold is the same sketch the snapshot path builds, on
both backends, and that it leaves the shards untouched.  Every engine
runs at a collision-heavy 8 KB and at 60 KB, with a temporal store
keeping as-of snapshots at fidelity 4.
"""

from __future__ import annotations

import pytest

import repro.runtime.sharded as sharded_module
from repro.config import XSketchConfig
from repro.core.engines import ENGINE_NAMES
from repro.core.serialize import restore_xsketch, snapshot_xsketch
from repro.fitting.simplex import SimplexTask
from repro.runtime.sharded import ShardedXSketch
from repro.streams.datasets import make_dataset
from repro.temporal import TemporalPolicy, TemporalStore

SEED = 11
N_WINDOWS = 16
FIDELITY = 4
MEMORY_KBS = (8.0, 60.0)


def _config(memory_kb):
    return XSketchConfig(task=SimplexTask.paper_default(1), memory_kb=memory_kb)


@pytest.fixture(scope="module")
def windows():
    trace = make_dataset("datacenter", n_windows=N_WINDOWS, window_size=1000, seed=1)
    return list(trace.windows())


def _store():
    return TemporalStore(
        TemporalPolicy(freq_memory_kb=1.0, fidelity_windows=FIDELITY), seed=SEED
    )


def _restore_and_merge(sharded):
    """The compaction as it was built before the fold: snapshot every
    shard, restore each snapshot, merge the restored sketches."""
    snapshots = [snapshot_xsketch(sketch) for sketch in sharded._locals]
    merged = restore_xsketch(snapshots[0], seed=SEED)
    for snapshot in snapshots[1:]:
        merged.merge(restore_xsketch(snapshot, seed=SEED))
    merged._reports = sharded.report()
    return snapshot_xsketch(merged)


def _run(backend, engine, memory_kb, windows, reference=False):
    """Per-boundary compactions and summaries of one run."""
    store = _store()
    kwargs = {"reply_timeout": 60.0} if backend == "process" else {}
    with ShardedXSketch(
        _config(memory_kb), n_shards=2, seed=SEED, backend=backend,
        engine=engine, temporal=store, **kwargs,
    ) as sharded:
        record = {"asof": [], "merged": [], "summaries": [], "reference": []}
        for window in windows:
            sharded.run_window(window)
            record["asof"].append(store.snapshot.nodes[-1].asof)
            record["merged"].append(snapshot_xsketch(sharded.merged_sketch()))
            record["summaries"].append(sharded.slim_summary())
            if reference:
                record["reference"].append(_restore_and_merge(sharded))
        record["reports"] = sharded.report()
    return record


@pytest.fixture(scope="module")
def runs(windows):
    """Each engine x memory budget, on both backends, over one stream."""
    return {
        (engine, memory_kb): {
            "inline": _run("inline", engine, memory_kb, windows, reference=True),
            "process": _run("process", engine, memory_kb, windows),
        }
        for engine in ENGINE_NAMES
        for memory_kb in MEMORY_KBS
    }


CASES = [(engine, kb) for engine in ENGINE_NAMES for kb in MEMORY_KBS]


@pytest.mark.parametrize("engine,memory_kb", CASES)
class TestFoldEqualsSnapshotPath:
    def test_fold_equals_restore_and_merge(self, runs, engine, memory_kb):
        inline = runs[(engine, memory_kb)]["inline"]
        assert inline["merged"] == inline["reference"]

    def test_backends_compact_to_equal_snapshots(self, runs, engine, memory_kb):
        """``seed_state`` included: the blank engine carries shard 0's
        Stage-2 RNG state exactly as a restore of its snapshot does."""
        case = runs[(engine, memory_kb)]
        assert case["inline"]["merged"] == case["process"]["merged"]
        assert case["inline"]["reports"] == case["process"]["reports"]
        assert case["inline"]["reports"], "the stream must produce reports"

    def test_backends_keep_equal_asof_snapshots(self, runs, engine, memory_kb):
        """The store's as-of snapshot of every boundary, as sealed."""
        case = runs[(engine, memory_kb)]
        asof = case["inline"]["asof"]
        assert all(snapshot is not None for snapshot in asof)
        assert asof == case["inline"]["merged"]
        assert asof == case["process"]["asof"]

    def test_backends_publish_equal_summaries(self, runs, engine, memory_kb):
        """Live shards count decisions and snapshots carry no counters,
        so a summary with counters would differ between the backends."""
        case = runs[(engine, memory_kb)]
        summaries = case["inline"]["summaries"]
        assert summaries == case["process"]["summaries"]
        assert all("stats" not in summary for summary in summaries)
        assert summaries[-1]["tracked_items"] > 0


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("memory_kb", MEMORY_KBS)
def test_compacting_every_boundary_leaves_shards_untouched(windows, engine, memory_kb):
    """Compact at every boundary and then drive the compacted sketch on:
    if the fold aliased any shard cell or counter array, the shards
    would drift from a run that never compacts."""
    def run(compact):
        with ShardedXSketch(
            _config(memory_kb), n_shards=2, seed=SEED, backend="inline",
            engine=engine,
        ) as sharded:
            for window in windows:
                sharded.run_window(window)
                if compact:
                    sharded.merged_sketch().run_window(window)
            return (
                [snapshot_xsketch(sketch) for sketch in sharded._locals],
                sharded.report(),
            )

    assert run(compact=True) == run(compact=False)


def test_inline_boundary_never_restores(windows, monkeypatch):
    """An inline boundary with as-of snapshots and a published summary
    folds live shards: no restore, and one snapshot (the as-of one)."""
    calls = {"restore": 0, "snapshot": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        sharded_module, "restore_xsketch", counting("restore", restore_xsketch)
    )
    monkeypatch.setattr(
        sharded_module, "snapshot_xsketch", counting("snapshot", snapshot_xsketch)
    )
    with ShardedXSketch(
        _config(60.0), n_shards=2, seed=SEED, backend="inline",
        engine="vectorized", temporal=_store(),
    ) as sharded:
        for window in windows[:8]:
            sharded.run_window(window)
            sharded.slim_summary()
    assert calls == {"restore": 0, "snapshot": 8}
