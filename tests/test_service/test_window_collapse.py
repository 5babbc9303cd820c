"""One collapse per micro-batch when the window manager feeds the store.

A single buffered engine with a service-attached temporal store takes
each micro-batch as one ``Counter``: the same mapping feeds
``TemporalStore.observe_counts`` and the engine's ``ingest_counts``.
The reports and ladder nodes equal those of the two-collapse path
(``observe_items`` then ``ingest_batch``).  The per-arrival ``XSketch``
has no ``ingest_counts`` and keeps its ordered ``ingest_batch``.
"""

from __future__ import annotations

import asyncio
import collections
import random

import pytest

import repro.core.vectorized
import repro.service.window
import repro.temporal.store
from repro.config import XSketchConfig
from repro.core.engines import make_engine
from repro.fitting.simplex import SimplexTask
from repro.service.window import EngineAdapter, WindowManager
from repro.temporal import TemporalPolicy, TemporalStore
from repro.temporal.node import snapshot_freq

SEED = 13
WINDOW_SIZE = 300
MICRO_BATCH = 64
WINDOWS = 9


class CountingCounter(collections.Counter):
    built = 0

    def __init__(self, *args, **kwargs):
        type(self).built += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def counting(monkeypatch):
    CountingCounter.built = 0
    for module in (repro.service.window, repro.core.vectorized,
                   repro.temporal.store):
        monkeypatch.setattr(module, "Counter", CountingCounter)
    return CountingCounter


def _stream():
    rng = random.Random(SEED)
    items = []
    for window in range(WINDOWS):
        planted = ["rise"] * (3 + 4 * window) + ["fall"] * (40 - 4 * window)
        background = [rng.randrange(40) for _ in range(WINDOW_SIZE - len(planted))]
        chunk = planted + background
        rng.shuffle(chunk)
        items.extend(chunk)
    return items


def _run(engine_name, two_collapses=False):
    """Serve the stream through a WindowManager; return what it built."""
    config = XSketchConfig(task=SimplexTask.paper_default(1), memory_kb=4.0)
    engine = make_engine(config, seed=SEED, engine=engine_name)
    adapter = EngineAdapter(engine)
    if two_collapses:
        adapter.ingest_counts = None  # the observe_items + ingest_batch path
    store = TemporalStore(
        TemporalPolicy(freq_memory_kb=0.5, level_capacity=2, fidelity_windows=2),
        seed=SEED,
    )
    manager = WindowManager(adapter, WINDOW_SIZE, MICRO_BATCH, temporal=store)
    items = _stream()

    async def drive():
        for start in range(0, len(items), 50):
            await manager.submit(items[start:start + 50])

    asyncio.run(drive())
    nodes = [
        (node.level, node.start, node.end, node.items,
         snapshot_freq(node.freq), node.reports, node.asof)
        for node in store.snapshot.nodes
    ]
    return {"reports": list(engine.reports), "nodes": nodes,
            "batches": manager.engine_batches, "engine": engine}


@pytest.mark.parametrize("engine_name", ["vectorized"])
def test_buffered_engine_collapses_each_micro_batch_once(counting, engine_name):
    subject = _run(engine_name)
    assert subject["batches"] > WINDOWS
    assert counting.built == subject["batches"]
    counting.built = 0
    reference = _run(engine_name, two_collapses=True)
    assert counting.built == 2 * reference["batches"]
    assert subject["batches"] == reference["batches"]
    assert subject["reports"] == reference["reports"]
    assert subject["reports"], "the planted keys must get reported"
    assert subject["nodes"] == reference["nodes"]


def test_per_arrival_engine_keeps_ordered_batches(counting, monkeypatch):
    seen = []
    ingest_batch = EngineAdapter.ingest_batch

    def recording(adapter, items):
        seen.append(list(items))
        return ingest_batch(adapter, items)

    monkeypatch.setattr(EngineAdapter, "ingest_batch", recording)
    subject = _run("xsketch")
    assert not hasattr(subject["engine"], "ingest_counts")
    # one collapse per micro-batch (the store's); the engine gets the
    # arrivals themselves, in order
    assert counting.built == subject["batches"] == len(seen)
    assert [item for batch in seen for item in batch] == _stream()
