"""Collapsing arrivals at the edge changes nothing a reader can see.

``ShardedXSketch.ingest_batch`` collapses each call into (key, count)
pairs in first-arrival order: only the distinct keys are routed and fed
to the temporal store, and each buffered shard takes one count mapping
per call.  The reference feeds the same arrivals one at a time through
``insert`` with ``batch_size=1``, so every collapse it makes is a
single arrival.  Reports, the merged sketch, the ladder nodes and the
temporal wire deltas must all be equal, at a memory budget small enough
that Stage-1 counters collide.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import XSketchConfig
from repro.core.engines import make_engine
from repro.core.serialize import snapshot_xsketch
from repro.fitting.simplex import SimplexTask
from repro.runtime.sharded import ShardedXSketch
from repro.temporal import TemporalPolicy, TemporalStore
from repro.temporal.node import snapshot_freq

SEED = 5
N_WINDOWS = 10


def _config():
    # collision-heavy: 23 keys per window contend for 3 KB
    return XSketchConfig(
        task=SimplexTask.paper_default(1), memory_kb=3.0, update_rule="cu"
    )


def _store():
    store = TemporalStore(
        TemporalPolicy(freq_memory_kb=0.5, level_capacity=2, fidelity_windows=2),
        seed=SEED,
    )
    store.capture_deltas = True
    return store


#: background keys: few enough to repeat within every micro-batch, many
#: enough (with the planted ones) to contend for 3 KB of counters
KEYS = tuple("abcdefghij") + tuple(range(10))


def _window(w, background, rng):
    """Planted keys rise, fall or hold steady so Stage 2 has elections
    to run; the background varies per window."""
    window = ["rise"] * (2 + 3 * w) + ["fall"] * (32 - 3 * w) + ["flat"] * 6
    window += background
    rng.shuffle(window)
    return window


@st.composite
def streams(draw):
    """Windows of arrivals plus the micro-batch sizes that cut them."""
    rng = draw(st.randoms(use_true_random=False))
    windows = [
        _window(w, draw(st.lists(st.sampled_from(KEYS), min_size=60, max_size=140)), rng)
        for w in range(N_WINDOWS)
    ]
    cuts = draw(st.lists(st.integers(1, 48), min_size=1, max_size=8))
    return windows, cuts


def _chunks(window, cuts):
    start, index = 0, 0
    while start < len(window):
        size = cuts[index % len(cuts)]
        yield window[start:start + size]
        start += size
        index += 1


def _run(windows, cuts, engine, backend):
    """Feed ``windows`` cut by ``cuts``; ``cuts=None`` is the reference,
    one arrival per dispatch."""
    store = _store()
    with ShardedXSketch(
        _config(), n_shards=2, seed=SEED, backend=backend, engine=engine,
        temporal=store, reply_timeout=60.0,
        batch_size=1 if cuts is None else 2048,
    ) as sharded:
        for window in windows:
            if cuts is None:
                for item in window:
                    sharded.insert(item)
            else:
                for chunk in _chunks(window, cuts):
                    sharded.ingest_batch(chunk)
            sharded.flush_window()
        state = {
            "reports": sharded.report(),
            "merged": snapshot_xsketch(sharded.merged_sketch()),
            "routed": list(sharded.items_routed),
            "stage1_arrivals": sum(
                shard.worker.stats.stage1_arrivals for shard in sharded.stats().shards
            ),
        }
    state["nodes"] = [
        (node.level, node.start, node.end, node.items,
         snapshot_freq(node.freq), node.reports, node.asof)
        for node in store.snapshot.nodes
    ]
    state["deltas"] = store.take_deltas()
    state["observed"] = store.items_observed
    return state


def _assert_same(subject, reference, windows):
    assert subject["reports"] == reference["reports"]
    assert subject["merged"] == reference["merged"]
    assert subject["nodes"] == reference["nodes"]
    assert subject["deltas"] == reference["deltas"]
    # arrival counters count arrivals, not keys
    arrivals = sum(len(window) for window in windows)
    assert sum(subject["routed"]) == sum(reference["routed"]) == arrivals
    assert subject["routed"] == reference["routed"]
    assert subject["observed"] == reference["observed"] == arrivals
    assert sum(node[3] for node in subject["nodes"]) == arrivals
    assert subject["stage1_arrivals"] == reference["stage1_arrivals"]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stream=streams(), engine=st.sampled_from(("vectorized", "xsketch")))
def test_inline_collapse_matches_per_arrival(stream, engine):
    windows, cuts = stream
    subject = _run(windows, cuts, engine, "inline")
    reference = _run(windows, None, engine, "inline")
    _assert_same(subject, reference, windows)


@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stream=streams(), engine=st.just("vectorized"))
def test_process_collapse_matches_per_arrival(stream, engine):
    windows, cuts = stream
    subject = _run(windows, cuts, engine, "process")
    reference = _run(windows, None, engine, "inline")
    _assert_same(subject, reference, windows)


def test_stream_exercises_stage2():
    """On these streams the planted keys get reported, and the order of
    a window's keys changes the sketch, so the property above compares
    elections and would see a collapse that lost first-arrival order."""
    rng = random.Random(0)
    windows = [
        _window(w, [rng.choice(KEYS) for _ in range(100)], rng)
        for w in range(N_WINDOWS)
    ]
    state = _run(windows, [17, 5, 40], "vectorized", "inline")
    assert {str(report.item) for report in state["reports"]} >= {"rise", "fall"}

    snapshots = []
    for reverse in (False, True):
        engine = make_engine(_config(), seed=SEED, engine="vectorized")
        for window in windows:
            counts = list(Counter(window).items())
            engine.ingest_counts(dict(reversed(counts) if reverse else counts))
            engine.end_window()
        snapshots.append(snapshot_xsketch(engine))
    assert snapshots[0] != snapshots[1]
