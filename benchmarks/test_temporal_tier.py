"""Extension bench: what the temporal tier costs, and what queries cost.

Not a paper figure.  The temporal store rides the engine's window
lifecycle (``docs/TEMPORAL.md``); its ingest-path footprint is one
buffer update per distinct key of each ingest call (the call is
collapsed to (key, count) pairs first, under either engine) plus one
seal per boundary, which hashes the window's distinct keys once, in one
batch, into a numpy Count-Min.  This bench prices that against a
store-less run of the same stream, once on the per-arrival engine and
once on the vectorized (production) engine, then measures range-query
latency as the queried width grows — the dyadic cover keeps the
composed node count O(log W), so latency should grow far slower than
width.

Method: interleaved best-of-N rounds (CPU drift hits both
configurations equally) over an inline 2-shard engine.  Correctness
ride-along, per engine: the temporal run must produce the identical
report stream (history may observe, never perturb), and its full-range
report query must equal the engine's own report stream.
"""

import time

from conftest import BENCH_SEED, run_once, write_bench_json
from repro.config import XSketchConfig
from repro.fitting.simplex import SimplexTask
from repro.runtime.sharded import ShardedXSketch
from repro.streams.datasets import synthetic_stream
from repro.temporal import TemporalPolicy, TemporalStore

N_WINDOWS = 64
WINDOW_SIZE = 2_000
ROUNDS = 3
#: the per-arrival row first (the row this bench has always recorded)
ENGINES = ("xsketch", "vectorized")
QUERY_WIDTHS = (1, 4, 16, 64)
QUERY_REPEATS = 50


def _windows():
    trace = synthetic_stream(
        n_windows=N_WINDOWS, window_size=WINDOW_SIZE, seed=BENCH_SEED
    )
    return [list(w) for w in trace.windows()]


def _run(windows, temporal, engine_name):
    engine = ShardedXSketch(
        XSketchConfig(task=SimplexTask.paper_default(1), memory_kb=60.0),
        n_shards=2,
        seed=BENCH_SEED,
        backend="inline",
        engine=engine_name,
        temporal=temporal,
    )
    start = time.perf_counter()
    for window in windows:
        engine.ingest_batch(window)
        engine.flush_window()
    elapsed = time.perf_counter() - start
    reports = engine.report()
    engine.close()
    return elapsed, reports


def _store():
    # fidelity off: price the retention ladder itself, not compaction.
    return TemporalStore(
        TemporalPolicy(freq_memory_kb=4.0, level_capacity=2, fidelity_windows=0),
        seed=BENCH_SEED,
    )


def _query_latencies(store, sample_item):
    """Best-of mean latency per range width, plus the cover fan-in."""
    rows = []
    for width in QUERY_WIDTHS:
        a, b = N_WINDOWS - width, N_WINDOWS - 1
        start = time.perf_counter()
        for _ in range(QUERY_REPEATS):
            store.range_frequency(sample_item, a, b)
            store.range_reports(a, b)
        elapsed = time.perf_counter() - start
        rows.append({
            "width": width,
            "range": f"{a}:{b}",
            "nodes": len(store.snapshot.covering(a, b)),
            "query_us": round(elapsed / QUERY_REPEATS / 2 * 1e6, 2),
        })
    return rows


def _measure_engine(windows, engine_name):
    """Interleaved best-of-ROUNDS, tier off vs on, for one engine."""
    _run(windows, None, engine_name)  # warmup
    off, on = [], []
    reports_off = reports_on = None
    store = None
    for _ in range(ROUNDS):
        t, reports_off = _run(windows, None, engine_name)
        off.append(t)
        store = _store()
        t, reports_on = _run(windows, store, engine_name)
        on.append(t)
    best_off, best_on = min(off), min(on)
    total_items = N_WINDOWS * WINDOW_SIZE
    row = {
        "engine": engine_name,
        "off_seconds": round(best_off, 4),
        "off_mops": round(total_items / best_off / 1e6, 4),
        "on_seconds": round(best_on, 4),
        "on_mops": round(total_items / best_on / 1e6, 4),
        "overhead_pct": round((best_on / best_off - 1.0) * 100.0, 2),
    }
    return row, reports_off, reports_on, store


def _measure():
    windows = _windows()
    rows, runs = [], {}
    for engine_name in ENGINES:
        row, reports_off, reports_on, store = _measure_engine(windows, engine_name)
        rows.append(row)
        runs[engine_name] = (reports_off, reports_on, store)
    store = runs[ENGINES[0]][2]
    sample_item = str(windows[0][0])
    measurement = {
        "items": N_WINDOWS * WINDOW_SIZE,
        "rows": rows,
        "ladder_nodes": len(store.snapshot.nodes),
        "ladder_depth": store.snapshot.depth,
        "ladder_bytes": int(store.memory_bytes),
        "queries": _query_latencies(store, sample_item),
    }
    return measurement, runs


def test_temporal_tier(benchmark, show):
    measurement, runs = run_once(benchmark, _measure)

    for reports_off, reports_on, store in runs.values():
        # Behaviour neutrality: identical reports with and without history.
        assert reports_on == reports_off
        # Query correctness: the full-range report answer IS the live stream.
        assert store.range_reports(0, N_WINDOWS - 1) == reports_on
        # The retention bound held: 64 windows in O(log W) nodes.
        assert len(store.snapshot.nodes) <= 21

    write_bench_json(
        "BENCH_temporal.json",
        params={
            "n_windows": N_WINDOWS,
            "window_size": WINDOW_SIZE,
            "seed": BENCH_SEED,
            "rounds": ROUNDS,
            "engine": "sharded inline x2, xs-cu",
            "engines": list(ENGINES),
            "memory_kb": 60.0,
            "policy": {"freq_memory_kb": 4.0, "level_capacity": 2,
                       "fidelity_windows": 0},
            "query_repeats": QUERY_REPEATS,
        },
        results=measurement,
    )
    query_lines = "\n".join(
        f"    width {row['width']:>3} ({row['range']}): "
        f"{row['query_us']}us over {row['nodes']} nodes"
        for row in measurement["queries"]
    )
    engine_lines = "\n".join(
        f"  {row['engine']:>10}: off {row['off_seconds']}s ({row['off_mops']} Mops), "
        f"on {row['on_seconds']}s ({row['on_mops']} Mops), "
        f"ingest overhead {row['overhead_pct']}%"
        for row in measurement["rows"]
    )
    show(
        f"Temporal tier (inline x2 shards, best of {ROUNDS} interleaved rounds):\n"
        f"{engine_lines}\n"
        f"  ladder after {N_WINDOWS} windows: {measurement['ladder_nodes']} nodes, "
        f"depth {measurement['ladder_depth']}, {measurement['ladder_bytes']} bytes\n"
        f"  range-query latency vs width:\n{query_lines}"
    )
