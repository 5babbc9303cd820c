"""Extension bench: single-shard ingest hot path across the engines.

Not a paper figure.  The ingest hot path is where the reproduction pays
Python's per-arrival interpreter cost; the vectorized engine exists to
amortize it (per-window (key, count) aggregation, numpy bulk counter
updates and batched CRC hashing).  This bench drives the same Zipf(1.5)
synthetic stream through each engine at equal ``memory_kb`` and reports
end-to-end Mops (``ingest_batch`` + ``end_window`` wall clock, exactly
the worker loop's sketch work) next to each engine's F1 against the
exact :class:`~repro.core.oracle.SimplexOracle`, so a speed row is
always read at its accuracy.

Acceptance floor carried by the engine-promotion ISSUE: the vectorized
engine must sustain at least 3x the per-arrival XS-CU throughput at
equal memory; on an idle machine the margin is typically much larger.
"""

import time

from conftest import BENCH_SEED, run_once, write_bench_json
from repro.config import XSketchConfig
from repro.core.engines import ENGINE_NAMES, make_engine
from repro.core.oracle import SimplexOracle
from repro.experiments.harness import SeriesTable
from repro.fitting.simplex import SimplexTask
from repro.metrics.classification import score_reports
from repro.streams.datasets import synthetic_stream

N_WINDOWS = 8
WINDOW_SIZE = 12_000
MEMORY_KB = 60.0
SPEEDUP_FLOOR = 3.0


def _sweep():
    trace = synthetic_stream(
        n_windows=N_WINDOWS, window_size=WINDOW_SIZE, seed=BENCH_SEED
    )
    windows = [list(window) for window in trace.windows()]
    n_items = sum(len(window) for window in windows)
    task = SimplexTask.paper_default(1)
    config = XSketchConfig(task=task, memory_kb=MEMORY_KB, update_rule="cu")
    truth = SimplexOracle.from_stream(windows, task).instances
    results = []
    for engine in ENGINE_NAMES:
        sketch = make_engine(config, seed=BENCH_SEED, engine=engine)
        start = time.perf_counter()
        for window in windows:
            sketch.ingest_batch(window)
            sketch.end_window()
        elapsed = time.perf_counter() - start
        results.append(
            {
                "engine": engine,
                "mops": n_items / elapsed / 1e6,
                "reports": len(sketch.reports),
                "f1": score_reports(sketch.reports, truth).f1,
            }
        )
    base = results[0]["mops"]
    for row in results:
        row["speedup"] = row["mops"] / base
    table = SeriesTable(
        title="Single-shard ingest hot path (XS-CU, Zipf 1.5 synthetic)",
        x_label="Engine",
        x_values=[row["engine"] for row in results],
    )
    table.add("Mops", [row["mops"] for row in results])
    table.add("Speedup", [row["speedup"] for row in results])
    table.add("F1", [row["f1"] for row in results])
    table.notes.append(
        f"{N_WINDOWS} windows x {WINDOW_SIZE} items, memory_kb={MEMORY_KB}, "
        "wall clock over ingest_batch + end_window (the worker loop's sketch work)"
    )
    write_bench_json(
        "BENCH_hotpath.json",
        params={
            "n_windows": N_WINDOWS,
            "window_size": WINDOW_SIZE,
            "seed": BENCH_SEED,
            "memory_kb": MEMORY_KB,
            "update_rule": "cu",
        },
        results=[
            {
                "engine": row["engine"],
                "mops": round(row["mops"], 4),
                "speedup": round(row["speedup"], 3),
                "reports": row["reports"],
                "f1": round(row["f1"], 4),
            }
            for row in results
        ],
    )
    return table


def test_vectorized_hot_path_beats_per_arrival(benchmark, show):
    table = run_once(benchmark, _sweep)
    show(table)
    mops = dict(zip(table.x_values, table.column("Mops")))
    assert all(m > 0 for m in mops.values())
    # ISSUE acceptance: >= 3x single-shard ingest throughput for the
    # vectorized engine vs per-arrival XS-CU at equal memory_kb.
    assert mops["vectorized"] >= SPEEDUP_FLOOR * mops["xsketch"], mops
