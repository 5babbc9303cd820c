"""Extension bench: the two X-Sketch engines vs the baseline.

Not a paper figure.  The vectorized engine addresses pure Python's
per-arrival cost (the reproduction band's bottleneck): it must beat
per-arrival throughput with accuracy preserved, while the baseline
stays behind both.
"""

from conftest import BENCH_SEED, DATASET_GEOMETRY, run_once
from repro.experiments.harness import OracleCache, SeriesTable, evaluate_algorithm
from repro.experiments.params import scaled_memory_kb
from repro.fitting.simplex import SimplexTask
from repro.streams.datasets import make_dataset

MEMORIES_PAPER = (150, 250, 350)


def _comparison():
    trace = make_dataset(
        "ip_trace",
        n_windows=DATASET_GEOMETRY.n_windows,
        window_size=DATASET_GEOMETRY.window_size,
        seed=BENCH_SEED,
    )
    task = SimplexTask.paper_default(1)
    oracle = OracleCache().get(trace, task)
    f1_table = SeriesTable(
        title="F1: per-arrival vs vectorized X-Sketch (k=1, ip_trace)",
        x_label="Memory(KB)",
        x_values=[int(m) for m in MEMORIES_PAPER],
    )
    mops_table = SeriesTable(
        title="Mops: per-arrival vs vectorized X-Sketch (k=1, ip_trace)",
        x_label="Memory(KB)",
        x_values=[int(m) for m in MEMORIES_PAPER],
    )
    for name, label in (
        ("xs-cu", "per-arrival"),
        ("xs-vectorized", "vectorized"),
        ("baseline", "baseline"),
    ):
        results = [
            evaluate_algorithm(
                name, trace, task, scaled_memory_kb(m), oracle,
                seed=BENCH_SEED, memory_label_kb=m,
            )
            for m in MEMORIES_PAPER
        ]
        f1_table.add(label, [r.f1 for r in results])
        mops_table.add(label, [r.mops for r in results])
    return f1_table, mops_table


def test_batched_mode_speed_and_accuracy(benchmark, show):
    f1_table, mops_table = run_once(benchmark, _comparison)
    show(f1_table, mops_table)
    assert sum(mops_table.column("vectorized")) > sum(mops_table.column("per-arrival"))
    assert sum(f1_table.column("vectorized")) >= sum(f1_table.column("per-arrival")) - 0.15
