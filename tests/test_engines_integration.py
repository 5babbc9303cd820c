"""Cross-engine integration: both engines scored against the oracle.

On the controlled trace (known planted truth) every engine must find
the same planted items and reject the same decoys; on a realistic
stream their F1 scores must stay within a small band of each other.
At collision-heavy memory the engines' report sets differ, so each is
scored against the exact oracle on its own (docs/RUNTIME.md, "Engine
selection").
"""

from collections import Counter

import pytest

from repro.config import XSketchConfig
from repro.core.engines import make_engine
from repro.core.oracle import SimplexOracle
from repro.core.vectorized import VectorizedXSketch
from repro.core.xsketch import XSketch
from repro.fitting.simplex import SimplexTask
from repro.metrics.classification import ClassificationScores, score_reports
from repro.streams.datasets import make_dataset

ENGINES = [XSketch, VectorizedXSketch]


def _run(engine, task, trace, memory_kb=60.0, seed=5):
    sketch = engine(XSketchConfig(task=task, memory_kb=memory_kb), seed=seed)
    for window in trace.windows():
        sketch.run_window(window)
    return sketch


class TestControlledTruthAcrossEngines:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_k1_planted_items(self, engine, controlled_trace):
        sketch = _run(engine, SimplexTask.paper_default(1), controlled_trace)
        reported = {r.item for r in sketch.reports}
        assert "rise" in reported and "fall" in reported
        assert "const" not in reported and "slow" not in reported

    @pytest.mark.parametrize("engine", ENGINES)
    def test_k0_planted_items(self, engine, controlled_trace):
        sketch = _run(engine, SimplexTask.paper_default(0), controlled_trace)
        assert "const" in {r.item for r in sketch.reports}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_k2_planted_items(self, engine, controlled_trace):
        sketch = _run(engine, SimplexTask.paper_default(2), controlled_trace)
        reported = {r.item for r in sketch.reports}
        assert "parab" in reported
        assert "rise" not in reported


class TestEngineAgreementOnRealisticStream:
    @pytest.mark.parametrize("k", [0, 1])
    def test_f1_within_band(self, k):
        trace = make_dataset("ip_trace", n_windows=25, window_size=1000, seed=12)
        task = SimplexTask.paper_default(k)
        oracle = SimplexOracle.from_stream(trace.windows(), task)
        f1_scores = {
            engine.__name__: score_reports(
                _run(engine, task, trace, memory_kb=15.0, seed=12).reports,
                oracle.instances,
            ).f1
            for engine in ENGINES
        }
        assert max(f1_scores.values()) - min(f1_scores.values()) < 0.25, f1_scores
        assert min(f1_scores.values()) > 0.5, f1_scores

    def test_window_counters_advance_in_lockstep(self):
        trace = make_dataset("synthetic", n_windows=10, window_size=400, seed=3)
        task = SimplexTask.paper_default(1)
        sketches = [_run(engine, task, trace, memory_kb=15.0) for engine in ENGINES]
        assert len({sketch.window for sketch in sketches}) == 1


#: micro-pooled F1 per (k, memory KB): (per-arrival, vectorized) on
#: ip_trace, 30 windows x 3000, trace seeds 0-2, engine seed 7,
#: paper-default XS-CU -- the table in docs/RUNTIME.md
ORACLE_F1 = {
    (0, 8): (0.295, 0.047), (0, 20): (0.748, 0.839), (0, 60): (0.989, 0.999),
    (1, 8): (0.201, 0.270), (1, 20): (0.806, 0.876), (1, 60): (1.000, 0.989),
    (2, 8): (0.216, 0.370), (2, 20): (0.447, 0.447), (2, 60): (1.000, 0.992),
}
#: the one cell where per-arrival leads (the documented difference)
K0_8KB = (0, 8)


def _pooled_f1(engine, k, memory_kb, seeds, group_keys=False):
    """F1 over the seeds' pooled true positives, reports and instances;
    ``seeds`` holds one ``(windows, {k: oracle instances})`` per seed."""
    task = SimplexTask.paper_default(k)
    pooled = [0, 0, 0]
    for windows, truth in seeds:
        sketch = make_engine(
            XSketchConfig(task=task, memory_kb=memory_kb), seed=7, engine=engine
        )
        for window in windows:
            if group_keys:  # same multiset, each key's arrivals adjacent
                window = [item for item, n in Counter(window).items() for _ in range(n)]
            sketch.run_window(window)
        score = score_reports(sketch.reports, truth[k])
        pooled[0] += score.true_positives
        pooled[1] += score.reported
        pooled[2] += score.actual
    return ClassificationScores(*pooled).f1


@pytest.fixture(scope="module")
def seeds():
    runs = []
    for seed in (0, 1, 2):
        windows = [list(w) for w in make_dataset("ip_trace", 30, 3000, seed).windows()]
        truth = {
            k: SimplexOracle.from_stream(windows, SimplexTask.paper_default(k)).instances
            for k in (0, 1, 2)
        }
        runs.append((windows, truth))
    return runs


@pytest.fixture(scope="module")
def pooled_f1(seeds):
    return {
        (k, memory_kb): tuple(
            _pooled_f1(engine, k, memory_kb, seeds)
            for engine in ("xsketch", "vectorized")
        )
        for k, memory_kb in ORACLE_F1
    }


class TestEnginesAgainstOracle:
    def test_reproduces_documented_table(self, pooled_f1):
        for cell, expected in ORACLE_F1.items():
            assert pooled_f1[cell] == pytest.approx(expected, abs=5e-4), cell

    def test_vectorized_within_005_of_per_arrival(self, pooled_f1):
        for cell, (per_arrival, vectorized) in pooled_f1.items():
            if cell != K0_8KB:
                assert vectorized >= per_arrival - 0.05, (cell, pooled_f1[cell])

    def test_per_arrival_lead_at_k0_8kb_comes_from_interleaving(self, pooled_f1, seeds):
        """Per-arrival leads at k=0 / 8 KB only while a window's keys
        arrive interleaved: with each key's arrivals grouped, its F1
        falls to the vectorized engine's level."""
        per_arrival, vectorized = pooled_f1[K0_8KB]
        assert per_arrival - vectorized > 0.2, pooled_f1[K0_8KB]
        grouped = _pooled_f1("xsketch", *K0_8KB, seeds, group_keys=True)
        assert grouped == pytest.approx(0.050, abs=5e-4)
