"""Property tests: every structure honors its memory budget.

Memory efficiency is the paper's central claim, so the accounting must
be airtight: for any admissible configuration, the accounted bytes of
the built structure may never exceed the requested budget (plus at most
one allocation quantum of slack where rounding is documented).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import XSketchConfig
from repro.core.baseline import BaselineConfig, BaselineSolution
from repro.core.vectorized import VectorizedXSketch
from repro.core.xsketch import XSketch
from repro.fitting.simplex import SimplexTask
from repro.sketch.cm import CMSketch
from repro.sketch.coldfilter import ColdFilter
from repro.sketch.count import CountSketch
from repro.sketch.csm import CSMSketch
from repro.sketch.cu import CUSketch
from repro.sketch.elastic import ElasticSketch
from repro.sketch.loglogfilter import LogLogFilter
from repro.sketch.mv import MVSketch
from repro.sketch.pyramid import PyramidSketch
from repro.sketch.tower import TowerSketch
from repro.sketch.windowed import make_windowed_filter

SINGLE_WINDOW_SKETCHES = [
    CMSketch,
    CUSketch,
    CountSketch,
    CSMSketch,
    TowerSketch,
    ColdFilter,
    LogLogFilter,
    PyramidSketch,
    MVSketch,
    ElasticSketch,
]


class TestSingleWindowSketchBudgets:
    @pytest.mark.parametrize("sketch_cls", SINGLE_WINDOW_SKETCHES)
    @pytest.mark.parametrize("memory_bytes", [1500, 4096, 65536])
    def test_within_budget(self, sketch_cls, memory_bytes):
        sketch = sketch_cls(memory_bytes, seed=1)
        assert sketch.memory_bytes <= memory_bytes


class TestWindowedFilterBudgets:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["tower", "cm", "cu", "cold", "loglog"]),
        st.integers(min_value=4000, max_value=200000),
        st.integers(min_value=1, max_value=8),
    )
    def test_within_budget(self, structure, memory_bytes, s):
        wf = make_windowed_filter(structure, memory_bytes, s=s, seed=1)
        assert wf.memory_bytes <= memory_bytes


class TestAlgorithmBudgets:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2),
        st.floats(min_value=5.0, max_value=500.0),
        st.floats(min_value=0.2, max_value=0.9),
        st.integers(min_value=1, max_value=8),
    )
    def test_xsketch_engines_within_budget(self, k, memory_kb, r, u):
        task = SimplexTask.paper_default(k)
        config = XSketchConfig(task=task, memory_kb=memory_kb, r=r, u=u)
        # one bucket of rounding slack: stage2_buckets floors, but tiny
        # budgets guarantee the minimum single bucket
        slack = config.u * config.stage2_cell_bytes
        for engine in (XSketch, VectorizedXSketch):
            sketch = engine(config, seed=1)
            assert sketch.memory_bytes <= memory_kb * 1024 + slack

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=5.0, max_value=500.0))
    def test_baseline_within_budget(self, memory_kb):
        config = BaselineConfig(task=SimplexTask.paper_default(1), memory_kb=memory_kb)
        baseline = BaselineSolution(config, seed=1)
        # set/table capacities use minimum-1 floors at tiny budgets
        slack = 16
        assert baseline.memory_bytes <= memory_kb * 1024 + slack
