"""Frequency-estimation sketches.

Everything the paper relies on or compares against, implemented from
scratch on the shared :class:`CounterArray` / :class:`HashFamily`
substrates:

* simple sketches -- CM [23], CU [37], Count [38], CSM [39];
* TowerSketch [26] with both CM- and CU-style updates and overflow
  (saturation) semantics, the structure of X-Sketch's Stage 1;
* numpy batch twins of CM and the windowed tower, for the vectorized
  engine and the temporal tier;
* Cold Filter [40] and LogLog Filter [41], the Figure-9 competitors;
* the advanced related-work estimators PyramidSketch [44],
  MV-Sketch [45] and ElasticSketch [46];
* windowed variants of all Stage-1 candidates, where every logical
  counter carries ``s`` per-window sub-counters (Section III-D1).
"""

from repro.sketch.counters import CounterArray
from repro.sketch.base import FrequencySketch
from repro.sketch.cm import CMSketch
from repro.sketch.cu import CUSketch
from repro.sketch.count import CountSketch
from repro.sketch.csm import CSMSketch
from repro.sketch.tower import TowerSketch, tower_level_widths
from repro.sketch.coldfilter import ColdFilter
from repro.sketch.loglogfilter import LogLogFilter
from repro.sketch.pyramid import PyramidSketch
from repro.sketch.mv import MVSketch
from repro.sketch.elastic import ElasticSketch
from repro.sketch.spacesaving import SpaceSaving
from repro.sketch.vectorized_cm import VectorizedCM
from repro.sketch.vectorized_tower import VectorizedTower
from repro.sketch.windowed import (
    WINDOWED_STRUCTURES,
    WindowedColdFilter,
    WindowedCM,
    WindowedCU,
    WindowedFilter,
    WindowedLogLog,
    WindowedTower,
    make_windowed_filter,
)

__all__ = [
    "CMSketch",
    "CSMSketch",
    "CUSketch",
    "ColdFilter",
    "CountSketch",
    "CounterArray",
    "ElasticSketch",
    "FrequencySketch",
    "LogLogFilter",
    "MVSketch",
    "PyramidSketch",
    "SpaceSaving",
    "TowerSketch",
    "VectorizedCM",
    "VectorizedTower",
    "WINDOWED_STRUCTURES",
    "WindowedCM",
    "WindowedCU",
    "WindowedColdFilter",
    "WindowedFilter",
    "WindowedLogLog",
    "WindowedTower",
    "make_windowed_filter",
    "tower_level_widths",
]
