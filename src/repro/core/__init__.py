"""X-Sketch and its reference points.

* :class:`XSketch` -- the paper's contribution (Section III-D): Stage 1
  (Short-Term Filtering + Potential) feeding Stage 2 (Weight Election).
* :class:`BaselineSolution` -- Section III-A's combination of ``p`` CM
  sketches, a candidate set and a lasting-time hash table.
* :class:`SimplexOracle` -- exact ground truth computed from true
  per-window counts, used for PR/RR/F1/ARE evaluation.
"""

from repro.core.reports import SimplexReport
from repro.core.multik import MultiKConfig, MultiKXSketch
from repro.core.vectorized import VectorizedXSketch
from repro.core.stage1 import Promotion, Stage1
from repro.core.stage2 import Stage2, Stage2Cell
from repro.core.xsketch import XSketch
from repro.core.baseline import BaselineConfig, BaselineSolution
from repro.core.oracle import SimplexOracle
from repro.core.serialize import (
    load_xsketch,
    restore_xsketch,
    save_xsketch,
    snapshot_xsketch,
)

__all__ = [
    "BaselineConfig",
    "BaselineSolution",
    "MultiKConfig",
    "MultiKXSketch",
    "Promotion",
    "SimplexOracle",
    "SimplexReport",
    "Stage1",
    "Stage2",
    "Stage2Cell",
    "VectorizedXSketch",
    "XSketch",
    "load_xsketch",
    "restore_xsketch",
    "save_xsketch",
    "snapshot_xsketch",
]
