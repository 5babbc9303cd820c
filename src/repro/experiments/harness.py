"""Shared machinery for running and tabulating experiments."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import XSketchConfig
from repro.core.baseline import BaselineConfig, BaselineSolution
from repro.core.oracle import SimplexOracle
from repro.errors import ConfigurationError
from repro.fitting.simplex import SimplexTask
from repro.metrics.classification import ClassificationScores, score_reports
from repro.metrics.error import lasting_time_are
from repro.streams.model import Trace

#: Algorithm names accepted by :func:`make_algorithm`.
ALGORITHMS = ("xs-cm", "xs-cu", "xs-vectorized", "baseline")


def make_algorithm(
    name: str,
    task: SimplexTask,
    memory_kb: float,
    seed: int = 0,
    stage1_structure: str = "tower",
    shards: int = 1,
    shard_backend: str = "process",
    engine: str = "xsketch",
    observability: bool = False,
    supervise: bool = True,
    auto_checkpoint_interval: int = 1,
    max_restarts: Optional[int] = None,
    shard_faults: Optional[Sequence] = None,
    **overrides,
):
    """Build an algorithm instance by name.

    ``xs-cm`` / ``xs-cu`` are the two X-Sketch variants; ``baseline`` is
    the Section III-A solution.  Extra keyword arguments land on the
    X-Sketch configuration (``s``, ``u``, ``r``, ``G``, ``d``, ...).

    ``shards > 1`` wraps an ``xs-cm`` / ``xs-cu`` configuration in the
    sharded runtime (:class:`repro.runtime.ShardedXSketch`); each shard
    gets the full ``memory_kb`` budget.  Remember to ``close()`` the
    returned coordinator when using the process backend.

    ``engine`` selects the ingest representation for ``xs-cm`` /
    ``xs-cu`` (``"xsketch"`` or ``"vectorized"``;
    :mod:`repro.core.engines`), single-process or sharded.  The
    ``xs-vectorized`` name is a CU-rule shorthand that already pins the
    engine, so pairing it (or ``baseline``) with a non-default
    ``engine`` is a configuration error, not a silent ignore.

    ``observability=True`` attaches a live ``repro.obs`` recorder
    (registry + trace ring) to the X-Sketch variants that support one
    (every engine and the sharded forms); the baseline runs
    uninstrumented either way.

    ``supervise`` / ``auto_checkpoint_interval`` / ``max_restarts`` /
    ``shard_faults`` configure the sharded runtime's self-healing and
    fault-injection layer (docs/RUNTIME.md, "Fault tolerance"); they
    only apply when ``shards > 1`` and are ignored otherwise.
    """

    def _recorder():
        if not observability:
            return None
        from repro.obs.recorder import Recorder
        from repro.obs.registry import MetricsRegistry
        from repro.obs.trace import TraceRing

        return Recorder(MetricsRegistry(), trace=TraceRing())

    if engine != "xsketch" and name not in ("xs-cm", "xs-cu"):
        raise ConfigurationError(
            f"engine={engine!r} applies to xs-cm / xs-cu only; "
            f"{name!r} already fixes its engine"
        )
    if shards > 1:
        from repro.runtime.sharded import ShardedXSketch

        if name not in ("xs-cm", "xs-cu"):
            raise ConfigurationError(
                f"sharding supports xs-cm / xs-cu, not {name!r}"
            )
        config = XSketchConfig(
            task=task, memory_kb=memory_kb, update_rule=name[3:],
            stage1_structure=stage1_structure, **overrides,
        )
        kwargs = dict(
            engine=engine,
            observability=observability,
            supervised=supervise,
            auto_checkpoint_interval=auto_checkpoint_interval,
            faults=shard_faults,
        )
        if max_restarts is not None:
            kwargs["max_restarts"] = max_restarts
        return ShardedXSketch(
            config, n_shards=shards, seed=seed, backend=shard_backend,
            **kwargs,
        )
    if name in ("xs-cm", "xs-cu"):
        from repro.core.engines import make_engine

        config = XSketchConfig(
            task=task, memory_kb=memory_kb, update_rule=name[3:],
            stage1_structure=stage1_structure, **overrides,
        )
        return make_engine(config, seed=seed, engine=engine, recorder=_recorder())
    if name == "xs-vectorized":
        from repro.core.vectorized import VectorizedXSketch

        config = XSketchConfig(
            task=task, memory_kb=memory_kb, update_rule="cu",
            stage1_structure=stage1_structure, **overrides,
        )
        return VectorizedXSketch(config, seed=seed, recorder=_recorder())
    if name == "baseline":
        return BaselineSolution(BaselineConfig(task=task, memory_kb=memory_kb), seed=seed)
    raise ConfigurationError(f"unknown algorithm {name!r}; expected one of {ALGORITHMS}")


class OracleCache:
    """Memoizes exact oracles per (trace, task) -- sweeps reuse them."""

    def __init__(self):
        self._cache: Dict[Tuple[int, SimplexTask], SimplexOracle] = {}

    def get(self, trace: Trace, task: SimplexTask) -> SimplexOracle:
        key = (id(trace), task)
        oracle = self._cache.get(key)
        if oracle is None:
            oracle = SimplexOracle.from_stream(trace.windows(), task)
            self._cache[key] = oracle
        return oracle


@dataclass(frozen=True)
class EvaluationResult:
    """One algorithm run scored against the oracle."""

    algorithm: str
    dataset: str
    k: int
    memory_label_kb: float
    scores: ClassificationScores
    are: float
    mops: float
    n_reports: int

    @property
    def f1(self) -> float:
        return self.scores.f1


def evaluate_algorithm(
    name: str,
    trace: Trace,
    task: SimplexTask,
    memory_kb: float,
    oracle: SimplexOracle,
    seed: int = 0,
    memory_label_kb: Optional[float] = None,
    **overrides,
) -> EvaluationResult:
    """Run one algorithm over one trace and score everything at once."""
    algorithm = make_algorithm(name, task, memory_kb, seed=seed, **overrides)
    start = time.perf_counter()
    for window in trace.windows():
        algorithm.run_window(window)
    elapsed = time.perf_counter() - start
    reports = algorithm.reports
    return EvaluationResult(
        algorithm=name,
        dataset=trace.name,
        k=task.k,
        memory_label_kb=memory_label_kb if memory_label_kb is not None else memory_kb,
        scores=score_reports(reports, oracle.instances),
        are=lasting_time_are(reports, oracle),
        mops=len(trace) / elapsed / 1e6 if elapsed > 0 else float("inf"),
        n_reports=len(reports),
    )


@dataclass
class SeriesTable:
    """A figure as data: an x-axis and one named series per curve.

    ``render()`` prints the same rows/series the paper's figure shows.
    """

    title: str
    x_label: str
    x_values: Sequence
    series: "Dict[str, List[float]]" = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add(self, name: str, values: Sequence[float]) -> None:
        values = list(values)
        if len(values) != len(self.x_values):
            raise ConfigurationError(
                f"series {name!r} has {len(values)} points, x-axis has {len(self.x_values)}"
            )
        self.series[name] = values

    def column(self, name: str) -> List[float]:
        return list(self.series[name])

    def render(self, precision: int = 3) -> str:
        """ASCII table: one row per x value, one column per series."""
        headers = [self.x_label] + list(self.series)
        rows = []
        for i, x in enumerate(self.x_values):
            row = [str(x)]
            for name in self.series:
                value = self.series[name][i]
                row.append(f"{value:.{precision}f}" if value == value else "nan")
            rows.append(row)
        widths = [max(len(h), *(len(r[j]) for r in rows)) for j, h in enumerate(headers)]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)
