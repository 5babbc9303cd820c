"""Per-window phase profiler: where does a window boundary spend time?

The profiler is a thin facade over one labeled histogram family,
``pipeline_phase_seconds{phase=...}`` — each pipeline layer observes
the wall time of its phases (ingest, window close, shard dispatch,
merge, temporal append, publish, replica apply) into its own registry,
and the existing additive collection folds them into one ``/metrics``
view and the ``repro stats --phases`` table.

Observations are per *window boundary* (or per wire batch), never per
arrival, so the profiler is cheap enough to stay always-on where a
registry already exists (the window manager, the sharded coordinator).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List

from repro.obs.registry import DURATION_BUCKETS, Histogram, MetricsRegistry

__all__ = [
    "PHASE_METRIC",
    "PHASE_NAMES",
    "PhaseProfiler",
    "phase_rows",
    "phase_rows_from_samples",
    "phase_table",
]

#: the one histogram family every layer's profiler feeds
PHASE_METRIC = "pipeline_phase_seconds"

#: every phase label the pipeline observes — the catalog the
#: ``surface-drift`` contract rule checks profiler call sites and the
#: docs/OBSERVABILITY.md phase table against; add the label here (and
#: to the doc table) before observing a new phase
PHASE_NAMES = (
    "checkpoint",
    "dispatch",
    "flush",
    "ingest",
    "merge",
    "publish",
    "shard",
    "snapshot",
    "temporal",
    "window",
)

_HELP = "wall seconds spent per pipeline phase"


class PhaseProfiler:
    """Labeled-histogram writer for one layer's phases."""

    __slots__ = ("registry", "_phases")

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._phases: Dict[str, Histogram] = {}

    def observe(self, phase: str, seconds: float) -> None:
        histogram = self._phases.get(phase)
        if histogram is None:
            histogram = self.registry.histogram(
                "pipeline_phase_seconds", _HELP,
                buckets=DURATION_BUCKETS, labels={"phase": phase},
            )
            self._phases[phase] = histogram
        histogram.observe(seconds)

    @contextmanager
    def phase(self, name: str):
        """Time a block: ``with profiler.phase("merge"): ...``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)


def phase_rows(registry: MetricsRegistry) -> List[dict]:
    """Phase breakdown rows from a (merged) registry, sorted by total
    time descending: ``{phase, count, total, mean, p50, p99}``."""
    rows = []
    for instrument in registry:
        if instrument.name != PHASE_METRIC or not isinstance(instrument, Histogram):
            continue
        labels = dict(instrument.labels)
        count = instrument.count
        cumulative = list(zip(instrument.bounds, instrument.cumulative()))
        rows.append({
            "phase": labels.get("phase", "?"),
            "count": count,
            "total": round(instrument.sum, 6),
            "mean": round(instrument.sum / count, 6) if count else 0.0,
            "p50": _quantile_from_cumulative(count, cumulative, 0.50),
            "p99": _quantile_from_cumulative(count, cumulative, 0.99),
        })
    rows.sort(key=lambda row: row["total"], reverse=True)
    return rows


def _quantile_from_cumulative(count: float, cumulative, q: float) -> float:
    """Nearest-bucket-bound quantile estimate from ``(bound, cumulative
    count)`` pairs; past the last finite bound it reads ``inf``."""
    if count == 0:
        return 0.0
    rank = q * count
    for bound, cum in cumulative:
        if cum >= rank:
            return bound
    return float("inf")


def phase_rows_from_samples(samples: Dict[str, float]) -> List[dict]:
    """:func:`phase_rows`, but over exposition samples scraped from a
    live service (``repro stats --port``: ``parse_text`` output)."""
    from repro.obs.expo import parse_labels

    totals: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    buckets: Dict[str, List] = {}
    for key, value in samples.items():
        name, labels = parse_labels(key)
        phase = labels.get("phase")
        if phase is None:
            continue
        if name == PHASE_METRIC + "_sum":
            totals[phase] = value
        elif name == PHASE_METRIC + "_count":
            counts[phase] = value
        elif name == PHASE_METRIC + "_bucket":
            buckets.setdefault(phase, []).append((float(labels["le"]), value))
    rows = []
    for phase, count in counts.items():
        cumulative = sorted(buckets.get(phase, ()))
        total = totals.get(phase, 0.0)
        rows.append({
            "phase": phase,
            "count": int(count),
            "total": round(total, 6),
            "mean": round(total / count, 6) if count else 0.0,
            "p50": _quantile_from_cumulative(count, cumulative, 0.50),
            "p99": _quantile_from_cumulative(count, cumulative, 0.99),
        })
    rows.sort(key=lambda row: row["total"], reverse=True)
    return rows


def phase_table(source) -> str:
    """The ``repro stats --phases`` rendering: pass a
    :class:`MetricsRegistry` or a ``parse_text`` samples dict."""
    if isinstance(source, dict):
        rows = phase_rows_from_samples(source)
    else:
        rows = phase_rows(source)
    if not rows:
        return "no phase timings recorded (pipeline_phase_seconds is empty)"
    header = f"{'phase':<16} {'count':>8} {'total_s':>10} {'mean_s':>10} {'p50_s':>9} {'p99_s':>9}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['phase']:<16} {row['count']:>8} {row['total']:>10.4f} "
            f"{row['mean']:>10.6f} {row['p50']:>9.4f} {row['p99']:>9.4f}"
        )
    grand = sum(row["total"] for row in rows)
    lines.append(f"{'(sum)':<16} {'':>8} {grand:>10.4f}")
    return "\n".join(lines)
