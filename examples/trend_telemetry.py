#!/usr/bin/env python
"""Operational trend telemetry from one X-Sketch pass.

Every window, the aggregator turns the sketch's simplex reports into
the data a monitoring dashboard polls: active pattern count, churn, and
the fastest-rising / fastest-falling flows.  During the planted DDoS
ramp the rising leaderboard is taken over by attack flows.

Run:  python examples/trend_telemetry.py
(REPRO_SMOKE=1 shrinks the stream for the examples smoke test.)
"""

import os

from repro.apps import TelemetryAggregator
from repro.config import XSketchConfig
from repro.core import VectorizedXSketch
from repro.fitting.simplex import SimplexTask
from repro.ml import extract_features, feature_matrix
from repro.streams import ddos_stream

SMOKE = os.environ.get("REPRO_SMOKE") == "1"


def main() -> None:
    trace, scenario = ddos_stream(
        n_windows=20 if SMOKE else 50,
        window_size=400 if SMOKE else 2000,
        n_attackers=4 if SMOKE else 8,
        onset_window=6 if SMOKE else 15,
        duration=10 if SMOKE else 25,
        seed=13,
    )
    task = SimplexTask.paper_default(1)
    sketch = VectorizedXSketch(XSketchConfig(task=task, memory_kb=40.0), seed=13)

    aggregator = TelemetryAggregator(top_n=3)
    aggregator.run(sketch, trace)

    print(f"{'win':>4} {'act':>4} {'churn':>5}  top rising (slope)")
    for summary in aggregator.history:
        if not summary.top_rising and not summary.started and not summary.ended:
            continue
        board = ", ".join(f"{item} ({slope:+.1f})" for item, slope in summary.top_rising)
        print(f"{summary.window:>4} {summary.active:>4} {summary.churn:>5}  {board}")

    print(f"\ntotal churn: {aggregator.total_churn()} pattern starts/endings; "
          f"attack flows: {len(scenario.attack_items)} from window {scenario.onset_window}")

    # Section I-A use case: the slopes become ML features.
    rows = extract_features(sketch.reports, p=task.p)
    matrix = feature_matrix(rows, columns=("slope", "lasting_time", "next_prediction"))
    attack_rows = [row for row in rows if str(row.item).startswith("attack-")]
    print(f"feature matrix: {len(matrix)} rows x 3 columns "
          f"({len(attack_rows)} rows from attack flows); sample:")
    for row in attack_rows[:3]:
        print(f"  {row.item}: {row.as_dict()}")


if __name__ == "__main__":
    main()
