"""Invalid and undocumented literal metric names (lint fixture, never
executed; linted by ``metric-surface``)."""


def register_metrics(registry):
    registry.counter("bad metric name", "spaces violate the grammar")  # EXPECT: metric-surface
    registry.gauge("repro_lint_fixture_undocumented_gauge", "absent from the doc")  # EXPECT: metric-surface
