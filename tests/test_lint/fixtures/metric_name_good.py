"""Valid, documented literal metric registrations (linted by
``metric-surface``)."""


def register_metrics(registry):
    registry.counter(
        "xsketch_windows_total",
        "windows closed by the sketch",
    )
    registry.counter(
        "xsketch_stage1_promotions_total",
        "promotions (Potential reached G)",
    )
