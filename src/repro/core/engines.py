"""Engine registry: the two ingest representations behind one name.

The runtime and service layers select *how* a shard processes its
stream independently of *what* it computes: the per-arrival
:class:`~repro.core.xsketch.XSketch` (the paper's Algorithm 1, the
reference) or the numpy :class:`~repro.core.vectorized.VectorizedXSketch`
(the production engine).  Both speak the same stream protocol
(``insert`` / ``ingest_batch`` / ``end_window`` / ``run_window`` /
``reports`` / ``stats`` / ``merge`` / snapshot support), so workers,
the service ``WindowManager``, the supervision respawn path and
``merged_sketch()`` compaction work with either.  The vectorized
engine also takes ``(key, count)`` pairs through ``ingest_counts``.
See docs/RUNTIME.md ("Engine selection") for both engines' measured
speed and accuracy against the exact oracle.
"""

from __future__ import annotations

import random

from repro.config import XSketchConfig
from repro.errors import ConfigurationError
from repro.hashing.family import HashFamily

#: Selectable runtime engines, in the order they appear in docs.
ENGINE_NAMES = ("xsketch", "vectorized")

#: Engine that rebuilds each snapshot ``variant`` tag.  ``batched``
#: names the deleted dict-batched engine; its snapshots share the
#: vectorized geometry and restore as vectorized.
VARIANT_TO_ENGINE = {
    "per-arrival": "xsketch",
    "batched": "vectorized",
    "vectorized": "vectorized",
}


def validate_engine(engine: str, config: XSketchConfig = None) -> str:
    """Check an engine name (and its config compatibility) early.

    Raises :class:`ConfigurationError` on an unknown name, or when the
    vectorized engine is paired with a non-tower Stage-1 structure --
    the same error the engine constructor would raise, surfaced before
    any worker process is spawned.
    """
    if engine not in ENGINE_NAMES:
        known = ", ".join(ENGINE_NAMES)
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of: {known}"
        )
    if (
        engine == "vectorized"
        and config is not None
        and config.stage1_structure != "tower"
    ):
        raise ConfigurationError(
            "the vectorized engine implements the paper's tower Stage 1 only; "
            f"got stage1_structure={config.stage1_structure!r}"
        )
    return engine


def make_engine(
    config: XSketchConfig,
    seed: int = 0,
    engine: str = "xsketch",
    family: HashFamily = None,
    rng: random.Random = None,
    recorder=None,
):
    """Build one engine instance by name (default: per-arrival)."""
    validate_engine(engine, config)
    if engine == "xsketch":
        from repro.core.xsketch import XSketch

        return XSketch(config, seed=seed, family=family, rng=rng, recorder=recorder)
    from repro.core.vectorized import VectorizedXSketch

    return VectorizedXSketch(config, seed=seed, family=family, rng=rng, recorder=recorder)
