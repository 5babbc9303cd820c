"""Shard-aware checkpointing of the sharded runtime.

Checkpoint layout (a directory)::

    checkpoint/
        manifest.json     runtime-level state: format version, shard
                          count, seed, window, partitioner spec and the
                          coordinator's routing counters
        shard-00.json     per-shard X-Sketch snapshot
        shard-01.json     (repro.core.serialize format, tagged with its
        ...                shard id and the partitioner spec)

Each shard file is a complete, self-describing
:func:`repro.core.serialize.snapshot_xsketch` snapshot, so a single
shard can also be restored on its own with
:func:`repro.core.serialize.restore_xsketch` (e.g. to inspect or to
compact: restoring every shard and :func:`repro.runtime.mergeable.merge_all`-ing
them yields the single-process equivalent sketch).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.core.engines import VARIANT_TO_ENGINE
from repro.core.reports import report_from_dict
from repro.core.xsketch import report_order
from repro.errors import ConfigurationError
from repro.runtime.partition import KeyPartitioner

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 1


def _shard_filename(shard_id: int) -> str:
    return f"shard-{shard_id:02d}.json"


def save_sharded_checkpoint(sharded, directory: Union[str, Path]) -> Path:
    """Write ``sharded``'s full state under ``directory`` (created if needed).

    Must be called at a window boundary (right after ``flush_window``);
    a non-empty insert buffer is working state, not sketch state.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    snapshots = sharded._collect_snapshots()
    shard_files = []
    for shard_id, snapshot in enumerate(snapshots):
        snapshot = dict(snapshot)
        snapshot["shard"] = {
            "shard_id": shard_id,
            "partitioner": sharded.partitioner.spec(),
        }
        filename = _shard_filename(shard_id)
        (directory / filename).write_text(json.dumps(snapshot))
        shard_files.append(filename)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "sharded-xsketch",
        "n_shards": sharded.n_shards,
        "engine": sharded.engine,
        "seed": sharded.seed,
        "window": sharded.window,
        "partitioner": sharded.partitioner.spec(),
        "items_routed": list(sharded.items_routed),
        "batches_sent": list(sharded.batches_sent),
        "shards": shard_files,
    }
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
    return directory


def load_sharded_checkpoint(
    directory: Union[str, Path],
    backend: str = "process",
    **kwargs,
):
    """Rebuild a :class:`ShardedXSketch` from a checkpoint directory.

    ``backend`` and extra keyword arguments (``mp_context``,
    ``batch_size``, ...) configure the new runtime; sketch state, the
    window counter, routing counters and the report stream come from
    the checkpoint.  A manifest naming the deleted ``batched`` engine
    maps through :data:`~repro.core.engines.VARIANT_TO_ENGINE` and
    restores as vectorized, like its shard snapshots.
    """
    from repro.fitting.simplex import SimplexTask
    from repro.config import XSketchConfig
    from repro.runtime.sharded import ShardedXSketch

    directory = Path(directory)
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    if manifest.get("format_version") != FORMAT_VERSION or manifest.get("kind") != "sharded-xsketch":
        raise ConfigurationError(
            f"not a sharded-xsketch checkpoint (format "
            f"{manifest.get('format_version')!r}, kind {manifest.get('kind')!r})"
        )
    snapshots = [
        json.loads((directory / filename).read_text())
        for filename in manifest["shards"]
    ]
    if len(snapshots) != manifest["n_shards"]:
        raise ConfigurationError(
            f"manifest lists {manifest['n_shards']} shards, found {len(snapshots)}"
        )
    task = SimplexTask(**snapshots[0]["task"])
    config = XSketchConfig(task=task, **snapshots[0]["config"])
    partitioner = KeyPartitioner.from_spec(manifest["partitioner"])
    engine = manifest.get("engine", "xsketch")
    sharded = ShardedXSketch(
        config,
        n_shards=manifest["n_shards"],
        seed=manifest["seed"],
        backend=backend,
        snapshots=snapshots,
        engine=VARIANT_TO_ENGINE.get(engine, engine),
        **kwargs,
    )
    sharded.partitioner = partitioner
    sharded.window = manifest["window"]
    sharded.items_routed = list(manifest["items_routed"])
    sharded.batches_sent = list(manifest["batches_sent"])
    # The coordinator's merged report stream is the union of the shard
    # streams; rebuild it rather than persisting it twice.
    reports = [
        report_from_dict(record)
        for snapshot in snapshots
        for record in snapshot["reports"]
    ]
    sharded._reports = sorted(reports, key=report_order)
    return sharded
