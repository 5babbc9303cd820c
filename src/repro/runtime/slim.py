"""Slim frequency summary of a merged X-Sketch (the SF-sketch split).

The replica tier never needs the *fat* half of the sketch — the Stage-1
admission counters and hash state that only the write path exercises.
What read queries want is the slim half: which items Stage 2 currently
tracks, how long each has lasted, and its per-window frequency ring.
``slim_summary`` extracts exactly that from a single-process
:class:`~repro.core.xsketch.XSketch` (typically the sharded runtime's
``merged_sketch()``), as a JSON-safe dict the publisher ships in every
DELTA/SNAPSHOT frame (docs/REPLICA.md).

Determinism: the tracked list is sorted by the item's string form — the
same canonical key the report stream uses — so two summaries of equal
engine state are equal objects, wire-byte for wire-byte.  The summary
carries no decision counters: they are not sketch state, so a compaction
rebuilt from shard snapshots (the process backend) would report zeros
where one folded from live shards (inline) reports sums.
"""

from __future__ import annotations

from typing import Dict


def slim_summary(sketch) -> Dict:
    """The slim read-side summary of one merged :class:`XSketch`.

    The ring read (``frequencies_ending_at``) and the weight use the
    sketch's own current window, mirroring
    :meth:`~repro.core.xsketch.XSketch.query_tracked_frequencies`.
    """
    window = sketch.window
    tracked = []
    for bucket in sketch.stage2.buckets:
        for cell in bucket:
            tracked.append({
                "item": str(cell.item),
                "w_str": cell.w_str,
                "weight": cell.weight(window),
                "frequencies": cell.frequencies_ending_at(window),
            })
    tracked.sort(key=lambda entry: entry["item"])
    return {
        "window": window,
        "tracked": tracked,
        "tracked_items": len(tracked),
        "memory_bytes": sketch.memory_bytes,
    }
