"""Cold (on-disk) tier of the temporal store.

Layout mirrors the sharded checkpoint conventions of
:mod:`repro.runtime.checkpoint` (a directory with a ``manifest.json``
plus one self-describing JSON file per unit of state)::

    temporal/
        manifest.json            kind, format version, seed, policy
                                 spec, covered range, counters and the
                                 node index
        node-L00-W00000042.json  one ladder node's payload: frequency
        ...                      sketch counters, report records and
                                 (when retained) the as-of X-Sketch
                                 snapshot

Two uses share the format: *spill* (the hot tier writes old node
payloads here one at a time and reloads them on demand, bounding
resident memory) and *save/restore* (persist the whole ladder so a
store survives process restarts — :func:`save_store` /
:func:`restore_store`).  A spill directory without a manifest is valid
working state; the manifest is written by :func:`save_store`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.core.reports import report_from_dict, report_to_dict
from repro.errors import ConfigurationError
from repro.temporal.node import (
    LadderNode,
    restore_freq,
    snapshot_freq,
)
from repro.temporal.policy import TemporalPolicy

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 1
KIND = "temporal-ladder"


def node_filename(node: LadderNode) -> str:
    return f"node-L{node.level:02d}-W{node.start:08d}.json"


def _node_record(node: LadderNode, freq, reports, asof) -> Dict:
    return {
        "level": node.level,
        "start": node.start,
        "end": node.end,
        "items": node.items,
        "freq": snapshot_freq(freq) if freq is not None else None,
        "reports": [report_to_dict(report) for report in reports],
        "asof": asof,
    }


class ColdTier:
    """Spill/load node payloads under one directory (see module doc)."""

    def __init__(self, directory: Union[str, Path], policy: TemporalPolicy,
                 seed: int, hash_family: str = "crc"):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.policy = policy
        self.seed = seed
        self.hash_family = hash_family

    def path_of(self, node: LadderNode) -> Path:
        return self.directory / node_filename(node)

    def spill(self, node: LadderNode) -> Path:
        """Move ``node``'s payload to disk; the node becomes a stub.

        The file is complete before the in-memory payload is released,
        and ``spilled`` flips first, so a concurrent snapshot reader
        either sees the full hot payload or a loadable stub — never a
        half-empty node.
        """
        if node.spilled:
            return self.path_of(node)
        path = self.path_of(node)
        record = _node_record(node, node.freq, node.reports, node.asof)
        path.write_text(json.dumps(record))
        node.spilled = True
        node.freq = None
        node.reports = ()
        node.asof = None
        return path

    def load(self, node: LadderNode) -> Tuple[object, tuple, Optional[Dict]]:
        """Materialize a spilled node's payload: (freq, reports, asof)."""
        record = json.loads(self.path_of(node).read_text())
        freq = None
        if record["freq"] is not None:
            freq = restore_freq(
                record["freq"], self.policy, self.seed, self.hash_family
            )
        reports = tuple(
            report_from_dict(entry) for entry in record["reports"]
        )
        return freq, reports, record.get("asof")

    def discard(self, node: LadderNode) -> None:
        """Forget a retired node's file (after its parent absorbed it)."""
        if node.spilled:
            path = self.path_of(node)
            if path.exists():
                path.unlink()

    @property
    def bytes_on_disk(self) -> int:
        return sum(
            path.stat().st_size
            for path in self.directory.glob("node-*.json")
        )


def save_store(store, directory: Union[str, Path]) -> Path:
    """Persist a whole temporal store (ladder + counters) to disk."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    node_files = []
    for node in store.ladder.nodes:
        freq, reports = store.payload_of(node)
        asof = node.asof
        if asof is None and node.spilled:
            asof = store.cold.load(node)[2] if store.cold is not None else None
        filename = node_filename(node)
        record = _node_record(node, freq, reports, asof)
        (directory / filename).write_text(json.dumps(record))
        node_files.append(filename)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": KIND,
        "seed": store.seed,
        "hash_family": store.hash_family,
        "policy": store.policy.spec(),
        "base": store.ladder.base,
        "tip": store.ladder.tip,
        "windows_observed": store.windows_observed,
        "items_observed": store.items_observed,
        "coarsenings": store.ladder.coarsenings,
        "nodes": node_files,
    }
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
    return directory


def restore_store(directory: Union[str, Path], spill_dir: Optional[str] = None):
    """Rebuild a :class:`~repro.temporal.store.TemporalStore` from
    :func:`save_store` output (cold-tier round trip)."""
    from repro.temporal.store import TemporalStore

    directory = Path(directory)
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    if (
        manifest.get("format_version") != FORMAT_VERSION
        or manifest.get("kind") != KIND
    ):
        raise ConfigurationError(
            f"not a temporal-ladder save (format "
            f"{manifest.get('format_version')!r}, kind {manifest.get('kind')!r})"
        )
    policy = TemporalPolicy.from_spec(manifest["policy"], spill_dir=spill_dir)
    store = TemporalStore(
        policy, seed=manifest["seed"], hash_family=manifest["hash_family"]
    )
    for filename in manifest["nodes"]:
        record = json.loads((directory / filename).read_text())
        freq = None
        if record["freq"] is not None:
            freq = restore_freq(
                record["freq"], policy, store.seed, store.hash_family
            )
        node = LadderNode(
            record["level"],
            record["start"],
            items=record["items"],
            freq=freq,
            reports=tuple(
                report_from_dict(entry) for entry in record["reports"]
            ),
            asof=record.get("asof"),
        )
        store.ladder.nodes.append(node)
    # base/tip are derived from the node list; comparing them to the
    # manifest catches a truncated or reordered node set before the
    # store starts answering range queries from it
    if (
        store.ladder.base != manifest["base"]
        or store.ladder.tip != manifest["tip"]
    ):
        raise ConfigurationError(
            f"ladder span mismatch: manifest covers "
            f"[{manifest['base']}, {manifest['tip']}), rebuilt nodes cover "
            f"[{store.ladder.base}, {store.ladder.tip})"
        )
    store.windows_observed = manifest["windows_observed"]
    store.items_observed = manifest["items_observed"]
    store.ladder.coarsenings = manifest["coarsenings"]
    store.publish()
    return store
