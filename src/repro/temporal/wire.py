"""Wire serialization of the temporal ladder (replica streaming).

The replica tier (docs/REPLICA.md) mirrors the primary's dyadic ladder
so range queries scale out.  Two currencies make that work, both
JSON-safe and framed by :mod:`repro.service.protocol`:

window deltas
    One record per sealed window — the level-0 payload exactly as the
    boundary produced it (arrival count, frequency-sketch counters,
    report records).  :func:`apply_window_delta` replays it through the
    replica store's ladder.  Because :class:`~repro.temporal.ladder.
    DyadicLadder` coarsening is a deterministic function of the policy
    and the level-0 append sequence, a replica fed the same deltas holds
    the *same node layout* as the primary — which is what makes replica
    range answers identical, not merely equivalent.

full ladder state
    The whole ladder at one boundary (policy spec, seed, counters and
    every node's payload via the cold-tier record shape).  Backs the
    SNAPSHOT full-sync fallback when a subscriber is too far behind the
    retained delta history.  As-of X-Sketch snapshots are deliberately
    dropped — the replica is the *slim* half of the SF-sketch split.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.reports import report_from_dict, report_to_dict
from repro.errors import ConfigurationError
from repro.temporal.node import (
    LadderNode,
    make_freq_sketch,
    restore_freq,
    snapshot_freq,
)
from repro.temporal.policy import TemporalPolicy
from repro.temporal.store import TemporalStore

#: bumped when either wire currency changes shape
WIRE_VERSION = 1


def apply_window_delta(store: TemporalStore, record: Dict) -> None:
    """Seal one wire delta into a replica store's ladder.

    The replica twin of :meth:`~repro.temporal.store.TemporalStore.
    on_window`: same tip check, same level-0 append (which coarsens and
    spills deterministically), same counter bookkeeping, same publish.
    As-of payloads never ride deltas, so fidelity aging is moot.
    """
    window = record["window"]
    tip = store.ladder.tip
    if tip is not None and window != tip:
        raise ConfigurationError(
            f"replica ladder expected window {tip}, got delta for {window}"
        )
    if record.get("freq") is not None:
        freq = restore_freq(
            record["freq"], store.policy, store.seed, store.hash_family
        )
    else:
        freq = make_freq_sketch(store.policy, store.seed, store.hash_family)
    reports = tuple(report_from_dict(r) for r in record["reports"])
    node = LadderNode(0, window, items=record["items"], freq=freq,
                      reports=reports)
    store.ladder.append(node)
    store.windows_observed += 1
    store.items_observed += record["items"]
    store._spill_excess()
    store.publish()


def export_ladder_state(store: TemporalStore, snapshot=None) -> Dict:
    """The full ladder as one JSON-safe wire payload (SNAPSHOT frames).

    Reads a *published* snapshot — ``snapshot`` when given (the
    publisher pins one per boundary so a full sync built mid-window
    still matches the sequence it claims), else the store's latest — so
    it is safe to call while the engine thread keeps sealing windows;
    spilled payloads are reloaded through the store's cold tier.
    """
    if snapshot is None:
        snapshot = store.snapshot
    nodes = []
    for node in snapshot.nodes:
        freq, reports = store.payload_of(node)
        nodes.append({
            "level": node.level,
            "start": node.start,
            "items": node.items,
            "freq": snapshot_freq(freq) if freq is not None else None,
            "reports": [report_to_dict(report) for report in reports],
        })
    return {
        "version": WIRE_VERSION,
        "policy": store.policy.spec(),
        "seed": store.seed,
        "hash_family": store.hash_family,
        "coarsenings": snapshot.coarsenings,
        "windows_observed": snapshot.windows_observed,
        "items_observed": snapshot.items_observed,
        "nodes": nodes,
    }


def import_ladder_state(state: Dict) -> TemporalStore:
    """A fresh replica store holding :func:`export_ladder_state` output.

    Nodes are installed verbatim (already coarsened exactly as on the
    primary) and the coarsening counter is carried over, so subsequent
    :func:`apply_window_delta` calls keep the replica in lock-step.
    The replica keeps everything hot — no spill directory, no as-of
    payloads.
    """
    if state.get("version") != WIRE_VERSION:
        raise ConfigurationError(
            f"unsupported ladder wire version {state.get('version')!r} "
            f"(this build speaks {WIRE_VERSION})"
        )
    policy = TemporalPolicy.from_spec(state["policy"])
    store = TemporalStore(
        policy, seed=state["seed"], hash_family=state["hash_family"]
    )
    for record in state["nodes"]:
        freq = None
        if record.get("freq") is not None:
            freq = restore_freq(
                record["freq"], policy, store.seed, store.hash_family
            )
        node = LadderNode(
            record["level"], record["start"],
            items=record["items"],
            freq=freq,
            reports=tuple(
                report_from_dict(r) for r in record["reports"]
            ),
        )
        store.ladder.nodes.append(node)
    store.ladder.coarsenings = state["coarsenings"]
    store.windows_observed = state["windows_observed"]
    store.items_observed = state["items_observed"]
    store.publish()
    return store


def snapshot_range_reports(snapshot, a: int, b: int) -> List:
    """Exact reports of windows ``[a, b]`` from a pinned snapshot.

    The replica twin of :meth:`~repro.temporal.store.TemporalStore.
    range_reports`, reading one immutable
    :class:`~repro.temporal.store.TemporalSnapshot` instead of the
    store's latest — which is what sequence pinning means: a query keeps
    answering from the snapshot it started with while newer deltas land.
    Replica nodes are never spilled, so payloads read directly.
    """
    from repro.core.xsketch import report_order

    selected = []
    for node in snapshot.covering(a, b):
        selected.extend(
            report for report in node.reports
            if a <= report.report_window <= b
        )
    selected.sort(key=report_order)
    return selected
