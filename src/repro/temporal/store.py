"""The temporal store: Hokusai-style history over the sketch pipeline.

The store subscribes to the engine's window lifecycle:

``observe_counts(counts)``
    called from the ingest path (once per arrival batch, collapsed to
    ``(key, count)`` pairs); adds the counts to the open window's
    key -> count buffer, which holds one entry per distinct key of the
    window.  ``observe_items(items)`` collapses a raw batch first.
``on_window(window, reports, snapshot_fn=None)``
    called at each window boundary with that window's freshly merged
    simplex reports.  Hashes the buffer's keys once, in one batch, into
    a fresh frequency sketch, seals it into a level-0
    :class:`~repro.temporal.node.LadderNode`, optionally attaches a
    full merged X-Sketch snapshot (``snapshot_fn()``, kept on the most
    recent ``policy.fidelity_windows`` windows only), appends it to the
    dyadic ladder, spills payloads past the hot horizon, and publishes
    a fresh immutable :class:`TemporalSnapshot`.

Queries never touch mutable state: they run against the last published
snapshot, whose node tuple is frozen at publish time and whose nodes
are never mutated afterwards (coarsening builds *new* parents; the
spill handoff swaps whole attributes).  That makes reads safe from the
service's event loop while the engine thread keeps ingesting.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.compat import FrozenSlots
from repro.core.reports import SimplexReport, report_to_dict
from repro.core.serialize import restore_xsketch
from repro.core.xsketch import report_order
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.runtime.mergeable import merge_all
from repro.temporal.coldtier import ColdTier
from repro.temporal.ladder import DyadicLadder
from repro.temporal.node import LadderNode, make_freq_sketch, snapshot_freq
from repro.temporal.policy import TemporalPolicy

#: Buckets for the per-query covering-node fan-in histogram: the dyadic
#: composition bound is ``O(log W)``, so double-digit fan-in is already
#: a long history.
QUERY_NODE_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)


@dataclasses.dataclass(frozen=True)
class TemporalSnapshot(FrozenSlots):
    """Immutable published view of the ladder (lock-free query surface)."""

    __slots__ = ("window", "base", "tip", "nodes", "depth", "coarsenings",
                 "windows_observed", "items_observed")

    window: int                      #: next window id the store expects
    base: Optional[int]              #: first covered window (None: empty)
    tip: Optional[int]               #: one past the last covered window
    nodes: Tuple[LadderNode, ...]    #: ladder nodes, oldest first
    depth: int                       #: highest dyadic level present
    coarsenings: int
    windows_observed: int
    items_observed: int

    def covering(self, a: int, b: int) -> List[LadderNode]:
        return [node for node in self.nodes if node.overlaps(a, b)]


_EMPTY = TemporalSnapshot(
    window=0, base=None, tip=None, nodes=(), depth=-1,
    coarsenings=0, windows_observed=0, items_observed=0,
)


class TemporalStore:
    """Bounded-memory history of windows, reports and sketch snapshots."""

    def __init__(self, policy: Optional[TemporalPolicy] = None, *,
                 seed: int = 0, hash_family: str = "crc"):
        self.policy = policy if policy is not None else TemporalPolicy()
        self.seed = seed
        self.hash_family = hash_family
        self.ladder = DyadicLadder(self.policy)
        self.ladder.materialize = self.payload_of
        self.ladder.retire = self._retire
        self.cold: Optional[ColdTier] = None
        if self.policy.spill_dir is not None:
            self.cold = ColdTier(self.policy.spill_dir, self.policy, seed, hash_family)
        #: empty sketch every sealed window starts as a copy of
        self._blank = make_freq_sketch(self.policy, seed, hash_family)
        #: the open window's arrivals, key -> count
        self._open_counts: Dict = {}
        self._open_items = 0
        #: when True, each sealed window also leaves a JSON-safe wire
        #: delta behind (:mod:`repro.temporal.wire`) for the replica
        #: publisher; off by default so plain stores pay nothing
        self.capture_deltas = False
        self._pending_deltas: List[Dict] = []
        # lifetime counters (exposed by repro.obs.collect.collect_temporal)
        self.windows_observed = 0
        self.items_observed = 0
        self.spills = 0
        self.cold_loads = 0
        self.range_queries = 0
        #: always-on store registry: the per-query covering-node fan-in
        #: histogram (folded into /metrics by collect_temporal)
        self.metrics = MetricsRegistry()
        self._h_query_nodes = self.metrics.histogram(
            "temporal_query_nodes",
            "ladder nodes composed per temporal range query",
            buckets=QUERY_NODE_BUCKETS,
        )
        self._snapshot: TemporalSnapshot = _EMPTY

    # ------------------------------------------------------------------
    # ingest side (engine thread)

    def observe_items(self, items: Sequence) -> None:
        """Feed a batch of arrivals, collapsed to (key, count) pairs."""
        self.observe_counts(Counter(items))

    def observe_counts(self, counts: Mapping) -> None:
        """Buffer the open window's arrivals (ingest hot path).

        No hashing here: :meth:`on_window` hashes each distinct key of
        the window once.  CM addition commutes and saturates per
        counter, so the sealed node is the one the same arrivals fed
        one at a time would give.
        """
        buffer = self._open_counts
        if buffer:
            get = buffer.get
            for item, count in counts.items():
                buffer[item] = get(item, 0) + count
        else:
            self._open_counts = dict(counts)
        arrivals = sum(counts.values())
        self._open_items += arrivals
        self.items_observed += arrivals

    def on_window(
        self,
        window: int,
        reports: Sequence[SimplexReport],
        snapshot_fn: Optional[Callable[[], Dict]] = None,
    ) -> None:
        """Seal window ``window`` into the ladder and republish.

        ``snapshot_fn`` lazily produces the full merged X-Sketch
        snapshot; it is only invoked while the window is inside the
        fidelity horizon (``policy.fidelity_windows``), so deep
        time-travel costs nothing once disabled.
        """
        tip = self.ladder.tip
        if tip is not None and window != tip:
            raise ConfigurationError(
                f"temporal store expected window {tip}, got {window}"
            )
        freq = self._blank.copy()
        freq.ingest_counts(self._open_counts)
        items = self._open_items
        self._open_counts = {}
        self._open_items = 0
        kept = (
            tuple(sorted(reports, key=report_order))
            if self.policy.track_reports else ()
        )
        asof = None
        if snapshot_fn is not None and self.policy.fidelity_windows > 0:
            asof = snapshot_fn()
        if self.capture_deltas:
            # Captured before the ladder touches the node: coarsening
            # copies payloads but a spill hands them away, and the wire
            # delta must carry exactly what this boundary sealed.
            self._pending_deltas.append({
                "window": window,
                "items": items,
                "freq": snapshot_freq(freq),
                "reports": [report_to_dict(report) for report in kept],
            })
        node = LadderNode(0, window, items=items, freq=freq,
                          reports=kept, asof=asof)
        self.ladder.append(node)
        self.windows_observed += 1
        self._age_fidelity(window)
        self._spill_excess()
        self.publish()

    def _age_fidelity(self, window: int) -> None:
        """Drop as-of snapshots that fell out of the fidelity horizon."""
        horizon = window - self.policy.fidelity_windows + 1
        for node in self.ladder.nodes:
            if node.asof is not None and node.end - 1 < horizon:
                node.asof = None

    def _spill_excess(self) -> None:
        """Push the oldest hot payloads to the cold tier past the cap."""
        if self.cold is None:
            return
        hot = [node for node in self.ladder.nodes if not node.spilled]
        excess = len(hot) - self.policy.hot_payloads
        for node in hot[:max(excess, 0)]:
            self.cold.spill(node)
            self.spills += 1

    def take_deltas(self) -> List[Dict]:
        """Drain the wire deltas captured since the last call.

        One record per sealed window (``capture_deltas`` on), in seal
        order; see :func:`repro.temporal.wire.apply_window_delta` for
        the consuming side.
        """
        deltas, self._pending_deltas = self._pending_deltas, []
        return deltas

    def publish(self) -> TemporalSnapshot:
        """Freeze the current ladder into the query surface."""
        self._snapshot = TemporalSnapshot(
            window=self.ladder.tip if self.ladder.tip is not None else 0,
            base=self.ladder.base,
            tip=self.ladder.tip,
            nodes=tuple(self.ladder.nodes),
            depth=self.ladder.depth,
            coarsenings=self.ladder.coarsenings,
            windows_observed=self.windows_observed,
            items_observed=self.items_observed,
        )
        return self._snapshot

    # ------------------------------------------------------------------
    # payload plumbing (hot/cold transparent)

    def payload_of(self, node: LadderNode) -> Tuple[object, tuple]:
        """``(freq, reports)`` of a node, loading from cold when spilled."""
        if not node.spilled:
            return node.freq, node.reports
        if self.cold is None:
            raise ConfigurationError(
                "node is spilled but the store has no cold tier"
            )
        freq, reports, _ = self.cold.load(node)
        self.cold_loads += 1
        return freq, reports

    def _retire(self, node: LadderNode) -> None:
        if self.cold is not None:
            self.cold.discard(node)

    # ------------------------------------------------------------------
    # query side (any thread; reads the published snapshot only)

    @property
    def snapshot(self) -> TemporalSnapshot:
        return self._snapshot

    def _covering(self, a: int, b: int) -> List[LadderNode]:
        nodes = self.snapshot.covering(a, b)
        self.range_queries += 1
        self._h_query_nodes.observe(len(nodes))
        return nodes

    def range_reports(self, a: int, b: int) -> List[SimplexReport]:
        """Exact simplex reports of windows ``[a, b]`` (inclusive)."""
        from repro.temporal.query import compose_reports

        nodes = self._covering(a, b)
        selected = []
        for node in nodes:
            _, reports = self.payload_of(node)
            selected.extend(
                report for report in reports
                if a <= report.report_window <= b
            )
        selected.sort(key=report_order)
        return selected

    def range_sketch(self, a: int, b: int):
        """One frequency sketch covering ``[a, b]`` (``merge_all`` over
        the dyadic cover; see :mod:`repro.temporal.query` for bounds)."""
        nodes = self._covering(a, b)
        sketches = []
        for node in nodes:
            freq, _ = self.payload_of(node)
            if freq is not None:
                sketches.append(freq)
        if not sketches:
            return None
        return merge_all(sketches[0].copy(), *sketches[1:])

    def range_frequency(self, item, a: int, b: int) -> int:
        """Estimated arrivals of ``item`` during windows ``[a, b]``."""
        merged = self.range_sketch(a, b)
        return int(merged.query(item)) if merged is not None else 0

    def was_simplex(self, item, a: int, b: int, k: Optional[int] = None) -> bool:
        """Was ``item`` reported ``k``-simplex during ``[a, b]``?

        ``k=None`` accepts any order.  Matching is on the item's string
        form, the service/CLI currency.
        """
        wanted = str(item)
        for report in self.range_reports(a, b):
            if str(report.item) != wanted:
                continue
            if k is None or len(report.coefficients) - 1 == k:
                return True
        return False

    def top_growth(self, a: int, b: int, top: int = 10):
        """The ``top`` steepest items in ``[a, b]`` by fitted slope."""
        from repro.temporal.query import rank_growth

        return rank_growth(self.range_reports(a, b), top)

    def sketch_asof(self, window: int, seed: int = 0):
        """The full merged X-Sketch as of the newest retained snapshot
        at or before ``window`` (None outside the fidelity horizon).

        Returns ``(window, sketch)`` — the snapshot's actual window may
        be earlier than asked when that boundary's fidelity is gone.
        """
        best = None
        for node in self.snapshot.nodes:
            if node.asof is None or node.end - 1 > window:
                continue
            if best is None or node.end > best.end:
                best = node
        if best is None:
            return None
        return best.end - 1, restore_xsketch(best.asof, seed=seed)

    def history(self) -> List[Dict]:
        """JSON-safe ladder layout rows (``/history`` and the CLI)."""
        return [node.describe() for node in self.snapshot.nodes]

    # ------------------------------------------------------------------
    # accounting

    @property
    def memory_bytes(self) -> float:
        # the open window counts as the sketch it seals into
        open_bytes = self._blank.memory_bytes if self._open_counts else 0.0
        return self.ladder.memory_bytes + open_bytes

    def save(self, directory) -> None:
        """Persist the whole store (see :func:`repro.temporal.coldtier.save_store`)."""
        from repro.temporal.coldtier import save_store

        save_store(self, directory)
