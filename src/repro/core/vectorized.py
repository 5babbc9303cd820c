"""Vectorized X-Sketch: numpy-batched Stage 1 at stream rate.

The production engine beside the per-arrival reference
:class:`XSketch`.  It buffers one window's arrivals as (key, count)
pairs and makes every per-item decision once per window, on complete
counts; every Stage-1 step is a numpy batch operation over the
window's distinct untracked items:

1. position gather for the whole batch (cached per item),
2. one ``np.add.at`` bulk counter update per level,
3. one fancy-indexed gather for the ``s``-window estimates,
4. one matrix multiply against the cached pseudo-inverse for all fits,
5. one vectorized Potential comparison to select promotions.

Stage 2 is unchanged (it touches only the few tracked/promoted items).

The whole window batch is counted *before* any query, so every item's
estimate sees the complete window even under intra-window counter
collisions.  Under no collisions it agrees with the per-arrival
engine, and the exact-oracle equivalence property holds here too
(``tests/test_core/test_vectorized.py``); under collisions both are
scored against the oracle (``tests/test_engine_accuracy.py``).  The CU
rule uses the tower's order-independent bulk approximation (see
:meth:`repro.sketch.vectorized_tower.VectorizedTower.bulk_insert`).
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Mapping

import numpy as np

from repro.config import XSketchConfig
from repro.core.reports import SimplexReport
from repro.core.stage1 import Promotion
from repro.core.stage2 import Stage2
from repro.core.xsketch import XSketchStats, report_order
from repro.errors import ConfigurationError, MergeError
from repro.fitting.design import pseudo_inverse, residual_projector
from repro.hashing.family import HashFamily, ItemId, make_family
from repro.sketch.vectorized_tower import VectorizedTower


class VectorizedXSketch:
    """Numpy-batched X-Sketch (tower Stage-1 structure only).

    Exposes the same stream protocol as the other engines.
    """

    def __init__(
        self,
        config: XSketchConfig,
        seed: int = 0,
        family: HashFamily = None,
        rng: random.Random = None,
        recorder=None,
    ):
        if config.stage1_structure != "tower":
            raise ConfigurationError(
                "the vectorized engine implements the paper's tower Stage 1 only; "
                f"got stage1_structure={config.stage1_structure!r}"
            )
        self.config = config
        shared_family = family if family is not None else make_family(config.hash_family, seed)
        shared_rng = rng if rng is not None else random.Random(seed)
        from repro.obs.recorder import NULL_RECORDER

        # The numpy hot path runs uninstrumented; the recorder still
        # reaches Stage 2 (the few tracked/promoted items) and keeps the
        # engine drop-in for recorder-carrying construction sites.
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.tower = VectorizedTower(
            memory_bytes=config.stage1_bytes,
            s=config.s,
            d=config.d,
            update_rule=config.update_rule,
            family=shared_family,
            seed=seed,
            hash_family=config.hash_family,
        )
        self.stage2 = Stage2(
            config, family=shared_family, seed=seed, rng=shared_rng,
            recorder=self.recorder,
        )
        self.window = 0
        self._reports: List[SimplexReport] = []
        self._buffer: Dict[ItemId, int] = {}
        # cached fitting operators for the s-window short fit
        k = config.task.k
        self._pinv_leading = np.asarray(pseudo_inverse(config.s, k)[k])
        self._projector_t = residual_projector(config.s, k).T
        # stats
        self._stage1_arrivals = 0
        self._stage1_fits = 0
        self._promotions = 0

    def insert(self, item: ItemId) -> None:
        """Buffer one arrival."""
        self.ingest_counts({item: 1})

    def ingest_batch(self, items) -> None:
        """Buffer a batch of arrivals, collapsed to (key, count) pairs."""
        self.ingest_counts(Counter(items))

    def ingest_counts(self, counts: Mapping[ItemId, int]) -> None:
        """Buffer (key, count) pairs (the runtime/service hot path).

        Keys keep their first-arrival order in the buffer, which fixes
        the order :meth:`end_window` walks it in, so feeding a stream's
        first-arrival-ordered counts in any chunking leaves the buffer
        exactly as feeding its arrivals one at a time.
        """
        buffer = self._buffer
        get = buffer.get
        for item, count in counts.items():
            buffer[item] = get(item, 0) + count

    def end_window(self) -> List[SimplexReport]:
        """Flush the buffer through the batched Stage-1/Stage-2 pipeline."""
        window = self.window
        config = self.config
        s = config.s
        p = config.task.p
        slot_p = window % p
        stage2 = self.stage2

        untracked_items: List[ItemId] = []
        untracked_counts: List[int] = []
        for item, count in self._buffer.items():
            cell = stage2.lookup(item)
            if cell is not None:
                cell.counts[slot_p] += count
            else:
                untracked_items.append(item)
                untracked_counts.append(count)
        self._buffer = {}

        if untracked_items:
            counts = np.asarray(untracked_counts, dtype=np.int64)
            self._stage1_arrivals += int(counts.sum())
            positions = self.tower.positions(untracked_items)
            self.tower.bulk_insert(positions, counts, window % s)
            if window >= s - 1:
                slots = [(window - s + 1 + j) % s for j in range(s)]
                estimates = self.tower.query_recent(positions, slots)
                positive = (estimates > 0).all(axis=1)
                if positive.any():
                    spans = estimates[positive].astype(np.float64)
                    self._stage1_fits += spans.shape[0]
                    leading = spans @ self._pinv_leading
                    residuals = spans @ self._projector_t
                    mse = np.mean(residuals * residuals, axis=1)
                    lam = np.abs(leading) / (mse + config.delta)
                    chosen = lam >= config.G
                    if chosen.any():
                        candidate_indices = np.nonzero(positive)[0][chosen]
                        lams = lam[chosen]
                        for index, potential_value in zip(candidate_indices, lams):
                            item = untracked_items[int(index)]
                            promotion = Promotion(
                                item=item,
                                frequencies=tuple(int(v) for v in estimates[int(index)]),
                                w_str=window - s + 1,
                                potential=float(potential_value),
                            )
                            self._promotions += 1
                            stage2.try_insert(promotion, window)

        reports = stage2.end_window(window)
        self.tower.clear_slot((window + 1) % s)
        self._reports.extend(reports)
        self.window += 1
        return reports

    def run_window(self, items) -> List[SimplexReport]:
        """Convenience: buffer a whole window of arrivals, then close it."""
        self.ingest_batch(items)
        return self.end_window()

    @property
    def reports(self) -> List[SimplexReport]:
        return list(self._reports)

    def merge(self, other: "VectorizedXSketch") -> "VectorizedXSketch":
        """Fold another vectorized sketch into this one.

        The sharded runtime's compaction / re-shard path.  Requirements
        mirror :meth:`repro.core.xsketch.XSketch.merge`: identical
        configuration, identical hash seed, both paused at the same
        window boundary (empty arrival buffers).  The tower merges
        counter-wise saturating, Stage 2 by weight election, and the
        report streams interleave in canonical report order.
        """
        if not isinstance(other, VectorizedXSketch):
            raise MergeError(
                f"cannot merge VectorizedXSketch with {type(other).__name__}"
            )
        if self.config != other.config:
            raise MergeError("cannot merge vectorized sketches with different configurations")
        if self.window != other.window:
            raise MergeError(
                f"cannot merge vectorized sketches at different windows "
                f"({self.window} vs {other.window}); merge at a window boundary"
            )
        if self._buffer or other._buffer:
            raise MergeError(
                "merge only at a window boundary (arrival buffer not empty)"
            )
        self.tower.merge(other.tower)
        self.stage2.merge(other.stage2, self.window)
        self._stage1_arrivals += other._stage1_arrivals
        self._stage1_fits += other._stage1_fits
        self._promotions += other._promotions
        self._reports = sorted(self._reports + other._reports, key=report_order)
        return self

    @property
    def memory_bytes(self) -> float:
        return self.tower.memory_bytes + self.stage2.memory_bytes

    def metrics_registry(self, registry=None):
        """Canonical metrics view (same catalog as :class:`XSketch`).

        The vectorized engine runs uninstrumented (no recorder hook on
        its numpy hot path); only the decision counters are exported.
        """
        from repro.obs.collect import collect_xsketch

        return collect_xsketch(self, registry)

    @property
    def stats(self) -> XSketchStats:
        return XSketchStats(
            windows=self.window,
            stage1_arrivals=self._stage1_arrivals,
            stage1_fits=self._stage1_fits,
            promotions=self._promotions,
            stage2_tracked=len(self.stage2),
            inserts_empty=self.stage2.inserts_empty,
            replacements_won=self.stage2.replacements_won,
            replacements_lost=self.stage2.replacements_lost,
            evictions_zero=self.stage2.evictions_zero,
            reports=len(self._reports),
        )
