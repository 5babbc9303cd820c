"""Numpy-backed windowed TowerSketch for the vectorized engine.

Semantically the CM-rule :class:`~repro.sketch.windowed.WindowedTower`
(same level widths, same saturation-as-overflow reads), but counters
live in numpy matrices of shape ``(n_logical, s)`` and every operation
takes a *batch* of items: bulk updates via ``np.add.at`` and batched
s-window queries as fancy-indexed gathers.  Saturating batch adds equal
sequential saturating adds (add-then-clip), so results match the scalar
structure exactly under the CM rule; the CU rule is approximated
order-independently (documented on :meth:`bulk_insert`).

Position hashing is batched too, through the family's
:meth:`~repro.hashing.family.HashFamily.hash_rows`: for the default
``crc`` family one C-speed ``zlib.crc32`` call per item plus a
vectorized seed fold / finalization / modulo per level, bit-identical
to the scalar ``hash32``; other families loop per item.  Computed rows
are memoized in a bounded LRU cache (:attr:`DEFAULT_POS_CACHE_CAPACITY`
items by default); hit/miss/eviction counts surface as the
``vectorized_hash_cache_*`` metrics via :meth:`cache_info`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, MergeError
from repro.hashing.family import HashFamily, ItemId, make_family
from repro.sketch.tower import tower_level_widths

#: Sentinel larger than any counter value, used to mask overflow reads.
_BIG = np.int64(1) << 40

#: Default bound on the position cache (distinct items memoized).  At
#: ``d=3`` a full cache is ~a few MB of tuples -- bounded working
#: storage, not sketch state, so it is not part of ``memory_bytes``.
DEFAULT_POS_CACHE_CAPACITY = 65536


class VectorizedTower:
    """Batch-oriented windowed tower.

    Args:
        memory_bytes: budget, split equally over ``d`` levels of
            ``2**(i+1)``-bit counters with ``s`` sub-counters each.
        s: sub-counters (recent windows) per logical counter.
        d: number of levels / hash functions.
        update_rule: ``"cm"`` (exact) or ``"cu"`` (order-independent
            approximation).
        pos_cache_capacity: bound on the memoized position rows; least
            recently used entries are evicted past it (0 disables
            caching entirely).
    """

    def __init__(
        self,
        memory_bytes: int,
        s: int,
        d: int = 3,
        update_rule: str = "cm",
        family: HashFamily = None,
        seed: int = 0,
        hash_family: str = "crc",
        pos_cache_capacity: int = DEFAULT_POS_CACHE_CAPACITY,
    ):
        if s <= 0:
            raise ConfigurationError(f"s must be positive, got {s}")
        if update_rule not in ("cm", "cu"):
            raise ConfigurationError(f"update_rule must be 'cm' or 'cu', got {update_rule!r}")
        if pos_cache_capacity < 0:
            raise ConfigurationError(
                f"pos_cache_capacity must be >= 0, got {pos_cache_capacity}"
            )
        self.s = s
        self.d = d
        self.update_rule = update_rule
        self.family = family if family is not None else make_family(hash_family, seed)
        per_level = memory_bytes / d
        self.levels: List[np.ndarray] = []
        self.max_values: List[int] = []
        self.level_counters: List[int] = []
        for bits in tower_level_widths(d):
            n_logical = int(per_level * 8 // (bits * s))
            if n_logical <= 0:
                raise ConfigurationError(
                    f"memory_bytes={memory_bytes} too small for a vectorized tower with s={s}"
                )
            self.levels.append(np.zeros((n_logical, s), dtype=np.int64))
            self.max_values.append((1 << bits) - 1)
            self.level_counters.append(n_logical)
        self.pos_cache_capacity = pos_cache_capacity
        self._pos_cache: Dict[ItemId, Tuple[int, ...]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    # ------------------------------------------------------------------
    # position hashing

    def positions(self, items: Sequence[ItemId]) -> np.ndarray:
        """Hash positions per level for a batch of items: ``(n, d)``."""
        n = len(items)
        out = np.empty((n, self.d), dtype=np.int64)
        if n == 0:
            return out
        cache = self._pos_cache
        capacity = self.pos_cache_capacity
        miss_items: List[ItemId] = []
        miss_rows: List[int] = []
        hits = 0
        for row, item in enumerate(items):
            cached = cache.get(item)
            if cached is None:
                miss_items.append(item)
                miss_rows.append(row)
            else:
                out[row] = cached
                # refresh recency so hot items survive eviction (LRU)
                cache[item] = cache.pop(item)
                hits += 1
        self.cache_hits += hits
        self.cache_misses += len(miss_items)
        if miss_items:
            hashed = self.family.hash_rows(miss_items, self.level_counters)
            out[miss_rows] = hashed
            if capacity > 0:
                for item, row in zip(miss_items, hashed.tolist()):
                    cache[item] = tuple(row)
                overflow = len(cache) - capacity
                if overflow > 0:
                    iterator = iter(cache)
                    for key in [next(iterator) for _ in range(overflow)]:
                        del cache[key]
                    self.cache_evictions += overflow
        return out

    def cache_info(self) -> Dict[str, int]:
        """Position-cache effectiveness counters (metrics source)."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "evictions": self.cache_evictions,
            "size": len(self._pos_cache),
            "capacity": self.pos_cache_capacity,
        }

    # ------------------------------------------------------------------
    # counter updates and queries

    def bulk_insert(self, positions: np.ndarray, counts: np.ndarray, slot: int) -> None:
        """Add ``counts[j]`` to item ``j``'s counters in ``slot``.

        CM: exact -- colliding contributions accumulate and then clip,
        identical to sequential saturating adds.  CU: each item raises
        its minimal unsaturated levels to ``min + count`` using
        ``np.maximum.at``; when distinct items share a counter within
        one batch this keeps the largest single target rather than
        compounding them, i.e. a slightly *more* conservative update
        than sequential CU (never below it for the items' own reads).
        """
        if positions.shape[0] == 0:
            return
        if self.update_rule == "cm":
            for index, (level, max_value) in enumerate(zip(self.levels, self.max_values)):
                np.add.at(level[:, slot], positions[:, index], counts)
                np.minimum(level[:, slot], max_value, out=level[:, slot])
            return
        readings = self._gather_slot(positions, slot)  # (n, d), overflow -> _BIG
        minima = readings.min(axis=1)
        targets = np.minimum(minima + counts, _BIG)
        for index, (level, max_value) in enumerate(zip(self.levels, self.max_values)):
            capped = np.minimum(targets, max_value)
            # only raise unsaturated counters that sit below the target
            mask = readings[:, index] < capped
            if mask.any():
                np.maximum.at(
                    level[:, slot], positions[mask, index], capped[mask]
                )

    def _gather_slot(self, positions: np.ndarray, slot: int) -> np.ndarray:
        """Per-level readings at ``slot`` with overflow masked to _BIG."""
        columns = []
        for index, (level, max_value) in enumerate(zip(self.levels, self.max_values)):
            values = level[positions[:, index], slot]
            columns.append(np.where(values >= max_value, _BIG, values))
        return np.stack(columns, axis=1)

    def query_recent(self, positions: np.ndarray, slots: Sequence[int]) -> np.ndarray:
        """Estimates for each item over ``slots``: shape ``(n, len(slots))``.

        Tower read per (item, slot): min over unsaturated levels; if all
        levels overflow, the largest cap (matches the scalar structure).
        """
        n = positions.shape[0]
        estimates = np.empty((n, len(slots)), dtype=np.int64)
        if n == 0:
            return estimates
        largest_cap = max(self.max_values)
        for column, slot in enumerate(slots):
            readings = self._gather_slot(positions, slot)
            minima = readings.min(axis=1)
            estimates[:, column] = np.where(minima >= _BIG, largest_cap, minima)
        return estimates

    def clear_slot(self, slot: int) -> None:
        for level in self.levels:
            level[:, slot] = 0

    def merge(self, other: "VectorizedTower") -> "VectorizedTower":
        """Saturating counter-wise add of every sub-counter.

        Same semantics as :meth:`repro.sketch.counters.CounterArray.merge`
        (``min(a + b, max_value)``): exact for the CM rule barring
        saturation, an upper bound for CU, and overflow markers on
        either side stay pinned at the marker.  Requires identical
        geometry (s, d, level widths) and hash seed so counters align.
        """
        if type(self) is not type(other):
            raise MergeError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}"
            )
        if self.s != other.s or self.d != other.d:
            raise MergeError(
                f"tower geometry differs: s={self.s}/d={self.d} vs "
                f"s={other.s}/d={other.d}"
            )
        if self.update_rule != other.update_rule:
            raise MergeError(
                f"update rules differ: {self.update_rule} vs {other.update_rule}"
            )
        if self.level_counters != other.level_counters:
            raise MergeError("vectorized-tower level geometries differ")
        if self.family.seed != other.family.seed:
            raise MergeError(
                f"hash seeds differ ({self.family.seed} vs {other.family.seed}); "
                "counters would not align"
            )
        for level, theirs, max_value in zip(self.levels, other.levels, self.max_values):
            np.minimum(level + theirs, max_value, out=level)
        return self

    @property
    def memory_bytes(self) -> float:
        bits = tower_level_widths(self.d)
        return sum(n * self.s * b for n, b in zip(self.level_counters, bits)) / 8.0
