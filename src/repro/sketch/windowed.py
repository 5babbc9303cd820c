"""Windowed filter structures for Stage 1.

Section III-D1: every logical counter of the Stage-1 structure carries
``s`` *sub-counters*, one per recent window; the sub-counter for the
current window is selected by ``w % s``.  This module provides that
windowed layout for each structure the paper evaluates as a Stage-1
candidate (Figure 9): TowerSketch (CM and CU update rules), plain CM/CU,
Cold Filter and LogLog Filter, all behind one interface so
:class:`repro.core.stage1.Stage1` can swap them.

Memory accounting counts ``s`` sub-counters per logical counter, so a
structure given ``memory_bytes`` at ``s=4`` holds a quarter of the logical
counters it would at ``s=1``.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, MergeError
from repro.hashing.family import HashFamily, ItemId, make_family
from repro.obs.recorder import NULL_RECORDER
from repro.sketch.counters import CounterArray
from repro.sketch.tower import tower_level_widths


class WindowedFilter(abc.ABC):
    """A frequency filter whose counters have ``s`` per-window sub-counters."""

    def __init__(self, s: int, family: HashFamily = None, seed: int = 0, hash_family: str = "crc"):
        if s <= 0:
            raise ConfigurationError(f"s must be positive, got {s}")
        self.s = s
        self.family = family if family is not None else make_family(hash_family, seed)
        # Simulation accelerator: items repeat heavily in real streams, so
        # hash positions are memoized.  This only caches pure hash values --
        # results are identical with the cache disabled.
        self._pos_cache: Dict[ItemId, Tuple[int, ...]] = {}

    @abc.abstractmethod
    def insert(self, item: ItemId, slot: int) -> None:
        """Record one arrival of ``item`` in window slot ``slot``."""

    @abc.abstractmethod
    def query_slot(self, item: ItemId, slot: int) -> int:
        """Estimated frequency of ``item`` in window slot ``slot``."""

    def query_slots(self, item: ItemId, slots: Sequence[int]) -> List[int]:
        """Estimated frequencies across several slots (oldest first)."""
        return [self.query_slot(item, slot) for slot in slots]

    def query_slots_positive(self, item: ItemId, slots: Sequence[int]) -> Optional[List[int]]:
        """Like :meth:`query_slots` but returns None at the first zero.

        The Preliminary Condition rejects any span containing a zero
        frequency, so callers on the per-arrival hot path use this to
        skip the remaining reads (results are identical to calling
        :meth:`query_slots` and checking for zeros).
        """
        frequencies: List[int] = []
        for slot in slots:
            frequency = self.query_slot(item, slot)
            if frequency == 0:
                return None
            frequencies.append(frequency)
        return frequencies

    @abc.abstractmethod
    def clear_slot(self, slot: int) -> None:
        """Zero every sub-counter of window slot ``slot``."""

    def clear(self) -> None:
        """Zero the whole structure."""
        for slot in range(self.s):
            self.clear_slot(slot)

    def merge(self, other: "WindowedFilter") -> "WindowedFilter":
        """Fold ``other``'s sub-counters into this filter.

        Concrete structures override this; the default refuses, so a
        structure without well-defined merge semantics fails loudly.
        """
        raise MergeError(f"{type(self).__name__} does not support merge()")

    def _check_merge_peer(self, other: "WindowedFilter") -> None:
        """Common merge-compatibility checks (type, s, hash seed)."""
        if type(self) is not type(other):
            raise MergeError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}"
            )
        if self.s != other.s:
            raise MergeError(f"s differs: {self.s} vs {other.s}")
        if self.family.seed != other.family.seed:
            raise MergeError(
                f"hash seeds differ ({self.family.seed} vs {other.family.seed}); "
                "counters would not align"
            )

    @property
    @abc.abstractmethod
    def memory_bytes(self) -> float:
        """Accounted memory of the counter storage."""

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.s:
            raise ConfigurationError(f"slot must be in [0, {self.s}), got {slot}")


class _WindowedArrays(WindowedFilter):
    """Shared machinery: ``d`` arrays of logical counters x ``s`` sub-counters.

    Each level is one flat :class:`CounterArray`; logical counter ``pos``
    owns entries ``pos * s + slot``.  Covers tower and flat CM/CU layouts
    via the per-level width list and the update rule.
    """

    def __init__(
        self,
        memory_bytes: int,
        s: int,
        level_bits: Sequence[int],
        update_rule: str = "cm",
        family: HashFamily = None,
        seed: int = 0,
        hash_family: str = "crc",
        recorder=None,
    ):
        super().__init__(s=s, family=family, seed=seed, hash_family=hash_family)
        if update_rule not in ("cm", "cu"):
            raise ConfigurationError(f"update_rule must be 'cm' or 'cu', got {update_rule!r}")
        self.update_rule = update_rule
        recorder = recorder if recorder is not None else NULL_RECORDER
        # With the no-op recorder _obs is None and the insert paths take
        # their original unobserved branches (zero added work per arrival).
        self._obs = recorder if recorder.enabled else None
        self._c_overflow = recorder.counter(
            "tower_overflow_total",
            "tower counters that crossed into their overflow marker",
        )
        self.d = len(level_bits)
        per_level = memory_bytes / self.d
        self.levels: List[CounterArray] = []
        self.level_counters: List[int] = []
        for bits in level_bits:
            n_logical = int(per_level * 8 // (bits * s))
            if n_logical <= 0:
                raise ConfigurationError(
                    f"memory_bytes={memory_bytes} too small for {self.d} windowed arrays"
                    f" of {bits}-bit counters with s={s}"
                )
            self.levels.append(CounterArray(n_logical * s, bits))
            self.level_counters.append(n_logical)

    def _positions(self, item: ItemId) -> Tuple[int, ...]:
        cached = self._pos_cache.get(item)
        if cached is None:
            family = self.family
            cached = tuple(
                family.hash32(item, i) % self.level_counters[i] for i in range(self.d)
            )
            self._pos_cache[item] = cached
        return cached

    def saturated_counters(self) -> int:
        """Sub-counters at their overflow marker (observability scan)."""
        return sum(
            1
            for level in self.levels
            for value in level.values
            if value == level.max_value
        )

    def insert(self, item: ItemId, slot: int) -> None:
        self._check_slot(slot)
        positions = self._positions(item)
        s = self.s
        if self.update_rule == "cm":
            if self._obs is not None:
                for level, pos in zip(self.levels, positions):
                    index = pos * s + slot
                    before = level.values[index]
                    level.increment(index, 1)
                    if before != level.max_value and level.values[index] == level.max_value:
                        self._c_overflow.inc()
                return
            for level, pos in zip(self.levels, positions):
                level.increment(pos * s + slot, 1)
            return
        # CU rule, with tower overflow semantics: saturated counters are
        # overflow markers -- they neither participate in the minimum nor
        # advance (a saturated small counter must not pin the minimum
        # below the live larger counters).
        readings = []
        minimum = None
        for level, pos in zip(self.levels, positions):
            index = pos * s + slot
            value = level.values[index]
            if value == level.max_value:
                continue
            readings.append((level, index, value))
            if minimum is None or value < minimum:
                minimum = value
        for level, index, value in readings:
            if value == minimum:
                if value + 1 >= level.max_value and self._obs is not None:
                    self._c_overflow.inc()
                level.increment(index, 1)

    def query_slot(self, item: ItemId, slot: int) -> int:
        self._check_slot(slot)
        positions = self._positions(item)
        s = self.s
        best = None
        largest_cap = 0
        for level, pos in zip(self.levels, positions):
            value = level.values[pos * s + slot]
            if value == level.max_value:
                if value > largest_cap:
                    largest_cap = value
                continue
            if best is None or value < best:
                best = value
        return best if best is not None else largest_cap

    def query_slots_positive(self, item: ItemId, slots: Sequence[int]) -> Optional[List[int]]:
        positions = self._positions(item)
        s = self.s
        level_data = [(level.values, level.max_value, pos * s) for level, pos in zip(self.levels, positions)]
        frequencies: List[int] = []
        for slot in slots:
            best = None
            largest_cap = 0
            for values, max_value, base in level_data:
                value = values[base + slot]
                if value == max_value:
                    if value > largest_cap:
                        largest_cap = value
                    continue
                if best is None or value < best:
                    best = value
            frequency = best if best is not None else largest_cap
            if frequency == 0:
                return None
            frequencies.append(frequency)
        return frequencies

    def clear_slot(self, slot: int) -> None:
        self._check_slot(slot)
        s = self.s
        for level in self.levels:
            level.clear_stride(slot, s)

    def merge(self, other: "WindowedFilter") -> "WindowedFilter":
        """Saturating counter-wise add of every sub-counter.

        Exact for the CM update rule (merged sub-counters equal a single
        filter over the concatenated stream, barring saturation); an
        upper bound for the CU rule — either way merged per-slot queries
        never under-report, which is what the Preliminary Condition and
        Potential gate rely on.
        """
        self._check_merge_peer(other)
        if self.update_rule != other.update_rule or self.level_counters != other.level_counters:
            raise MergeError("windowed-array geometries or update rules differ")
        for mine, theirs in zip(self.levels, other.levels):
            mine.merge(theirs)
        return self

    @property
    def memory_bytes(self) -> float:
        return sum(level.memory_bytes for level in self.levels)


class WindowedTower(_WindowedArrays):
    """Windowed TowerSketch -- the paper's Stage-1 structure.

    Level ``i`` (1-based) uses ``2**(i+1)``-bit counters with equal memory
    per level, as in Section III-D1 and Figure 2.
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
        recorder=None,
    ):
        super().__init__(
            memory_bytes=memory_bytes,
            s=s,
            level_bits=tower_level_widths(d),
            update_rule=update_rule,
            family=family,
            seed=seed,
            hash_family=hash_family,
            recorder=recorder,
        )


class WindowedCM(_WindowedArrays):
    """Windowed plain CM sketch (uniform 32-bit counters)."""

    def __init__(
        self,
        memory_bytes: int,
        s: int,
        d: int = 3,
        family: HashFamily = None,
        seed: int = 0,
        hash_family: str = "crc",
        recorder=None,
    ):
        super().__init__(
            memory_bytes=memory_bytes,
            s=s,
            level_bits=[32] * d,
            update_rule="cm",
            family=family,
            seed=seed,
            hash_family=hash_family,
            recorder=recorder,
        )


class WindowedCU(_WindowedArrays):
    """Windowed plain CU sketch (uniform 32-bit counters)."""

    def __init__(
        self,
        memory_bytes: int,
        s: int,
        d: int = 3,
        family: HashFamily = None,
        seed: int = 0,
        hash_family: str = "crc",
        recorder=None,
    ):
        super().__init__(
            memory_bytes=memory_bytes,
            s=s,
            level_bits=[32] * d,
            update_rule="cu",
            family=family,
            seed=seed,
            hash_family=hash_family,
            recorder=recorder,
        )


class WindowedColdFilter(WindowedFilter):
    """Windowed Cold Filter: per-slot two-layer conservative update."""

    def __init__(
        self,
        memory_bytes: int,
        s: int,
        d: int = 3,
        bits1: int = 4,
        bits2: int = 16,
        layer1_fraction: float = 0.5,
        family: HashFamily = None,
        seed: int = 0,
        hash_family: str = "crc",
    ):
        super().__init__(s=s, family=family, seed=seed, hash_family=hash_family)
        bytes1 = memory_bytes * layer1_fraction
        bytes2 = memory_bytes - bytes1
        n1 = int(bytes1 / d * 8 // (bits1 * s))
        n2 = int(bytes2 / d * 8 // (bits2 * s))
        if n1 <= 0 or n2 <= 0:
            raise ConfigurationError(
                f"memory_bytes={memory_bytes} too small for a windowed Cold Filter with s={s}"
            )
        self.d = d
        self.n1, self.n2 = n1, n2
        self.layer1 = [CounterArray(n1 * s, bits1) for _ in range(d)]
        self.layer2 = [CounterArray(n2 * s, bits2) for _ in range(d)]
        self.threshold = (1 << bits1) - 1

    def _positions(self, item: ItemId) -> Tuple[int, ...]:
        cached = self._pos_cache.get(item)
        if cached is None:
            family = self.family
            layer1 = tuple(family.hash32(item, i) % self.n1 for i in range(self.d))
            layer2 = tuple(family.hash32(item, self.d + i) % self.n2 for i in range(self.d))
            cached = layer1 + layer2
            self._pos_cache[item] = cached
        return cached

    @staticmethod
    def _cu_increment(mapped) -> None:
        minimum = min(array.get(index) for array, index in mapped)
        for array, index in mapped:
            if array.get(index) == minimum:
                array.increment(index, 1)

    def insert(self, item: ItemId, slot: int) -> None:
        self._check_slot(slot)
        positions = self._positions(item)
        s = self.s
        mapped1 = [
            (self.layer1[i], positions[i] * s + slot) for i in range(self.d)
        ]
        min1 = min(array.get(index) for array, index in mapped1)
        if min1 < self.threshold:
            self._cu_increment(mapped1)
            return
        mapped2 = [
            (self.layer2[i], positions[self.d + i] * s + slot) for i in range(self.d)
        ]
        self._cu_increment(mapped2)

    def query_slot(self, item: ItemId, slot: int) -> int:
        self._check_slot(slot)
        positions = self._positions(item)
        s = self.s
        min1 = min(self.layer1[i].get(positions[i] * s + slot) for i in range(self.d))
        if min1 < self.threshold:
            return min1
        min2 = min(
            self.layer2[i].get(positions[self.d + i] * s + slot) for i in range(self.d)
        )
        return self.threshold + min2

    def merge(self, other: "WindowedFilter") -> "WindowedFilter":
        """Saturating add of both layers.

        Bounded rather than one-sided: mass absorbed by layer 1 on
        *both* sides collapses into a single saturating layer-1 counter,
        so a merged query can sit below the true count by up to the
        layer-1 threshold per merged peer.  It is never below either
        side's own estimate, and a slot positive on either side stays
        positive — the property Stage-1 screening actually relies on.
        """
        self._check_merge_peer(other)
        if self.d != other.d or self.n1 != other.n1 or self.n2 != other.n2:
            raise MergeError("cold-filter geometries differ")
        for mine, theirs in zip(self.layer1, other.layer1):
            mine.merge(theirs)
        for mine, theirs in zip(self.layer2, other.layer2):
            mine.merge(theirs)
        return self

    def clear_slot(self, slot: int) -> None:
        self._check_slot(slot)
        s = self.s
        for array in self.layer1:
            array.clear_stride(slot, s)
        for array in self.layer2:
            array.clear_stride(slot, s)

    @property
    def memory_bytes(self) -> float:
        return sum(a.memory_bytes for a in self.layer1) + sum(a.memory_bytes for a in self.layer2)


class WindowedLogLog(WindowedFilter):
    """Windowed LogLog Filter: per-slot log-scale (Morris) registers."""

    def __init__(
        self,
        memory_bytes: int,
        s: int,
        d: int = 3,
        bits: int = 4,
        family: HashFamily = None,
        seed: int = 0,
        hash_family: str = "crc",
        rng: random.Random = None,
    ):
        super().__init__(s=s, family=family, seed=seed, hash_family=hash_family)
        n_logical = int(memory_bytes / d * 8 // (bits * s))
        if n_logical <= 0:
            raise ConfigurationError(
                f"memory_bytes={memory_bytes} too small for a windowed LogLog Filter with s={s}"
            )
        self.d = d
        self.n_logical = n_logical
        self.registers = [CounterArray(n_logical * s, bits) for _ in range(d)]
        self._rng = rng if rng is not None else random.Random(seed)

    def _positions(self, item: ItemId) -> Tuple[int, ...]:
        cached = self._pos_cache.get(item)
        if cached is None:
            family = self.family
            cached = tuple(family.hash32(item, i) % self.n_logical for i in range(self.d))
            self._pos_cache[item] = cached
        return cached

    def insert(self, item: ItemId, slot: int) -> None:
        self._check_slot(slot)
        positions = self._positions(item)
        s = self.s
        mapped = [(self.registers[i], positions[i] * s + slot) for i in range(self.d)]
        minimum = min(array.get(index) for array, index in mapped)
        if minimum > 0 and self._rng.random() >= 2.0 ** -minimum:
            return
        for array, index in mapped:
            if array.get(index) == minimum:
                array.increment(index, 1)

    def query_slot(self, item: ItemId, slot: int) -> int:
        self._check_slot(slot)
        positions = self._positions(item)
        s = self.s
        minimum = min(
            self.registers[i].get(positions[i] * s + slot) for i in range(self.d)
        )
        return (1 << minimum) - 1

    def merge(self, other: "WindowedFilter") -> "WindowedFilter":
        """Register-wise maximum.

        Morris-style log registers have no exact merge; the maximum is
        the standard approximation (as in HyperLogLog register merges).
        The merged estimate is at least each substream's estimate but
        can under-report the concatenated total — acceptable for a
        Stage-1 *filter*, whose job is positivity screening.
        """
        self._check_merge_peer(other)
        if self.d != other.d or self.n_logical != other.n_logical:
            raise MergeError("loglog-filter geometries differ")
        for mine, theirs in zip(self.registers, other.registers):
            values = mine.values
            for index, value in enumerate(theirs.values):
                if value > values[index]:
                    values[index] = value
        return self

    def clear_slot(self, slot: int) -> None:
        self._check_slot(slot)
        s = self.s
        for array in self.registers:
            array.clear_stride(slot, s)

    @property
    def memory_bytes(self) -> float:
        return sum(array.memory_bytes for array in self.registers)


#: Stage-1 structures selectable by name (Figure 9 of the paper).
WINDOWED_STRUCTURES = ("tower", "cm", "cu", "cold", "loglog")


def make_windowed_filter(
    structure: str,
    memory_bytes: int,
    s: int,
    d: int = 3,
    update_rule: str = "cm",
    family: HashFamily = None,
    seed: int = 0,
    hash_family: str = "crc",
    rng: random.Random = None,
    recorder=None,
) -> WindowedFilter:
    """Build a Stage-1 windowed filter by structure name.

    ``update_rule`` only applies to ``"tower"`` (XS-CM vs XS-CU); the flat
    ``"cm"``/``"cu"`` names carry their rule, Cold Filter is inherently
    conservative-update and LogLog Filter has its own register update.
    ``recorder`` instruments the array-backed structures (tower/cm/cu)
    with overflow counting; the others ignore it.
    """
    if structure == "tower":
        return WindowedTower(
            memory_bytes, s, d=d, update_rule=update_rule,
            family=family, seed=seed, hash_family=hash_family, recorder=recorder,
        )
    if structure == "cm":
        return WindowedCM(
            memory_bytes, s, d=d, family=family, seed=seed, hash_family=hash_family,
            recorder=recorder,
        )
    if structure == "cu":
        return WindowedCU(
            memory_bytes, s, d=d, family=family, seed=seed, hash_family=hash_family,
            recorder=recorder,
        )
    if structure == "cold":
        return WindowedColdFilter(
            memory_bytes, s, d=d, family=family, seed=seed, hash_family=hash_family,
        )
    if structure == "loglog":
        return WindowedLogLog(
            memory_bytes, s, d=d, family=family, seed=seed, hash_family=hash_family, rng=rng,
        )
    known = ", ".join(WINDOWED_STRUCTURES)
    raise ConfigurationError(f"unknown Stage-1 structure {structure!r}; expected one of: {known}")
