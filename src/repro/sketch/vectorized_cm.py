"""Numpy-backed Count-Min for batches of (key, count) pairs.

The same sketch as :class:`~repro.sketch.cm.CMSketch` -- ``d`` rows of
``width`` saturating counters, ``width`` derived from the byte budget
the same way, the same seed-derived hash family -- so after the same
arrivals counter ``(i, j)`` holds the same value in both.  What differs
is the update: :meth:`ingest_counts` hashes all of a mapping's keys in
one :meth:`~repro.hashing.family.HashFamily.hash_rows` batch, adds the
counts into every row with a single ``np.add.at`` and then clips at the
counter cap.  Counts are non-negative, so add-then-clip equals the
scalar sketch's sequential saturating adds.  Merges and copies are
whole-matrix numpy operations.
"""

from __future__ import annotations

import copy
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, MergeError
from repro.hashing.family import ItemId, make_family


class VectorizedCM:
    """Count-Min over a byte budget, updated and merged in numpy.

    Args:
        memory_bytes: total counter memory; split equally over ``d`` rows
            of 32-bit counters.
        d: number of rows / hash functions.
        seed, hash_family: the hash family (see :func:`make_family`).
    """

    #: counter width, as ``CMSketch``'s default
    bits = 32
    max_value = (1 << bits) - 1

    def __init__(self, memory_bytes: int, d: int = 3, seed: int = 0,
                 hash_family: str = "crc"):
        if d <= 0:
            raise ConfigurationError(f"d must be positive, got {d}")
        width = int(memory_bytes / d * 8 // self.bits)
        if width <= 0:
            raise ConfigurationError(
                f"memory_bytes={memory_bytes} too small for {d} arrays of "
                f"{self.bits}-bit counters"
            )
        self.d = d
        self.width = width
        self.family = make_family(hash_family, seed)
        #: ``(d, width)`` counters; int64 leaves headroom for add-then-clip
        self.counters = np.zeros((d, width), dtype=np.int64)
        self._sizes = (width,) * d
        self._row_offsets = np.arange(d, dtype=np.int64) * width

    def positions(self, items: Sequence[ItemId]) -> np.ndarray:
        """Column of each item in each row: ``(len(items), d)``."""
        return self.family.hash_rows(items, self._sizes)

    def ingest_counts(self, counts: Mapping[ItemId, int]) -> None:
        """Add ``count`` arrivals of every ``key`` in ``counts``."""
        n = len(counts)
        if n == 0:
            return
        flat = self.positions(list(counts)) + self._row_offsets
        amounts = np.fromiter(counts.values(), dtype=np.int64, count=n)
        np.add.at(self.counters.reshape(-1), flat.ravel(), np.repeat(amounts, self.d))
        np.minimum(self.counters, self.max_value, out=self.counters)

    def insert(self, item: ItemId, count: int = 1) -> None:
        self.ingest_counts({item: count})

    def query(self, item: ItemId) -> int:
        columns = self.positions([item])[0]
        return int(self.counters[np.arange(self.d), columns].min())

    def merge(self, other: "VectorizedCM") -> "VectorizedCM":
        """Fold ``other``'s counters into this sketch (saturating add).

        Exact, as for :meth:`CMSketch.merge
        <repro.sketch.cm.CMSketch.merge>`: both sides must share
        geometry and hash seed, so counter ``(i, j)`` means the same
        thing on both.
        """
        if not isinstance(other, VectorizedCM):
            raise MergeError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}"
            )
        if self.d != other.d or self.width != other.width:
            raise MergeError(
                f"CM geometry differs: d={self.d} w={self.width} vs "
                f"d={other.d} w={other.width}"
            )
        if self.family.seed != other.family.seed:
            raise MergeError(
                f"hash seeds differ ({self.family.seed} vs {other.family.seed}); "
                "counters would not align"
            )
        np.add(self.counters, other.counters, out=self.counters)
        np.minimum(self.counters, self.max_value, out=self.counters)
        return self

    def copy(self) -> "VectorizedCM":
        """An independent sketch with the same counters (no shared array)."""
        twin = copy.copy(self)
        twin.counters = self.counters.copy()
        return twin

    @property
    def memory_bytes(self) -> float:
        return self.d * self.width * self.bits / 8.0
